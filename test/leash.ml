(* One cycle leash for every test that runs compiled or suite code on the
   VLIW, the fuzzer's own (2M cycles). The machine's default (60M) lets a
   miscompile that loops run for minutes per run; the longest run these
   tests make legitimately is espresso on a 1-issue machine, which
   [test_machine] holds within twice its 124K scalar cycles. *)

let fuel = 2_000_000

let run_vliw ?events ?metrics compiled ~regs ~mem =
  Psb_compiler.Driver.run_vliw ~fuel ?events ?metrics compiled ~regs ~mem
