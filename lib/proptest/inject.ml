module Pcode = Psb_machine.Pcode

type t = Sched_order

let all = [ Sched_order ]
let name Sched_order = "sched-order"

let of_name s =
  match s with
  | "sched-order" -> Ok Sched_order
  | _ ->
      Error
        (Printf.sprintf "unknown injected bug %S (known: %s)" s
           (String.concat ", " (List.map name all)))

let has_exit bundle =
  List.exists (function Pcode.Exit _ -> true | Pcode.Op _ -> false) bundle

let swap_first_pair (r : Pcode.region) =
  let code = r.Pcode.code in
  let n = Array.length code in
  let rec find k =
    if k + 1 >= n then None
    else if
      code.(k) <> [] && code.(k + 1) <> []
      && (not (has_exit code.(k)))
      && not (has_exit code.(k + 1))
    then Some k
    else find (k + 1)
  in
  match find 0 with
  | None -> r
  | Some k ->
      let code = Array.copy code in
      let tmp = code.(k) in
      code.(k) <- code.(k + 1);
      code.(k + 1) <- tmp;
      { r with Pcode.code }

let apply Sched_order (p : Pcode.t) =
  (* rebuild the record directly: [Pcode.make] would re-validate, and the
     whole point is emitting code the scheduler never would *)
  { p with Pcode.regions = List.map swap_first_pair p.Pcode.regions }
