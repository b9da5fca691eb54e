open Psb_isa

type t = {
  issue_width : int;
  alu_units : int;
  branch_units : int;
  load_units : int;
  store_units : int;
  ccr_size : int;
  load_latency : int;
  int_latency : int;
  max_spec_conds : int;
  transition_penalty : int;
  sb_capacity : int;
  dcache_ports : int;
  rob_size : int;
  shadow : Regfile.mode;
}

let base =
  {
    issue_width = 4;
    alu_units = 4;
    branch_units = 4;
    load_units = 2;
    store_units = 1;
    ccr_size = 4;
    load_latency = 2;
    int_latency = 1;
    max_spec_conds = 4;
    transition_penalty = 0;
    sb_capacity = 16;
    dcache_ports = 1;
    rob_size = 32;
    shadow = Regfile.Single;
  }

let scalar =
  {
    issue_width = 1;
    alu_units = 1;
    branch_units = 1;
    load_units = 1;
    store_units = 1;
    ccr_size = 1;
    load_latency = 2;
    int_latency = 1;
    max_spec_conds = 0;
    transition_penalty = 0;
    sb_capacity = 16;
    dcache_ports = 1;
    rob_size = 8;
    shadow = Regfile.Single;
  }

let full_issue ~width ~max_spec_conds =
  {
    issue_width = width;
    alu_units = width;
    branch_units = width;
    load_units = width;
    store_units = width;
    ccr_size = max max_spec_conds 4;
    load_latency = 2;
    int_latency = 1;
    max_spec_conds;
    transition_penalty = 0;
    sb_capacity = 16;
    dcache_ports = width;
    rob_size = 8 * width;
    shadow = Regfile.Single;
  }

let shadow_capacity t =
  match t.shadow with Regfile.Single -> 1 | Regfile.Infinite -> max_int

let latency t = function
  | Instr.Load _ -> t.load_latency
  | Instr.Alu _ | Instr.Mov _ | Instr.Store _ | Instr.Cmp _ | Instr.Setc _
  | Instr.Out _ | Instr.Nop ->
      t.int_latency

type unit_class = Alu_unit | Branch_unit | Load_unit | Store_unit

let unit_of_op = function
  | Instr.Load _ -> Load_unit
  | Instr.Store _ -> Store_unit
  | Instr.Alu _ | Instr.Mov _ | Instr.Cmp _ | Instr.Setc _ | Instr.Out _
  | Instr.Nop ->
      Alu_unit

let units_available t = function
  | Alu_unit -> t.alu_units
  | Branch_unit -> t.branch_units
  | Load_unit -> t.load_units
  | Store_unit -> t.store_units

let pp ppf t =
  Format.fprintf ppf
    "%d-issue (alu %d, br %d, ld %d, st %d; CCR %d; load lat %d; spec past %d \
     conds)"
    t.issue_width t.alu_units t.branch_units t.load_units t.store_units
    t.ccr_size t.load_latency t.max_spec_conds
