open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Branch_predict = Psb_cfg.Branch_predict

type key = string

let add_model b (m : Model.t) =
  let spec = function
    | Model.No_spec -> "none"
    | Model.Squash n -> Printf.sprintf "squash%d" n
    | Model.Buffered -> "buffered"
  in
  Buffer.add_string b
    (Printf.sprintf "|model=%s;scope=%s;safe=%s;unsafe=%s;store=%s;elim=%b;climit=%s;counter=%b;exec=%b"
       m.Model.name
       (match m.Model.scope with Model.Trace -> "trace" | Model.Region -> "region")
       (spec m.Model.safe_spec) (spec m.Model.unsafe_spec)
       (spec m.Model.store_spec) m.Model.branch_elim
       (match m.Model.cond_limit with None -> "inf" | Some n -> string_of_int n)
       m.Model.counter_preds m.Model.executable)

(* An exhaustive pattern, so a new machine field fails to compile here
   until it joins the key. *)
let add_machine b
    {
      Machine_model.issue_width;
      alu_units;
      branch_units;
      load_units;
      store_units;
      ccr_size;
      load_latency;
      int_latency;
      max_spec_conds;
      transition_penalty;
      sb_capacity;
      dcache_ports;
      rob_size;
    } =
  Buffer.add_string b
    (Printf.sprintf "|machine=%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d"
       issue_width alu_units branch_units load_units store_units ccr_size
       load_latency int_latency max_spec_conds transition_penalty sb_capacity
       dcache_ports rob_size)

(* Bumped whenever the [Driver.compiled] representation changes shape
   (v2: pcode slots carry compiled predicate masks; v3: compiles carry
   the lowered structure-of-arrays region form; v4: compiles carry the
   predecoded scalar form for the interpreter and ROB kernels; v5: they
   no longer do, it moved to [Driver.analysis]; v6: the lowered form
   lost its per-slot source predicates), so a process mixing library
   versions through a shared cache can never alias keys. *)
let format_version = 6

let key ~model ~machine ~single_shadow ~avoid_commit_deps ~verify ~profile
    program =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "v%d|" format_version);
  Buffer.add_string b (Asm.print program);
  add_model b model;
  add_machine b machine;
  Buffer.add_string b
    (Printf.sprintf "|single_shadow=%b|avoid_commit_deps=%b|verify=%b|profile="
       single_shadow avoid_commit_deps verify);
  Buffer.add_string b (Branch_predict.fingerprint profile);
  Digest.to_hex (Digest.string (Buffer.contents b))

type 'a t = {
  lock : Mutex.t;
  tbl : (key, 'a) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let find_or_compile t key build =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some v ->
      Atomic.incr t.hits;
      Mutex.unlock t.lock;
      v
  | None ->
      Mutex.unlock t.lock;
      Atomic.incr t.misses;
      let v = build () in
      Mutex.lock t.lock;
      (* A racing domain may have inserted first: keep the incumbent so
         every later hit shares one value. *)
      let v =
        match Hashtbl.find_opt t.tbl key with
        | Some v' -> v'
        | None ->
            Hashtbl.replace t.tbl key v;
            v
      in
      Mutex.unlock t.lock;
      v

type stats = { hits : int; misses : int; entries : int }

let stats t =
  Mutex.lock t.lock;
  let entries = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  { hits = Atomic.get t.hits; misses = Atomic.get t.misses; entries }

let observe_metrics t m =
  let s = stats t in
  let set name v =
    let c = Psb_obs.Metrics.counter m name in
    Psb_obs.Metrics.inc c ~by:(v - Psb_obs.Metrics.counter_value c)
  in
  set "compile_cache_hits" s.hits;
  set "compile_cache_misses" s.misses;
  set "compile_cache_entries" s.entries
