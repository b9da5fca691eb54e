open Psb_isa

type pinstr = {
  pred : Pred.t;
  op : Instr.op;
  shadow_srcs : Reg.Set.t;
}

type exit_target = To_region of Label.t | Stop

type slot =
  | Op of pinstr
  | Exit of { pred : Pred.t; target : exit_target }

type bundle = slot list

type region = {
  name : Label.t;
  code : bundle array;
  source_blocks : Label.t list;
}

type t = { entry : Label.t; regions : region list }

let op ?(shadow_srcs = Reg.Set.empty) pred op = Op { pred; op; shadow_srcs }
let exit_to pred l = Exit { pred; target = To_region l }
let exit_stop pred = Exit { pred; target = Stop }
let slot_pred = function Op { pred; _ } -> pred | Exit { pred; _ } -> pred

(* The last bundle must offer a way out. The exits of a region need not
   include an always-exit: as in Figure 4, a set of predicated exits whose
   predicates exhaust all outcomes is legal — the machine checks at run
   time that some exit fires before the code runs out. *)
let ends_in_exit region =
  let n = Array.length region.code in
  n > 0
  && List.exists
       (function Exit _ -> true | Op _ -> false)
       region.code.(n - 1)

let make ~entry regions =
  let names = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem names r.name then
        invalid_arg
          (Format.asprintf "Pcode.make: duplicate region %a" Label.pp r.name);
      Hashtbl.add names r.name ())
    regions;
  if not (Hashtbl.mem names entry) then
    invalid_arg
      (Format.asprintf "Pcode.make: entry region %a missing" Label.pp entry);
  List.iter
    (fun r ->
      if not (ends_in_exit r) then
        invalid_arg
          (Format.asprintf "Pcode.make: region %a does not end in an exit"
             Label.pp r.name);
      Array.iter
        (List.iter (function
          | Exit { target = To_region l; _ } ->
              if not (Hashtbl.mem names l) then
                invalid_arg
                  (Format.asprintf
                     "Pcode.make: region %a exits to undefined region %a"
                     Label.pp r.name Label.pp l)
          | Exit { target = Stop; _ } | Op _ -> ()))
        r.code)
    regions;
  { entry; regions }

let find_region t l = List.find (fun r -> Label.equal r.name l) t.regions

let bundle_op r ~bundle ~slot =
  let rec nth j = function
    | [] -> invalid_arg "Pcode.bundle_op: slot past the bundle's operations"
    | Op pi :: rest -> if j = 0 then pi else nth (j - 1) rest
    | Exit _ :: rest -> nth j rest
  in
  nth slot r.code.(bundle)

let num_regions t = List.length t.regions

let num_bundles t =
  List.fold_left (fun acc r -> acc + Array.length r.code) 0 t.regions

let num_slots t =
  List.fold_left
    (fun acc r ->
      acc + Array.fold_left (fun a b -> a + List.length b) 0 r.code)
    0 t.regions

let check_resources model t =
  let module M = Machine_model in
  let check_region r =
    let check_bundle i bundle =
      let counts = Hashtbl.create 4 in
      let bump k =
        Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0)
      in
      List.iter
        (function
          | Op { op; _ } -> bump (M.unit_of_op op)
          | Exit _ -> bump M.Branch_unit)
        bundle;
      let over k =
        Option.value (Hashtbl.find_opt counts k) ~default:0 > M.units_available model k
      in
      if List.length bundle > model.M.issue_width then
        Error
          (Format.asprintf "region %a bundle %d exceeds issue width" Label.pp
             r.name i)
      else if List.exists over [ M.Alu_unit; M.Branch_unit; M.Load_unit; M.Store_unit ]
      then
        Error
          (Format.asprintf "region %a bundle %d exceeds function units"
             Label.pp r.name i)
      else
        let ccr = model.M.ccr_size in
        let bad_pred =
          List.exists (fun s -> not (Pred.fits ~width:ccr (slot_pred s))) bundle
        and bad_setc =
          List.find_map
            (function
              | Op { op = Instr.Setc { dst; _ }; _ } when Cond.index dst >= ccr ->
                  Some dst
              | Op _ | Exit _ -> None)
            bundle
        in
        if bad_pred then
          Error
            (Format.asprintf "region %a bundle %d predicate beyond CCR width"
               Label.pp r.name i)
        else
          match bad_setc with
          | Some c ->
              Error
                (Format.asprintf "region %a bundle %d sets %a beyond CCR width"
                   Label.pp r.name i Cond.pp c)
          | None -> Ok ()
    in
    Array.to_seqi r.code
    |> Seq.fold_left
         (fun acc (i, b) ->
           match acc with Error _ -> acc | Ok () -> check_bundle i b)
         (Ok ())
  in
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> check_region r)
    (Ok ()) t.regions

let pp_slot ppf = function
  | Op { pred; op; shadow_srcs; _ } ->
      Format.fprintf ppf "%a ? %a" Pred.pp pred Instr.pp_op op;
      if not (Reg.Set.is_empty shadow_srcs) then
        Format.fprintf ppf " [shadow:%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
             Reg.pp)
          (Reg.Set.elements shadow_srcs)
  | Exit { pred; target = To_region l; _ } ->
      Format.fprintf ppf "%a ? j %a" Pred.pp pred Label.pp l
  | Exit { pred; target = Stop; _ } ->
      Format.fprintf ppf "%a ? halt" Pred.pp pred

let pp_region ppf r =
  Format.fprintf ppf "@[<v>region %a:@," Label.pp r.name;
  Array.iteri
    (fun i bundle ->
      Format.fprintf ppf "  (%d) " i;
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " || ")
        pp_slot ppf bundle;
      Format.pp_print_cut ppf ())
    r.code;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>entry %a@," Label.pp t.entry;
  List.iter (fun r -> pp_region ppf r) t.regions;
  Format.fprintf ppf "@]"
