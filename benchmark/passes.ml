(* compiler.pass.<pass>_share: each pass's share of the compile time that
   [Driver.compile ?metrics] recorded, for every pass label it reports in
   [compile_pass_seconds] (a pass a later change adds shows up here
   without a benchmark edit). *)

module Json = Psb_obs.Json

let seconds metrics =
  Json.to_list
    (Option.value
       (Json.member "histograms" (Psb_obs.Metrics.to_json metrics))
       ~default:Json.Null)
  |> List.filter_map (fun h ->
         let str k j = Option.bind (Json.member k j) Json.to_str in
         match
           ( str "name" h,
             Option.bind (Json.member "labels" h) (str "pass"),
             Option.bind (Json.member "sum" h) Json.to_float )
         with
         | Some "compile_pass_seconds", Some pass, Some sum -> Some (pass, sum)
         | _ -> None)

let shares metrics =
  let passes = seconds metrics in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. passes in
  List.map
    (fun (pass, s) -> ("compiler.pass." ^ pass ^ "_share", Workload.ratio s total))
    passes
