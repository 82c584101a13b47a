(* The theorem-suite workload: E1-E6, E8, E9 and E11-E14 at quick
   size through Registry.run_entry, the entry point both binaries use.
   E7 and E10 are left out: they are almost all span sampling and
   would take most of a run on their own.  Quick size, because a
   default-size pass takes 10-16 s: a run would hold only 2-3 of them,
   too few samples to ride out the host's slow spells (see README). *)

open Fn_experiments

let ids = [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E8"; "E9"; "E11"; "E12"; "E13"; "E14" ]

(* Everything a run does before its first run_entry. *)
let prepare ~seed ~obs =
  let entries = List.filter (fun (e : Registry.entry) -> List.mem e.Registry.id ids) Registry.all in
  (Workload.config ~quick:true ~seed ~obs (), entries)

type timed = {
  id : string;
  ns : int;
  at : int;  (** when it ended *)
}

type pass = {
  times : timed list;
  wall_ns : int;
  digest : string;  (** of the outcomes' JSON *)
}

(* One pass over the experiments.  With [cal], the host-speed reference
   is sampled between experiments; its time is left out of [wall_ns]. *)
let pass ?cal ~seed ~obs () =
  let cfg, entries = prepare ~seed ~obs in
  let t0 = Fn_obs.Clock.now_ns () in
  let spent () = match cal with Some c -> c.Calib.spent_ns | None -> 0 in
  let spent0 = spent () in
  let outs =
    List.map
      (fun (e : Registry.entry) ->
        Option.iter Calib.tick cal;
        let s = Fn_obs.Clock.now_ns () in
        let o =
          Fn_obs.Span.wrap obs "experiment"
            ~fields:[ ("id", Fn_obs.Sink.Str e.Registry.id) ]
            (fun () -> Registry.run_entry e cfg)
        in
        let at = Fn_obs.Clock.now_ns () in
        let ns = at - s in
        List.iter
          (fun (name, ok) -> Report.check ok "%s check %S failed" e.Registry.id name)
          o.Outcome.checks;
        ({ id = e.Registry.id; ns; at }, o))
      entries
  in
  let wall_ns = Fn_obs.Clock.now_ns () - t0 - (spent () - spent0) in
  let json = String.concat "\n" (List.map (fun (_, o) -> Outcome.to_json o) outs) in
  {
    times = List.map fst outs;
    wall_ns;
    digest = Digest.to_hex (Digest.string json);
  }

(* The layers the suite's own spans reach, as (row, span names). *)
let layers =
  [
    ("experiments.self", [ "experiment" ]);
    ("expansion.estimate", [ "expansion.estimate" ]);
    ("expansion.spectral", [ "spectral.solve"; "spectral.lambda2"; "spectral.fiedler_pair" ]);
    ("faultnet.prune", [ "prune.run" ]);
    ("faultnet.prune2", [ "prune2.run" ]);
    ("percolation.threshold", [ "percolation.threshold" ]);
  ]
