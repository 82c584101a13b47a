(* Benchmark driver.

     main.exe --workload churn_serve|alpha_track|theorem_suite --seed N
              --seconds S --trace 0|1

   Prints the measurements as text, then one JSON line: with --trace 0
   the end-to-end metrics, with --trace 1 the per-layer metrics of the
   traced run.  Scratch files live under .perfbench/ in the working
   directory.  See README.md for the workloads and the metrics. *)

let work = ".perfbench"

(* Built by run.sh; paths are relative to the checkout root. *)
let faultnetd = "./_build/default/bin/faultnetd.exe"

let usage () =
  prerr_endline
    "usage: main.exe --workload churn_serve|alpha_track|theorem_suite --seed N --seconds S \
     --trace 0|1";
  exit 2

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* ---- per-layer metrics: every name, zero where a layer does no work ---- *)

let per_layer_units =
  [
    ("online.create_ns", "ns");
    ("online.parse_ns", "ns");
    ("online.apply_ns", "ns");
    ("online.result_ns", "ns");
    ("online.query_ns", "ns");
    ("online.alpha_ns", "ns");
    ("online.render_ns", "ns");
    ("online.surveys_per_batch", "count");
    ("online.dirty_peak", "count");
    ("online.alpha_computes", "count");
    ("online.alpha_memo_hit_frac", "frac");
    ("resilience.record_ns", "ns");
    ("resilience.encode_ns", "ns");
    ("resilience.compact_ns", "ns");
    ("resilience.snapshot_bytes", "bytes");
    ("resilience.journal_bytes", "bytes");
    ("resilience.recover_ns", "ns");
    ("resilience.replayed_batches", "count");
    ("expansion.estimate_self_ns", "ns");
    ("expansion.spectral_ns", "ns");
    ("expansion.spectral_iterations", "count");
    ("expansion.replica_mismatches", "count");
    ("faultnet.prune_ns", "ns");
    ("faultnet.prune2_ns", "ns");
    ("percolation.threshold_ns", "ns");
  ]
  @ List.map (fun id -> ("experiments." ^ id ^ "_s", "s")) Suite.ids
  @ [
      ("experiments.self_ns", "ns");
      ("obs.trace_overhead_frac", "frac");
      ("obs.stage_sum_frac", "frac");
    ]

let emit_per_layer values =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k per_layer_units) then failwith ("unlisted per-layer metric " ^ k))
    values;
  Report.emit
    (List.map
       (fun (name, unit_) ->
         (name, Option.value (List.assoc_opt name values) ~default:0.0, unit_))
       per_layer_units)

let expansion_layer by =
  let est = Stages.get by "expansion.estimate" in
  let spec =
    Stages.sum by [ "spectral.solve"; "spectral.lambda2"; "spectral.fiedler_pair" ]
  in
  ( [
      ("expansion.estimate_self_ns", Stages.self_per_call est);
      ("expansion.spectral_ns", Stages.self_per_call spec);
      ( "expansion.spectral_iterations",
        if spec.Stages.calls = 0 then 0.0
        else float_of_int spec.Stages.iterations /. float_of_int spec.Stages.calls );
    ],
    spec.Stages.iterations )

(* The end-to-end metrics, from samples already scaled to the
   reference host (see calib.ml). *)
let e2e ~setup ~op ~rate ~rss_kb =
  [
    ("setup_s", Report.median setup, "s");
    ("op_ms", op, "ms");
    ("rate_per_s", rate, "1/s");
    ("peak_rss_mb", float_of_int rss_kb /. 1024.0, "MB");
  ]

(* Records are compared only between runs of the same build. *)
let record ~key ~exes facts =
  Report.record ~dir:(Filename.concat work "records") ~key ~build:(Report.build_id exes) facts

(* ---- daemon workloads ---- *)

(* The reference's own figures, and the spread it took out. *)
let print_host cal =
  let r = Calib.samples_ms cal in
  Printf.printf
    "  host reference: %d samples, median %.3f ms, p10 %.3f ms, p90 %.3f ms (%.1f ms nominal)\n"
    (List.length r) (Report.median r) (Report.percentile r 10.0) (Report.percentile r 90.0)
    Calib.reference_ms

let run_online ~exe ~name ~seed ~seconds ~trace =
  let w = if name = "churn_serve" then Online.churn_serve else Online.alpha_track in
  let tmp = Filename.concat work "tmp" in
  let cal = Calib.create () in
  let s, t = Online.run_session ~exe ~work:tmp ~cal w ~seed ~seconds in
  let loop_s = float_of_int s.Online.loop_ns /. 1e9 in
  let nz l = if l = [] then [ 0.0 ] else List.map snd l in
  Printf.printf "%s: %d cycles in %.3f s, seed %d (as measured, not scaled)\n" name
    s.Online.cycles loop_s seed;
  Printf.printf "  CPUs allowed: %s\n" (Daemon.cpus_allowed ());
  Report.line "setup_s" (Report.median (nz t.Online.setup)) "s";
  Report.line "apply_p50_ms" (Report.median (nz t.Online.apply)) "ms";
  Report.line "apply_p99_ms" (Report.percentile (nz t.Online.apply) 99.0) "ms";
  Report.line "cycle_p50_ms" (Report.median (nz t.Online.cycle)) "ms";
  Report.line "cycle_p90_ms" (Report.percentile (nz t.Online.cycle) 90.0) "ms";
  Report.line "compact_apply_ms" (Report.median (nz t.Online.compact)) "ms";
  Report.line "query_p50_us" (Report.median (nz t.Online.query)) "us";
  Report.line "query_p99_us" (Report.percentile (nz t.Online.query) 99.0) "us";
  Report.line "events_per_s" (float_of_int t.Online.events /. loop_s) "1/s";
  Report.line "resume_s" (match t.Online.resume with Some (_, r) -> r | None -> 0.0) "s";
  Report.line "alpha_p50_ms" (Report.median (nz t.Online.alpha)) "ms";
  Report.line "alpha_p90_ms" (Report.percentile (nz t.Online.alpha) 90.0) "ms";
  Report.line "peak_rss_mb" (float_of_int t.Online.rss_kb /. 1024.0) "MB";
  Printf.printf "  samples: %d applies, %d compacting applies, %d probes, %d alpha?, %d windows\n"
    (List.length t.Online.apply) (List.length t.Online.compact) (List.length t.Online.query)
    (List.length t.Online.alpha) (List.length t.Online.windows);
  (* Accepted events per second over the full windows, each window
     scaled to the reference host. *)
  let events = float_of_int (w.Online.window * w.Online.gen.Gen.batch) in
  let secs = Calib.time cal t.Online.windows in
  let tail_s = Report.percentile secs 90.0 in
  let rate =
    if w.Online.window_tail then events /. tail_s
    else events *. float_of_int (List.length secs) /. List.fold_left ( +. ) 0.0 secs
  in
  let facts =
    [
      ("checkpoint_stats", s.Online.checkpoint_stats);
      ("checkpoint_state", s.Online.checkpoint_digest);
      ("checkpoint_journal_bytes", string_of_int s.Online.checkpoint_journal);
    ]
  in
  let exes = [ exe; Sys.executable_name ] in
  if not trace then begin
    record ~key:(Printf.sprintf "%s-seed%d-trace0" name seed) ~exes facts;
    (* churn_serve: the median cycle.  With client and daemon on one
       CPU the reference follows a 2 ms cycle's speed, and what differs
       from run to run is the share of slow cycles, which moves the
       90th percentile.  alpha_track: see window_tail. *)
    let op =
      if w.Online.window_tail then tail_s *. 1e3 /. float_of_int w.Online.window
      else Report.median (Calib.time cal t.Online.cycle)
    in
    Printf.printf "  failed_frac %.6f (%d of %d)\n"
      (float_of_int !Report.failed /. float_of_int (max 1 !Report.attempted))
      !Report.failed !Report.attempted;
    print_host cal;
    Report.emit
      (e2e ~setup:(Calib.time cal t.Online.setup)
         ~op
         ~rate
         ~rss_kb:t.Online.rss_kb)
  end
  else begin
    let r = Online.replay ~work:tmp w ~seed s in
    let loop = Stages.by_name r.Online.loop_spans in
    let all = Stages.by_name r.Online.all_spans in
    let frac =
      Stages.table ~title:(name ^ " replay loop") ~wall_ns:r.Online.replay_loop_ns
        (List.map (fun n -> (n, Stages.get loop n)) Online.stage_names)
    in
    let per n = Stages.self_per_call (Stages.get loop n) in
    let st = r.Online.loop_stats in
    let expansion, iterations = expansion_layer all in
    let overhead =
      float_of_int (r.Online.replay_loop_ns - s.Online.loop_ns) /. float_of_int s.Online.loop_ns
    in
    record ~key:(Printf.sprintf "%s-seed%d-trace1" name seed) ~exes
      (facts
      @ [
          ("snapshot_bytes", string_of_int r.Online.snapshot_bytes);
          ("replayed_batches", string_of_int r.Online.replayed);
        ]
      @
      if r.Online.replicated = Online.replicas then
        [ ("replica_spectral_iterations", string_of_int iterations) ]
      else []);
    Printf.printf "  spectral iterations %d, replica mismatches %d\n" iterations
      r.Online.mismatches;
    emit_per_layer
      ([
         ("online.create_ns", Stages.self_per_call (Stages.get all "online.create"));
         ("online.parse_ns", per "online.parse");
         ("online.apply_ns", per "online.apply");
         ("online.result_ns", per "online.result");
         ("online.query_ns", per "online.query");
         ("online.alpha_ns", per "online.alpha");
         ("online.render_ns", per "online.render");
         ( "online.surveys_per_batch",
           float_of_int st.Fn_online.Engine.surveys
           /. float_of_int (max 1 st.Fn_online.Engine.batches) );
         ("online.dirty_peak", float_of_int st.Fn_online.Engine.dirty_peak);
         ("online.alpha_computes", float_of_int st.Fn_online.Engine.alpha_computes);
         ( "online.alpha_memo_hit_frac",
           if r.Online.alpha_queries = 0 then 0.0
           else
             1.0
             -. float_of_int st.Fn_online.Engine.alpha_computes
                /. float_of_int r.Online.alpha_queries );
         ("resilience.record_ns", per "resilience.record");
         ("resilience.encode_ns", per "resilience.encode");
         ("resilience.compact_ns", per "resilience.compact");
         ("resilience.snapshot_bytes", float_of_int r.Online.snapshot_bytes);
         ("resilience.journal_bytes", float_of_int s.Online.checkpoint_journal);
         ("resilience.recover_ns", Stages.self_per_call (Stages.get all "resilience.recover"));
         ("resilience.replayed_batches", float_of_int r.Online.replayed);
         ("expansion.replica_mismatches", float_of_int r.Online.mismatches);
         ("obs.trace_overhead_frac", overhead);
         ("obs.stage_sum_frac", frac);
       ]
      @ expansion)
  end

(* ---- theorem suite ---- *)

let suite_ready seed =
  ignore (Suite.prepare ~seed ~obs:Fn_obs.Sink.null : Fn_experiments.Workload.config * _);
  print_endline "ready"

let run_suite ~seed ~seconds ~trace =
  let record =
    record
      ~key:(Printf.sprintf "theorem_suite-seed%d-trace%d" seed (if trace then 1 else 0))
      ~exes:[ Sys.executable_name ]
  in
  let print_pass label p =
    Printf.printf "theorem_suite %s pass: %.3f s, seed %d, outcomes %s\n" label
      (float_of_int p.Suite.wall_ns /. 1e9) seed p.Suite.digest;
    List.iter
      (fun (e : Suite.timed) ->
        Report.line ("  " ^ e.Suite.id ^ "_ms") (Report.ms_of_ns e.Suite.ns) "ms")
      p.Suite.times
  in
  if not trace then begin
    let cal = Calib.create () in
    let start_up () =
      Calib.sample cal;
      let d = Daemon.spawn Sys.executable_name [ "--suite-ready"; "--seed"; string_of_int seed ] in
      let line = input_line d.Daemon.ic in
      let s = Fn_obs.Clock.elapsed_s ~since_ns:d.Daemon.spawned_ns in
      Report.check (line = "ready") "suite start-up printed %S" line;
      Daemon.reap d;
      (d.Daemon.spawned_ns, s)
    in
    (* Start-ups are timed before and after the passes, so their median
       spans the run. *)
    let before = List.init 25 (fun _ -> start_up ()) in
    let t0 = Fn_obs.Clock.now_ns () in
    let rec passes acc =
      let p = Suite.pass ~cal ~seed ~obs:Fn_obs.Sink.null () in
      print_pass "untraced" p;
      (match acc with
      | first :: _ ->
        Report.check (p.Suite.digest = first.Suite.digest) "suite outcomes differ between passes"
      | [] -> ());
      let acc = acc @ [ p ] in
      if Fn_obs.Clock.elapsed_s ~since_ns:t0 < seconds then passes acc else acc
    in
    let ps = passes [] in
    let setup = before @ List.init 26 (fun _ -> start_up ()) in
    Calib.sample cal;
    let walls = List.map (fun p -> Report.ms_of_ns p.Suite.wall_ns) ps in
    (* Each experiment's [p]th percentile time over the passes, summed
       over the experiments: a pass made of per-experiment samples.  At
       the 90th percentile every experiment sits in the host's slow
       spells, so the sum holds steady where per-pass figures do not.
       The suite is one fixed batch, so its rate is the same figure
       counted in experiments per second. *)
    let composite ~scale p =
      List.fold_left
        (fun acc id ->
          let runs = List.map (fun q -> List.find (fun e -> e.Suite.id = id) q.Suite.times) ps in
          let samples = List.map (fun e -> (e.Suite.at, Report.ms_of_ns e.Suite.ns)) runs in
          acc +. Report.percentile (scale samples) p)
        0.0 Suite.ids
    in
    let raw = List.map snd in
    let experiments = float_of_int (List.length Suite.ids * List.length ps) in
    let total_s = List.fold_left ( +. ) 0.0 walls /. 1e3 in
    Printf.printf "theorem_suite: %d passes, seed %d (as measured, not scaled)\n" (List.length ps)
      seed;
    Report.line "setup_s" (Report.median (raw setup)) "s";
    Report.line "suite_s" (Report.median walls /. 1e3) "s";
    Report.line "composite_p90_ms" (composite ~scale:raw 90.0) "ms";
    Report.line "experiments_per_s" (experiments /. total_s) "1/s";
    Printf.printf "  samples: %d passes, %d experiments\n" (List.length ps)
      (int_of_float experiments);
    record [ ("outcomes", (List.hd ps).Suite.digest) ];
    print_host cal;
    let op = composite ~scale:(Calib.time cal) 90.0 in
    Report.emit
      (e2e ~setup:(Calib.time cal setup) ~op
         ~rate:(float_of_int (List.length Suite.ids) /. (op /. 1e3))
         ~rss_kb:(Daemon.peak_rss_kb 0))
  end
  else begin
    let u = Suite.pass ~seed ~obs:Fn_obs.Sink.null () in
    print_pass "untraced" u;
    let path = Filename.concat (Filename.concat work "tmp") "suite.trace.jsonl" in
    let sink = Fn_obs.Sink.jsonl_file path in
    let tr = Suite.pass ~seed ~obs:sink () in
    Fn_obs.Sink.close sink;
    print_pass "traced" tr;
    Report.check (tr.Suite.digest = u.Suite.digest) "traced suite outcomes differ from untraced";
    let by = Stages.by_name (Stages.spans (Stages.events_of_jsonl path)) in
    let rows = List.map (fun (row, names) -> (row, Stages.sum by names)) Suite.layers in
    let rows = rows @ [ ("other", Stages.others by (List.concat_map snd Suite.layers)) ] in
    let frac = Stages.table ~title:"theorem_suite traced pass" ~wall_ns:tr.Suite.wall_ns rows in
    let expansion, iterations = expansion_layer by in
    record [ ("outcomes", tr.Suite.digest); ("spectral_iterations", string_of_int iterations) ];
    let self row = Stages.self_per_call (List.assoc row rows) in
    emit_per_layer
      ([
         ("faultnet.prune_ns", self "faultnet.prune");
         ("faultnet.prune2_ns", self "faultnet.prune2");
         ("percolation.threshold_ns", self "percolation.threshold");
         ("experiments.self_ns", self "experiments.self");
         ( "obs.trace_overhead_frac",
           float_of_int (tr.Suite.wall_ns - u.Suite.wall_ns) /. float_of_int u.Suite.wall_ns );
         ("obs.stage_sum_frac", frac);
       ]
      @ expansion
      @ List.map
          (fun (e : Suite.timed) ->
            ("experiments." ^ e.Suite.id ^ "_s", float_of_int e.Suite.ns /. 1e9))
          tr.Suite.times)
  end

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_of s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := Some (int_of v);
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := Some (float_of_int (int_of v));
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | [ "--suite-ready"; "--seed"; v ] ->
      suite_ready (int_of v);
      exit 0
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace ->
    if not (List.mem name [ "churn_serve"; "alpha_track"; "theorem_suite" ]) then usage ();
    if name <> "theorem_suite" && not (Sys.file_exists faultnetd) then begin
      prerr_endline ("main.exe: no faultnetd at " ^ faultnetd);
      exit 2
    end;
    List.iter mkdir_p [ work; Filename.concat work "tmp"; Filename.concat work "records" ];
    let fails = Selftest.run () in
    Report.check (fails = []) "generator self-test: %s" (String.concat "; " fails);
    if name = "theorem_suite" then run_suite ~seed ~seconds ~trace
    else run_online ~exe:faultnetd ~name ~seed ~seconds ~trace
  | _ -> usage ()
