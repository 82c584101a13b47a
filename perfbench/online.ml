(* The daemon workloads: a seeded churn session against the real
   faultnetd over a pipe (untraced), and the same session replayed
   in-process with a span around each public call in the order the
   server makes them (traced). *)

open Fn_online

type workload = {
  topology : string;
  gen : Gen.spec;
  compact_every : int;  (** batches between compactions; 0 = no journal *)
  setups : int;  (** daemon start-ups timed per run *)
  first : string;  (** first request after start-up *)
  checkpoint : int;  (** cycle whose counters and digest must repeat *)
  window : int;  (** cycles per throughput window *)
  window_tail : bool;
      (** op_ms is the cycle time of the window at the 90th percentile
          of scaled window times and rate_per_s that window's
          throughput, else op_ms is the median scaled cycle and
          rate_per_s the throughput over all full windows *)
}

(* Compaction cadence: a resume replays at most [compact_every]
   batches after the snapshot.  1024 batches are 65536 events, about
   1 s of replay at the ~70k events/s the README's recovery figures
   give (410k events in ~7.1 s, ~1.2 s of it engine construction), so
   a resume stays within about 1 s of a snapshot restore.  One
   compaction costs about as much as 500 plain applies, so at this
   cadence it is roughly a third of the serving loop rather than all
   of it. *)
let churn_serve =
  {
    topology = "itorus:1000x1000";
    gen = { Gen.n = 1_000_000; batch = 64; probes = 8; target = 2048; alpha = false };
    compact_every = 1024;
    setups = 10;
    first = "state?";
    checkpoint = 1536;
    (* One compaction period a window: a run holds about ten, too few
       for a steady 90th percentile. *)
    window = 1024;
    window_tail = false;
  }

let alpha_track =
  {
    topology = "torus:32x32";
    gen = { Gen.n = 1024; batch = 16; probes = 4; target = 48; alpha = true };
    compact_every = 0;
    (* A start-up takes ~0.15 s here, so more of them are cheap and
       steady the median. *)
    setups = 30;
    first = "alpha?";
    checkpoint = 16;
    (* An alpha? slows more than the host reference in the host's slow
       spells; those fall in every run, so the windows' slow tail holds
       steady where the median and the mean move with the share of the
       run the spells take. *)
    window = 4;
    window_tail = true;
  }

(* The daemon's own seed stays fixed: the benchmark seed only shapes the
   traffic. *)
let daemon_seed = 1

let journaled w = w.compact_every > 0
let compacts w accepted = journaled w && accepted mod w.compact_every = 0

(* What the untraced session saw, for the checks and for the replay. *)
type session = {
  cycles : int;
  replies : string array;  (** every loop reply, in order *)
  checkpoint_stats : string;
  checkpoint_digest : string;
  checkpoint_journal : int;
  final_stats : string;
  tail : int;  (** cycles sent after [audit!], before the kill *)
  digest : string;  (** [state?] just before the kill *)
  loop_ns : int;  (** the measured loop, checkpoint requests and reference excluded *)
}

(* Journal bytes after the meta header, which differs between the
   daemon and the replay. *)
let journal_bytes path =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
    let len = in_channel_length ic in
    let header = try String.length (input_line ic) + 1 with End_of_file -> 0 in
    close_in ic;
    len - header

let remove path = try Sys.remove path with Sys_error _ -> ()

let reset_journal path =
  remove path;
  remove (Fn_resilience.Journal.compact_tmp_path path)

let ok_tail reply =
  if String.length reply >= 3 && String.sub reply 0 3 = "ok " then
    Some (String.sub reply 3 (String.length reply - 3))
  else None

let field key reply =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
        int_of_string_opt (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' reply)

(* Check one loop reply against the generator's mirror. *)
let check_reply g line reply =
  let n = g.Gen.spec.Gen.n in
  match (line, ok_tail reply) with
  | _, None -> Report.check false "%S answered %S" (Gen.wire line) reply
  | Gen.Apply (_, k), Some _ ->
    Report.check
      (field "applied" reply = Some k && field "alive" reply = Some (n - Gen.fault_count g))
      "apply answered %S; mirror expects applied=%d alive=%d" reply k (n - Gen.fault_count g)
  | Gen.Alive (_, v), Some tail ->
    let want = if Gen.is_faulty g v then "false" else "true" in
    Report.check (tail = want) "alive? %d answered %S; mirror says %s" v reply want
  | Gen.Cert (_, v), Some tail ->
    Report.check
      (not (String.length tail >= 4 && String.sub tail 0 4 = "true" && Gen.is_faulty g v))
      "certificate? %d answered %S for a faulty node" v reply
  | Gen.Alpha, Some tail ->
    Report.check
      (match float_of_string_opt (List.hd (String.split_on_char ' ' tail)) with
      | Some a -> Float.is_finite a && a >= 0.0
      | None -> false)
      "alpha? answered %S" reply

(* Every sample is stamped with the time it was taken, so that it can be
   scaled by the host-speed reference measured nearest to it. *)
type timings = {
  setup : (int * float) list;  (** s *)
  apply : (int * float) list;  (** ms, applies that do not compact *)
  cycle : (int * float) list;  (** ms, apply + probes (+ alpha?), cycles that do not compact *)
  compact : (int * float) list;  (** ms, applies that compact *)
  query : (int * float) list;  (** us, alive?/certificate? *)
  alpha : (int * float) list;  (** ms *)
  resume : (int * float) option;  (** s *)
  rss_kb : int;
  events : int;
  windows : (int * float) list;  (** s, each full [window] cycles of the loop *)
}

let args w ~journal ~resume =
  [ "--topology"; w.topology; "--seed"; string_of_int daemon_seed ]
  @ (if journaled w then
       [ "--journal"; journal; "--compact-every"; string_of_int w.compact_every ]
     else [])
  @ if resume then [ "--resume" ] else []

let run_session ~exe ~work ~cal w ~seed ~seconds =
  let journal = Filename.concat work "session.journal" in
  (* Start-up, timed [setups] times: half before the session (the last
     of those serves it) and half after, so the median spans the run. *)
  let setup = ref [] in
  let first_reply = ref None in
  let start_up () =
    reset_journal journal;
    Calib.sample cal;
    let d = Daemon.spawn exe (args w ~journal ~resume:false) in
    let reply, _ = Daemon.request d w.first in
    setup := (d.Daemon.spawned_ns, Fn_obs.Clock.elapsed_s ~since_ns:d.Daemon.spawned_ns) :: !setup;
    (match !first_reply with
    | None ->
      Report.check (ok_tail reply <> None) "start-up %S answered %S" w.first reply;
      first_reply := Some reply
    | Some r -> Report.check (r = reply) "start-up answered %S, earlier %S" reply r);
    d
  in
  let extra_start_ups k =
    for _ = 1 to k do
      Daemon.quit (start_up ())
    done
  in
  extra_start_ups ((w.setups / 2) - 1);
  let d = start_up () in
  let g = Gen.create w.gen ~seed in
  let replies = ref [] in
  let apply = ref [] and compact = ref [] and query = ref [] and alpha = ref [] in
  let cycle = ref [] in
  let accepted = ref 0 and events = ref 0 in
  let cp = ref ("", "", 0) and cp_ns = ref 0 in
  let send_cycle ~timed =
    let total = ref 0 in
    List.iter
      (fun line ->
        let reply, ns = Daemon.request d (Gen.wire line) in
        let at = Fn_obs.Clock.now_ns () in
        check_reply g line reply;
        total := !total + ns;
        if timed then replies := reply :: !replies;
        match line with
        | Gen.Apply (_, k) ->
          incr accepted;
          if timed then begin
            events := !events + k;
            if compacts w !accepted then compact := (at, Report.ms_of_ns ns) :: !compact
            else apply := (at, Report.ms_of_ns ns) :: !apply
          end
        | Gen.Alive _ | Gen.Cert _ ->
          if timed then query := (at, float_of_int ns /. 1e3) :: !query
        | Gen.Alpha -> if timed then alpha := (at, Report.ms_of_ns ns) :: !alpha)
      (Gen.cycle g);
    if timed && not (compacts w !accepted) then
      cycle := (Fn_obs.Clock.now_ns (), Report.ms_of_ns !total) :: !cycle
  in
  let t0 = Fn_obs.Clock.now_ns () in
  let spent0 = cal.Calib.spent_ns in
  (* Loop time without the checkpoint requests and the reference. *)
  let busy () = Fn_obs.Clock.now_ns () - t0 - !cp_ns - (cal.Calib.spent_ns - spent0) in
  let cycles = ref 0 in
  let windows = ref [] and window_start = ref 0 in
  while !cycles < w.checkpoint || Fn_obs.Clock.elapsed_s ~since_ns:t0 < seconds do
    send_cycle ~timed:true;
    Calib.tick cal;
    incr cycles;
    if !cycles = w.checkpoint then begin
      let c0 = Fn_obs.Clock.now_ns () in
      let stats, _ = Daemon.request d "stats?" in
      let digest, _ = Daemon.request d "state?" in
      cp := (stats, digest, journal_bytes journal);
      cp_ns := Fn_obs.Clock.now_ns () - c0
    end;
    if !cycles mod w.window = 0 then begin
      let now = busy () in
      windows := (Fn_obs.Clock.now_ns (), Fn_obs.Clock.ns_to_s (now - !window_start)) :: !windows;
      window_start := now
    end
  done;
  let loop_ns = busy () in
  let final_stats, _ = Daemon.request d "stats?" in
  let audit, _ = Daemon.request d "audit!" in
  Report.check (field "faults" audit = Some 0) "audit! answered %S" audit;
  (* Leave the journal mid compaction period before the kill, so
     resume restores a snapshot and replays a suffix. *)
  let tail = ref 0 in
  if journaled w then
    while !tail = 0 || !accepted mod w.compact_every <> w.compact_every / 2 do
      send_cycle ~timed:false;
      incr tail
    done;
  let digest, _ = Daemon.request d "state?" in
  let rss_kb = Daemon.peak_rss_kb d.Daemon.pid in
  let resume =
    if journaled w then begin
      Daemon.kill9 d;
      Calib.sample cal;
      let r = Daemon.spawn exe (args w ~journal ~resume:true) in
      let reply, _ = Daemon.request r "state?" in
      let s = Fn_obs.Clock.elapsed_s ~since_ns:r.Daemon.spawned_ns in
      Report.check (reply = digest) "resumed state? %S, before the kill %S" reply digest;
      Daemon.quit r;
      Some (r.Daemon.spawned_ns, s)
    end
    else begin
      Daemon.quit d;
      None
    end
  in
  extra_start_ups (w.setups - (w.setups / 2));
  Calib.sample cal;
  let stats, cdigest, cjournal = !cp in
  ( {
      cycles = !cycles;
      replies = Array.of_list (List.rev !replies);
      checkpoint_stats = stats;
      checkpoint_digest = cdigest;
      checkpoint_journal = cjournal;
      final_stats;
      tail = !tail;
      digest;
      loop_ns;
    },
    {
      setup = !setup;
      apply = !apply;
      cycle = !cycle;
      compact = !compact;
      query = !query;
      alpha = !alpha;
      resume;
      rss_kb;
      events = !events;
      windows = !windows;
    } )

(* ---- traced in-process replay ---- *)

let stage_names =
  [
    "online.parse";
    "online.apply";
    "online.result";
    "online.query";
    "online.alpha";
    "online.render";
    "resilience.record";
    "resilience.encode";
    "resilience.compact";
  ]

type replay = {
  loop_spans : Stages.span list;
  all_spans : Stages.span list;
  replay_loop_ns : int;
  alpha_queries : int;
  loop_stats : Engine.stats;
  snapshot_bytes : int;
  replayed : int;
  replicated : int;  (** estimates re-run with the sink on *)
  mismatches : int;  (** replica estimates that differ from the engine's alpha *)
}

let replicas = 16

let replay ~work w ~seed (s : session) =
  let sink, events = Fn_obs.Sink.memory () in
  let span name f = Fn_obs.Span.wrap sink name f in
  let view =
    match Server.view_of_spec (Fn_prng.Rng.create daemon_seed) w.topology with
    | Ok v -> v
    | Error m -> failwith m
  in
  let cfg = { Engine.default_config with Engine.seed = daemon_seed } in
  let engine = span "online.create" (fun () -> Engine.create ~cfg view) in
  ignore (Server.handle engine w.first : Server.outcome);
  let path = Filename.concat work "replay.journal" in
  reset_journal path;
  let meta = [ ("bench", Fn_obs.Jsonx.Str "replay") ] in
  let journal =
    if journaled w then
      match Fn_resilience.Journal.open_ ~path ~meta with
      | Ok j -> Some j
      | Error m -> failwith m
    else None
  in
  let n = Engine.universe engine in
  let g = Gen.create w.gen ~seed in
  let next = ref 0 and snapshot_bytes = ref 0 and mismatches = ref 0 in
  (* The start-up request counts: on alpha_track it is the first alpha?. *)
  let alpha_queries = ref (if w.first = "alpha?" then 1 else 0) in
  let excluded = ref 0 and replicated = ref 0 in
  let timed f =
    let t0 = Fn_obs.Clock.now_ns () in
    f ();
    excluded := !excluded + (Fn_obs.Clock.now_ns () - t0)
  in
  (* The same arms as Server.dispatch, one span per public call. *)
  let handle line =
    match span "online.parse" (fun () -> Protocol.parse ~n (Gen.wire line)) with
    | Ok (Some (Protocol.Apply evs)) -> (
      match span "online.apply" (fun () -> Engine.apply engine evs) with
      | Error e -> "err rejected " ^ Fn_faults.Churn.error_to_string e
      | Ok k ->
        (match journal with
        | Some j ->
          span "resilience.record" (fun () ->
              Fn_resilience.Journal.record_trial j ~scope:Server.scope ~index:!next
                (Event.batch_to_json evs));
          incr next;
          if compacts w !next then begin
            let snap = span "resilience.encode" (fun () -> Engine.encode_state engine) in
            if !snapshot_bytes = 0 then
              snapshot_bytes := String.length (Fn_obs.Jsonx.to_string snap);
            match
              span "resilience.compact" (fun () ->
                  Fn_resilience.Journal.compact j ~scope:Server.scope ~upto:!next ~snapshot:snap)
            with
            | Ok () -> ()
            | Error m -> Report.check false "replay compaction failed: %s" m
          end
        | None -> ());
        let reply =
          span "online.render" (fun () ->
              Printf.sprintf "ok applied=%d alive=%d" k (Engine.alive_count engine))
        in
        ignore (span "online.result" (fun () -> Engine.result engine) : Faultnet.Prune.result);
        reply)
    | Ok (Some (Protocol.Alive v)) ->
      let b = span "online.query" (fun () -> Engine.is_alive engine v) in
      span "online.render" (fun () -> "ok " ^ string_of_bool b)
    | Ok (Some (Protocol.Certificate v)) ->
      let b = span "online.query" (fun () -> Engine.in_certificate engine v) in
      span "online.render" (fun () -> "ok " ^ string_of_bool b)
    | Ok (Some Protocol.Alpha) ->
      incr alpha_queries;
      let before = (Engine.stats engine).Engine.alpha_computes in
      let a = span "online.alpha" (fun () -> Engine.alpha engine) in
      let reply = span "online.render" (fun () -> "ok " ^ Protocol.float_hex a) in
      (* The engine does not hand its sink to the estimator, so the
         expansion layer is observed by re-running the estimate the
         engine just made (Warm.reference's call) with the sink on,
         outside the timed loop, for the first [replicas] estimates. *)
      (match Engine.view engine with
      | Fn_graph.Gview.Csr csr when (Engine.stats engine).Engine.alpha_computes > before ->
        let kept = (Engine.result engine).Faultnet.Prune.kept in
        if Fn_graph.Bitset.cardinal kept >= 2 && !replicated < replicas then
          timed (fun () ->
              incr replicated;
              span "bench.replica" (fun () ->
                  let est =
                    Fn_expansion.Estimate.run ~obs:sink ~alive:kept
                      ~rng:(Fn_prng.Rng.create (daemon_seed lxor 0x0A11CE))
                      csr Fn_expansion.Cut.Node
                  in
                  if Int64.bits_of_float est.Fn_expansion.Estimate.value <> Int64.bits_of_float a
                  then incr mismatches))
      | _ -> ());
      reply
    | Ok _ | Error _ -> "err unexpected line"
  in
  let idx = ref 0 in
  let t0 = Fn_obs.Clock.now_ns () in
  for c = 1 to s.cycles do
    List.iter
      (fun line ->
        let reply = handle line in
        let want = s.replies.(!idx) in
        incr idx;
        Report.check (reply = want) "replay answered %S where the daemon answered %S" reply want)
      (Gen.cycle g);
    if c = w.checkpoint then
      timed (fun () ->
          let stats = Server.handle engine "stats?" and digest = Server.handle engine "state?" in
          Report.check
            (stats.Server.reply = Some s.checkpoint_stats)
            "checkpoint stats? differ between daemon and replay";
          Report.check
            (digest.Server.reply = Some s.checkpoint_digest)
            "checkpoint state? differs between daemon and replay";
          if journaled w then
            Report.check
              (journal_bytes path = s.checkpoint_journal)
              "checkpoint journal is %d bytes in the replay, %d in the daemon" (journal_bytes path)
              s.checkpoint_journal)
  done;
  let replay_loop_ns = Fn_obs.Clock.now_ns () - t0 - !excluded in
  let loop_events = events () in
  let loop_stats = Engine.stats engine in
  Report.check
    ((Server.handle engine "stats?").Server.reply = Some s.final_stats)
    "final stats? differ between daemon and replay";
  let audit = Engine.audit engine in
  Report.check (audit.Engine.faults = 0) "replay audit found %d faults" audit.Engine.faults;
  for _ = 1 to s.tail do
    List.iter (fun line -> ignore (handle line : string)) (Gen.cycle g)
  done;
  let state e = (Server.handle e "state?").Server.reply in
  Report.check
    (state engine = Some s.digest)
    "replay digest differs from the daemon's before the kill";
  let replayed =
    match journal with
    | None -> 0
    | Some j -> (
      Fn_resilience.Journal.close j;
      let fresh = span "online.create" (fun () -> Engine.create ~cfg view) in
      let recovered =
        span "resilience.recover" (fun () ->
            match Fn_resilience.Journal.open_ ~path ~meta with
            | Error m -> Error m
            | Ok j ->
              let from =
                match Fn_resilience.Journal.find_snapshot j ~scope:Server.scope with
                | Some (upto, _) -> upto
                | None -> 0
              in
              let r = Server.recover j fresh in
              Fn_resilience.Journal.close j;
              Result.map (fun next -> next - from) r)
      in
      match recovered with
      | Ok k ->
        Report.check
          (state fresh = Some s.digest)
          "recovered replay digest differs from the daemon's";
        k
      | Error m ->
        Report.check false "replay recovery failed: %s" m;
        0)
  in
  {
    loop_spans = Stages.spans (List.filter_map Stages.of_sink loop_events);
    all_spans = Stages.spans (List.filter_map Stages.of_sink (events ()));
    replay_loop_ns;
    alpha_queries = !alpha_queries;
    loop_stats;
    snapshot_bytes = !snapshot_bytes;
    replayed;
    replicated = !replicated;
    mismatches = !mismatches;
  }
