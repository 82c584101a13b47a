(* Self-test of the session generator, run at the start of every
   benchmark run.  It checks that a seed fixes the session, that every
   batch is valid against a model rebuilt from the wire lines alone,
   and that an in-process engine accepts the session and agrees with
   that model on every [alive?]. *)

let spec = { Gen.n = 256; batch = 16; probes = 4; target = 40; alpha = false }
let cycles = 200

let session seed =
  let g = Gen.create spec ~seed in
  List.concat (List.init cycles (fun _ -> Gen.cycle g))

(* Failure messages; empty when the generator is sound. *)
let run () =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let a = session 7 in
  if List.map Gen.wire a <> List.map Gen.wire (session 7) then
    fail "same seed gave two sessions";
  if List.map Gen.wire a = List.map Gen.wire (session 8) then
    fail "two seeds gave one session";
  let faulty = Array.make spec.n false in
  let peak = ref 0 in
  let view =
    match Fn_online.Server.view_of_spec (Fn_prng.Rng.create 1) "torus:16x16" with
    | Ok v -> v
    | Error m -> failwith m
  in
  let engine = Fn_online.Engine.create view in
  List.iter
    (fun line ->
      match line with
      | Gen.Apply (l, k) ->
        let seen = Hashtbl.create 16 in
        let toks = List.tl (String.split_on_char ' ' l) in
        if List.length toks <> k then fail "batch %S has %d events, not %d" l (List.length toks) k;
        List.iter
          (fun tok ->
            let v = int_of_string (String.sub tok 1 (String.length tok - 1)) in
            if Hashtbl.mem seen v then fail "node %d twice in %S" v l;
            Hashtbl.replace seen v ();
            match tok.[0] with
            | 'f' when not faulty.(v) -> ()
            | 'r' when faulty.(v) -> ()
            | _ -> fail "invalid event %s in %S" tok l)
          toks;
        List.iter
          (fun tok ->
            let v = int_of_string (String.sub tok 1 (String.length tok - 1)) in
            faulty.(v) <- tok.[0] = 'f')
          toks;
        peak := max !peak (Array.fold_left (fun c b -> if b then c + 1 else c) 0 faulty);
        (match Fn_online.Protocol.parse ~n:spec.n l with
        | Ok (Some (Fn_online.Protocol.Apply evs)) -> (
          match Fn_online.Engine.apply engine evs with
          | Ok applied when applied = k -> ()
          | Ok applied -> fail "engine applied %d of %d events" applied k
          | Error e -> fail "engine rejected %S: %s" l (Fn_faults.Churn.error_to_string e))
        | _ -> fail "unparsable %S" l)
      | Gen.Alive (_, v) ->
        if Fn_online.Engine.is_alive engine v = faulty.(v) then fail "alive? %d disagrees" v
      | Gen.Cert (_, v) ->
        if Fn_online.Engine.in_certificate engine v && faulty.(v) then
          fail "faulty node %d in the certificate" v
      | Gen.Alpha -> ())
    a;
  if !peak > spec.target + spec.batch then
    fail "fault count reached %d, target %d" !peak spec.target;
  if !peak < spec.target then fail "fault count never reached target %d" spec.target;
  List.rev !fails
