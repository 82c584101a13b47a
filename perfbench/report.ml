(* Failure accounting, order statistics, per-seed records and the
   result line. *)

let attempted = ref 0
let failed = ref 0

(* One operation attempted; [ok = false] counts it as failed and prints
   why. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

(* Linear interpolation between closest ranks, [p] in [0, 100]. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile of no samples";
  let x = p /. 100.0 *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = percentile samples 50.0
let ms_of_ns ns = float_of_int ns /. 1e6

let line name value unit_ = Printf.printf "  %-24s %14.4f %s\n" name value unit_

(* Identifies the code under test: a digest of the given executables.
   Records are only compared between runs of the same build, so a
   change that legitimately moves a counter is never checked against
   the record of another build. *)
let build_id exes =
  String.sub
    (Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file exes))))
    0 16

(* Facts that must repeat exactly for a seed (counters, digests, byte
   counts) are kept per workload, seed, trace mode and build under
   [dir]; a later run of the same build with the same seed must agree
   on every key both runs recorded. *)
let record ~dir ~key ~build facts =
  let path = Filename.concat dir (key ^ "-" ^ build ^ ".txt") in
  let old =
    match open_in path with
    | exception Sys_error _ -> []
    | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> acc
        | l -> (
          match String.index_opt l '=' with
          | Some i -> go ((String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1)) :: acc)
          | None -> go acc)
      in
      let kv = go [] in
      close_in ic;
      kv
  in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k old with
      | Some v0 -> check (v0 = v) "%s differs from an earlier run of this seed: %s vs %s" k v v0
      | None -> ())
    facts;
  let merged = facts @ List.filter (fun (k, _) -> not (List.mem_assoc k facts)) old in
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s=%s\n" k v) merged;
  close_out oc;
  List.iter (fun (k, v) -> Printf.printf "  record %s = %s\n" k v) facts

(* The last stdout line: correctness, counts and the metrics. *)
let emit metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric value"
  in
  let fields =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (String.concat ", " fields)
