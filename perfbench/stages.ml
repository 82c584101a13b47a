(* Span bookkeeping for the traced runs: rebuild spans from enter/exit
   events (an in-memory sink or a JSONL trace file) and total each
   name's self time, its duration minus the part its child spans
   cover. *)

type span = {
  name : string;
  id : int;
  parent : int;
  start_ns : int;
  mutable stop_ns : int;
  mutable iterations : int;  (** the [iterations] field of the exit event *)
  mutable child_ns : int;
}

type stat = { calls : int; total_ns : int; self_ns : int; iterations : int }

let empty = { calls = 0; total_ns = 0; self_ns = 0; iterations = 0 }

type event = { ts : int; enter : bool; name : string; id : int; parent : int; iters : int }

let of_sink (e : Fn_obs.Sink.event) =
  let iters =
    match List.assoc_opt "iterations" e.fields with Some (Fn_obs.Sink.Int k) -> k | _ -> 0
  in
  match e.kind with
  | Fn_obs.Sink.Enter ->
    Some { ts = e.ts_ns; enter = true; name = e.name; id = e.id; parent = e.parent; iters }
  | Fn_obs.Sink.Exit ->
    Some { ts = e.ts_ns; enter = false; name = e.name; id = e.id; parent = e.parent; iters }
  | Fn_obs.Sink.Instant -> None

let of_json j =
  let open Fn_obs.Jsonx in
  let int k = match member k j with Some (Int v) -> v | _ -> -1 in
  let iters =
    match member "fields" j with
    | Some f -> (match member "iterations" f with Some (Int k) -> k | _ -> 0)
    | None -> 0
  in
  match (member "kind" j, member "name" j) with
  | Some (Str kind), Some (Str name) when kind = "enter" || kind = "exit" ->
    Some
      { ts = int "ts"; enter = kind = "enter"; name; id = int "id"; parent = int "parent"; iters }
  | _ -> None

let events_of_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> (
          match Option.bind (Fn_obs.Jsonx.parse l) of_json with
          | Some e -> go (e :: acc)
          | None -> go acc)
      in
      go [])

(* Closed spans in start order. *)
let spans events =
  let open_ = Hashtbl.create 64 in
  let closed = ref [] in
  List.iter
    (fun (e : event) ->
      if e.enter then
        Hashtbl.replace open_ e.id
          {
            name = e.name;
            id = e.id;
            parent = e.parent;
            start_ns = e.ts;
            stop_ns = e.ts;
            iterations = 0;
            child_ns = 0;
          }
      else
        match Hashtbl.find_opt open_ e.id with
        | None -> ()
        | Some s ->
          s.stop_ns <- e.ts;
          s.iterations <- e.iters;
          closed := s :: !closed)
    events;
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : span) -> Hashtbl.replace by_id s.id s) !closed;
  List.iter
    (fun (s : span) ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p -> p.child_ns <- p.child_ns + (s.stop_ns - s.start_ns)
      | None -> ())
    !closed;
  List.sort (fun (a : span) b -> compare a.start_ns b.start_ns) !closed

(* name -> stat *)
let by_name spans =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let d = s.stop_ns - s.start_ns in
      let st = Option.value (Hashtbl.find_opt t s.name) ~default:empty in
      Hashtbl.replace t s.name
        {
          calls = st.calls + 1;
          total_ns = st.total_ns + d;
          self_ns = st.self_ns + d - s.child_ns;
          iterations = st.iterations + s.iterations;
        })
    spans;
  t

let get t name = Option.value (Hashtbl.find_opt t name) ~default:empty

(* Every span name not in [names], folded into one row, so a table
   stays complete when the program gains a span. *)
let others t names =
  Hashtbl.fold
    (fun n (s : stat) a ->
      if List.mem n names then a
      else
        {
          calls = a.calls + s.calls;
          total_ns = a.total_ns + s.total_ns;
          self_ns = a.self_ns + s.self_ns;
          iterations = a.iterations + s.iterations;
        })
    t empty

(* Several span names folded into one layer. *)
let sum t names =
  List.fold_left
    (fun a n ->
      let s = get t n in
      {
        calls = a.calls + s.calls;
        total_ns = a.total_ns + s.total_ns;
        self_ns = a.self_ns + s.self_ns;
        iterations = a.iterations + s.iterations;
      })
    empty names

let self_per_call s = if s.calls = 0 then 0.0 else float_of_int s.self_ns /. float_of_int s.calls

(* The stage table: one row per layer with its self time and share of
   [wall_ns]; returns the rows' sum over [wall_ns], and counts a sum
   more than 10% away from [wall_ns] as a failed check. *)
let table ~title ~wall_ns rows =
  Printf.printf "stage table: %s (wall %.3f s)\n" title (float_of_int wall_ns /. 1e9);
  let total =
    List.fold_left
      (fun acc (name, s) ->
        Printf.printf "  %-28s %9d calls %10.3f ms self %6.1f%%\n" name s.calls
          (float_of_int s.self_ns /. 1e6)
          (100.0 *. float_of_int s.self_ns /. float_of_int (max 1 wall_ns));
        acc + s.self_ns)
      0 rows
  in
  let frac = float_of_int total /. float_of_int (max 1 wall_ns) in
  Printf.printf "  %-28s %10s %16.3f ms self %6.1f%%\n" "sum" "" (float_of_int total /. 1e6)
    (100.0 *. frac);
  Report.check
    (Float.abs (frac -. 1.0) <= 0.10)
    "stage table %S sums to %.1f%% of its wall time, not within 10%%" title (100.0 *. frac);
  frac
