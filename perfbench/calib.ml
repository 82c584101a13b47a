(* Host-speed reference.

   The host shares its cores and caches with other machines' work, and
   the same computation has been measured up to twice as slow for
   seconds to minutes at a time.  A fixed reference computation that
   uses only the standard library, so that no change to the program
   can move it, is timed every half second of a run.  Each timed
   operation is then scaled by [reference_ms] over the median of the
   three reference times measured nearest to it.  The figures are those
   of a host on which the reference takes [reference_ms]; a change to
   the program still moves them by its own share. *)

(* The reference's time on a 2.1 GHz Xeon (2 vCPUs) in a quiet spell. *)
let reference_ms = 15.0

let every_ns = 500_000_000

(* Hashing, allocation and cache misses, as in the engine's surveys,
   then float sweeps over an L2-sized array, as in the spectral
   matvecs.  Returns a checksum so nothing is optimised away. *)
let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 50_000 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) i
  done;
  let s = ref 0 in
  for i = 0 to 50_000 do
    match Hashtbl.find_opt h ((i * 104729) land 0xfffff) with Some v -> s := !s + v | None -> ()
  done;
  let n = 65536 in
  let x = Array.init n (fun i -> float_of_int (i land 1023) /. 1024.0) in
  let y = Array.make n 0.0 in
  for _ = 1 to 20 do
    for i = 1 to n - 2 do
      y.(i) <- (x.(i - 1) +. x.(i + 1) +. (2.0 *. x.(i))) *. 0.25
    done;
    Array.blit y 1 x 1 (n - 2)
  done;
  !s + int_of_float (1e6 *. x.(n / 2))

type t = {
  mutable samples : (int * float) list;  (** mid-point stamp in ns, ms; newest first *)
  mutable last : int;
  mutable spent_ns : int;  (** time spent in the reference, to leave out of rates *)
  mutable frozen : (int * float) array option;
}

let create () = { samples = []; last = min_int; spent_ns = 0; frozen = None }

let sample t =
  let t0 = Fn_obs.Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  let t1 = Fn_obs.Clock.now_ns () in
  t.samples <- ((t0 + t1) / 2, Report.ms_of_ns (t1 - t0)) :: t.samples;
  t.last <- t1;
  t.spent_ns <- t.spent_ns + (t1 - t0);
  t.frozen <- None

(* Sample if half a second has passed since the last sample. *)
let tick t = if Fn_obs.Clock.now_ns () - t.last >= every_ns then sample t

let samples_ms t = List.map snd t.samples

(* [reference_ms] over the median of the (up to) three samples nearest
   to [at]. *)
let factor t at =
  let a =
    match t.frozen with
    | Some a -> a
    | None ->
      let a = Array.of_list (List.rev t.samples) in
      t.frozen <- Some a;
      a
  in
  let n = Array.length a in
  if n = 0 then invalid_arg "Calib.factor: no samples";
  (* First sample at or after [at]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst a.(mid) < at then search (mid + 1) hi else search lo mid
  in
  let i = search 0 n in
  let near =
    List.filter (fun j -> j >= 0 && j < n) [ i - 2; i - 1; i; i + 1 ]
    |> List.sort (fun j k -> compare (abs (fst a.(j) - at)) (abs (fst a.(k) - at)))
    |> List.filteri (fun r _ -> r < 3)
  in
  reference_ms /. Report.median (List.map (fun j -> snd a.(j)) near)

(* Times stamped with the moment they were taken, scaled to the
   reference host. *)
let time t stamped = List.map (fun (at, v) -> v *. factor t at) stamped
