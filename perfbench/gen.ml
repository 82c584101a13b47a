(* Seeded churn sessions for the daemon workloads.

   The generator keeps its own mirror of the fault mask and draws every
   batch against it: a fault only hits a node the mirror has alive, a
   repair only a node the mirror has faulty, and no node appears twice
   in one batch.  Each batch is therefore valid for the daemon, and the
   mirror is an oracle for [alive?] that shares no code with the
   engine.  Randomness is a local SplitMix64, so the inputs depend only
   on the seed, never on the program under test. *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.(logxor (of_int seed) 0x5DEECE66DL) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let below r k = Int64.(to_int (unsigned_rem (next r) (of_int k)))

type spec = {
  n : int;  (** universe *)
  batch : int;  (** events per apply *)
  probes : int;  (** alive?/certificate? lines after each apply *)
  target : int;  (** fault count the churn hovers around *)
  alpha : bool;  (** send one alpha? after the probes *)
}

type line =
  | Apply of string * int  (** wire line, events *)
  | Alive of string * int  (** wire line, node *)
  | Cert of string * int
  | Alpha

type t = {
  spec : spec;
  r : rng;
  faulty : Bytes.t;  (** mirror: '\001' = faulty *)
  list : int array;  (** faulty nodes, first [count] slots *)
  pos : int array;  (** slot of a faulty node in [list] *)
  mutable count : int;
  touched : int array;  (** batch stamp per node, for distinctness *)
  mutable stamp : int;
  mutable last : int array;  (** nodes of the latest batch *)
}

let create spec ~seed =
  {
    spec;
    r = rng seed;
    faulty = Bytes.make spec.n '\000';
    list = Array.make spec.n 0;
    pos = Array.make spec.n (-1);
    count = 0;
    touched = Array.make spec.n 0;
    stamp = 0;
    last = [||];
  }

let is_faulty g v = Bytes.get g.faulty v = '\001'
let fault_count g = g.count

let set_faulty g v =
  Bytes.set g.faulty v '\001';
  g.list.(g.count) <- v;
  g.pos.(v) <- g.count;
  g.count <- g.count + 1

let set_alive g v =
  let i = g.pos.(v) in
  let last = g.list.(g.count - 1) in
  g.list.(i) <- last;
  g.pos.(last) <- i;
  g.pos.(v) <- -1;
  g.count <- g.count - 1;
  Bytes.set g.faulty v '\000'

(* One batch: below the target fault count 4 in 5 events are faults,
   above it 1 in 5, so the mask ramps up and then hovers.  Draws retry
   until they hit a node of the wanted state not yet in this batch; the
   mirror moves only after the whole batch is drawn, because the daemon
   validates a batch against the mask as it was before it. *)
let batch g =
  g.stamp <- g.stamp + 1;
  let s = g.spec in
  let nodes = Array.make s.batch 0 in
  let faults = Array.make s.batch false in
  let repairs = ref 0 in
  for i = 0 to s.batch - 1 do
    let p = if g.count < s.target then 4 else 1 in
    let fault = below g.r 5 < p || !repairs = g.count in
    let rec draw () =
      let v = if fault then below g.r s.n else g.list.(below g.r g.count) in
      if g.touched.(v) = g.stamp || (fault && is_faulty g v) then draw () else v
    in
    let v = draw () in
    g.touched.(v) <- g.stamp;
    nodes.(i) <- v;
    faults.(i) <- fault;
    if not fault then incr repairs
  done;
  let b = Buffer.create (8 * s.batch) in
  Buffer.add_string b "apply";
  Array.iteri
    (fun i v ->
      Buffer.add_string b (if faults.(i) then " f" else " r");
      Buffer.add_string b (string_of_int v);
      if faults.(i) then set_faulty g v else set_alive g v)
    nodes;
  g.last <- nodes;
  Apply (Buffer.contents b, s.batch)

(* Probes after a batch: half aimed at the nodes the batch touched,
   half uniform.  The first probe is always [certificate?], so every
   batch's cascade is computed by the daemon before the next batch. *)
let probes g =
  List.init g.spec.probes (fun j ->
      let v =
        if j mod 4 < 2 && Array.length g.last > 0 then
          g.last.(below g.r (Array.length g.last))
        else below g.r g.spec.n
      in
      if j mod 2 = 0 then Cert (Printf.sprintf "certificate? %d" v, v)
      else Alive (Printf.sprintf "alive? %d" v, v))

(* One client cycle: the apply, its probes, then [alpha?] if asked. *)
let cycle g =
  let a = batch g in
  let ps = probes g in
  (a :: ps) @ if g.spec.alpha then [ Alpha ] else []

let wire = function
  | Apply (l, _) | Alive (l, _) | Cert (l, _) -> l
  | Alpha -> "alpha?"
