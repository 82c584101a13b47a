(* A faultnetd process behind a stdin/stdout pipe, driven by one
   closed-loop client: each request waits for its reply before the
   next is written, as the line protocol assumes. *)

type t = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  spawned_ns : int;
  mutable reaped : bool;
}

(* Every daemon still running; reaped on exit whatever the path. *)
let running : t list ref = ref []

let reap t =
  if not t.reaped then begin
    t.reaped <- true;
    (try close_out t.oc with Sys_error _ -> ());
    (try close_in t.ic with Sys_error _ -> ());
    ignore (Unix.waitpid [] t.pid : int * Unix.process_status);
    running := List.filter (fun d -> d != t) !running
  end

let kill9 t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t
  end

let () = at_exit (fun () -> List.iter kill9 !running)

let spawn exe args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let spawned_ns = Fn_obs.Clock.now_ns () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let t =
    {
      pid;
      ic = Unix.in_channel_of_descr out_r;
      oc = Unix.out_channel_of_descr in_w;
      spawned_ns;
      reaped = false;
    }
  in
  running := t :: !running;
  t

exception Died of string

(* Send one line and wait for its reply; returns the reply and the
   round trip in ns. *)
let request t line =
  let t0 = Fn_obs.Clock.now_ns () in
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  match input_line t.ic with
  | reply -> (reply, Fn_obs.Clock.now_ns () - t0)
  | exception End_of_file -> raise (Died (Printf.sprintf "faultnetd exited on %S" line))

let quit t =
  ignore (request t "quit" : string * int);
  reap t

(* Peak resident set of the process, from /proc (Linux). *)
let peak_rss_kb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* This process's Cpus_allowed_list from /proc (Linux), as written
   there, or "?" where it cannot be read. *)
let cpus_allowed () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> "?"
  | ic ->
    let prefix = "Cpus_allowed_list:" in
    let k = String.length prefix in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "?"
      | l when String.length l > k && String.sub l 0 k = prefix ->
        String.trim (String.sub l k (String.length l - k))
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan
