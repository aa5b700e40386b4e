(* A `soctest serve` child process and the one kept-alive connection
   the load comes over. *)

module Client = Soctest_serve.Serve_client

type t = { pid : int; out : in_channel; client : Client.t }

let start ~soctest ~store ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let argv =
    [|
      soctest; "serve"; "--port"; "0"; "--workers"; "1"; "--store"; store;
      (* one connection carries the whole run *)
      "--max-conn-requests"; "1000000000"; "--idle-timeout-ms"; "600000";
    |]
  in
  let pid = Unix.create_process soctest argv Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line out with
    | exception End_of_file ->
      ignore (Unix.waitpid [] pid);
      failwith ("daemon exited before announcing its port; see " ^ log)
    | line -> (
      match
        Scanf.sscanf_opt line "soctest serve: listening on 127.0.0.1:%d" Fun.id
      with
      | Some p -> p
      | None -> port ())
  in
  let port = port () in
  { pid; out; client = Client.connect ~port ~timeout_ms:120_000. () }

let stop t =
  Client.close t.client;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (* the banner pipe stays open until exit; drain it so the child never
     blocks on a full pipe while shutting down *)
  (try
     while true do
       ignore (input_line t.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr t.out;
  match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> failwith "daemon did not shut down cleanly"

let solve t body = Client.call t.client ~body "/v1/solve"

(* Counters of the Prometheus exposition, by full series name. *)
let counters t =
  let r = Client.call t.client "/metrics" in
  if r.Client.status <> 200 then failwith "GET /metrics failed";
  String.split_on_char '\n' r.Client.body
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             Option.map
               (fun v -> (String.sub line 0 i, v))
               (float_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1))))

(* Round trip of the cheapest request on the live connection. *)
let healthz_ms t =
  let t0 = Soctest_obs.Clock.now_ms () in
  let r = Client.call t.client "/healthz" in
  if r.Client.status <> 200 then failwith "GET /healthz failed";
  Soctest_obs.Clock.now_ms () -. t0

(* The daemon's peak resident set (VmHWM), MiB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc status"
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.
      | None -> go ())
  in
  go ()
