module Json = Soctest_obs.Json
module Clock = Soctest_obs.Clock

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type error =
  | Timeout
  | Http of int * string
  | Decode of string
  | Conn of exn

exception Error of error

let error_message = function
  | Timeout -> "timed out"
  | Http (status, body) ->
    let body =
      if String.length body > 200 then String.sub body 0 200 ^ "..." else body
    in
    Printf.sprintf "unexpected HTTP %d: %s" status body
  | Decode msg -> "malformed response: " ^ msg
  | Conn exn -> "connection failed: " ^ Printexc.to_string exn

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Serve_client: " ^ error_message e)
    | _ -> None)

let err e = raise (Error e)
let decode_err fmt = Printf.ksprintf (fun m -> err (Decode m)) fmt

(* ------------------------------------------------------------------ *)
(* the reusable client *)

type t = {
  host : string;
  port : int;
  addr : Unix.inet_addr;
  timeout_ms : float;
  mutable sock : Unix.file_descr option;  (* the kept-alive connection *)
  mutable sock_used : bool;  (* a response has been read on [sock] *)
  mutable residual : string;  (* bytes read past the previous response *)
}

let connect ?(host = "127.0.0.1") ?(timeout_ms = 30_000.) ~port () =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> decode_err "bad host %S" host
  in
  { host; port; addr; timeout_ms; sock = None; sock_used = false;
    residual = "" }

let drop_sock t =
  (match t.sock with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.sock <- None;
  t.sock_used <- false;
  t.residual <- ""

let close = drop_sock

(* [false]: the socket was freshly connected for this exchange —
   a failure on it is a real error, not a stale kept-alive socket. *)
let ensure_sock t ~timeout_ms =
  match t.sock with
  | Some fd -> (fd, t.sock_used)
  | None ->
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    (try
       Unix.setsockopt_float fd SO_RCVTIMEO (timeout_ms /. 1000.);
       Unix.setsockopt_float fd SO_SNDTIMEO (timeout_ms /. 1000.);
       (* request/response over a kept-alive socket must not trip the
          Nagle + delayed-ACK stall *)
       Unix.setsockopt fd TCP_NODELAY true;
       Unix.connect fd (ADDR_INET (t.addr, t.port))
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       err (Conn e));
    t.sock <- Some fd;
    t.sock_used <- false;
    (fd, false)

let request_string t ~meth ~path ~body ~headers =
  let payload = Option.value body ~default:"" in
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: \
     application/json\r\nContent-Length: %d\r\n%sConnection: \
     keep-alive\r\n\r\n%s"
    meth path t.host t.port (String.length payload) extra payload

let write_all fd s =
  let n = String.length s in
  let rec push off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> push (off + written)
      | exception Unix.Unix_error (EINTR, _, _) -> push off
  in
  try push 0 with
  | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> err Timeout
  | Unix.Unix_error _ as e -> err (Conn e)

(* Read one Content-Length-framed response off the socket, starting
   from (and refilling) the client's residual buffer — the keep-alive
   framing mirror of {!Http.read_request}. *)
let read_response t fd =
  let buf = Bytes.create 8192 in
  let acc = Buffer.create 4096 in
  Buffer.add_string acc t.residual;
  t.residual <- "";
  let eof = ref false in
  let fill_once () =
    if !eof then decode_err "truncated response"
    else
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | n -> Buffer.add_subbytes acc buf 0 n
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        err Timeout
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
        eof := true
      | exception (Unix.Unix_error _ as e) -> err (Conn e)
  in
  let rec head () =
    match Http.find_header_end (Buffer.contents acc) with
    | Some split -> split
    | None ->
      if !eof then
        if Buffer.length acc = 0 then
          (* nothing at all: the peer closed the kept-alive socket *)
          err (Conn End_of_file)
        else decode_err "truncated response (no header terminator)"
      else begin
        fill_once ();
        head ()
      end
  in
  let split = head () in
  let section = String.sub (Buffer.contents acc) 0 split in
  let status, headers =
    match Http.header_lines section with
    | [] -> decode_err "empty response"
    | status_line :: header_rows ->
      let status =
        match String.split_on_char ' ' status_line with
        | version :: code :: _
          when String.length version >= 5 && String.sub version 0 5 = "HTTP/"
          -> (
          match int_of_string_opt code with
          | Some c -> c
          | None -> decode_err "bad status code %S" code)
        | _ -> decode_err "bad status line %S" status_line
      in
      let split_header line =
        match String.index_opt line ':' with
        | None -> decode_err "malformed header %S" line
        | Some i ->
          ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          )
      in
      (status, List.map split_header header_rows)
  in
  let body =
    match List.assoc_opt "content-length" headers with
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 ->
        let wanted = split + n in
        while Buffer.length acc < wanted do
          fill_once ()
        done;
        let all = Buffer.contents acc in
        t.residual <- String.sub all wanted (String.length all - wanted);
        String.sub all split n
      | _ -> decode_err "bad content-length %S" v)
    | None ->
      (* no framing: EOF delimits (the server always sends a length;
         this is for non-conformant peers) *)
      while not !eof do
        fill_once ()
      done;
      let all = Buffer.contents acc in
      String.sub all split (String.length all - split)
  in
  let keep =
    match List.assoc_opt "connection" headers with
    | Some v -> String.lowercase_ascii v <> "close"
    | None -> true
  in
  if not keep then drop_sock t else t.sock_used <- true;
  { status; headers; body }

exception Retry  (* stale kept-alive socket: reconnect and try again *)

(* One exchange with transparent reuse: a kept-alive socket the server
   quietly closed (idle timeout, request budget) fails the first
   read — retry once on a fresh connection. A failure on a fresh
   connection is never retried: the server really is unreachable (and
   a request that reached a live server gets an answer, not a dropped
   socket, so the retry cannot double-execute against a healthy
   server). *)
let call t ?meth ?body ?(headers = []) ?timeout_ms path =
  let meth =
    match (meth, body) with
    | Some m, _ -> String.uppercase_ascii m
    | None, Some _ -> "POST"
    | None, None -> "GET"
  in
  let timeout_ms = Option.value timeout_ms ~default:t.timeout_ms in
  let exchange () =
    let fd, reused = ensure_sock t ~timeout_ms in
    Unix.setsockopt_float fd SO_RCVTIMEO (timeout_ms /. 1000.);
    Unix.setsockopt_float fd SO_SNDTIMEO (timeout_ms /. 1000.);
    try write_all fd (request_string t ~meth ~path ~body ~headers);
        read_response t fd
    with Error _ as e ->
      drop_sock t;
      if reused then raise Retry else raise e
  in
  try exchange () with Retry -> exchange ()

(* Pipelined burst: write every request in one send, then collect the
   responses in order off the same socket. No mid-burst retry — a
   failure after the first response would re-execute earlier requests;
   a stale kept-alive socket (nothing read yet) does reconnect once. *)
let pipeline t ?timeout_ms specs =
  let timeout_ms = Option.value timeout_ms ~default:t.timeout_ms in
  let exchange () =
    let fd, reused = ensure_sock t ~timeout_ms in
    Unix.setsockopt_float fd SO_RCVTIMEO (timeout_ms /. 1000.);
    Unix.setsockopt_float fd SO_SNDTIMEO (timeout_ms /. 1000.);
    let batch =
      String.concat ""
        (List.map
           (fun (meth, path, body) ->
             request_string t ~meth ~path ~body ~headers:[])
           specs)
    in
    let read_any = ref false in
    try
      write_all fd batch;
      List.map
        (fun _ ->
          let r = read_response t fd in
          read_any := true;
          r)
        specs
    with Error _ as e ->
      drop_sock t;
      if reused && not !read_any then raise Retry else raise e
  in
  try exchange () with Retry -> exchange ()

(* ------------------------------------------------------------------ *)
(* one-shot convenience (fresh connection per call, like serve v1) *)

let request ~port ?host ?meth ?body ?headers ?timeout_ms path =
  let t = connect ?host ?timeout_ms ~port () in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () -> call t ?meth ?body ?headers path)

let get ~port path = request ~port path
let post ~port ~body path = request ~port ~body path

let json_body r =
  match Json.parse r.body with
  | Ok v -> v
  | Error msg -> decode_err "response is not JSON: %s" msg

(* ------------------------------------------------------------------ *)
(* async job helpers *)

let job_state_of_body body =
  match Json.parse body with
  | Ok (Json.Obj _ as obj) -> (
    match Json.member "state" obj with
    | Some (Json.String s) -> Some s
    | _ -> None)
  | _ -> None

let solve_async t ~body =
  let r = call t ~meth:"POST" ~body "/v1/solve?mode=async" in
  if r.status <> 202 then err (Http (r.status, r.body));
  match Json.parse r.body with
  | Ok (Json.Obj _ as obj) -> (
    match Json.member "job_id" obj with
    | Some (Json.String id) -> id
    | _ -> decode_err "202 body without job_id: %s" r.body)
  | _ -> decode_err "202 body is not JSON: %s" r.body

let job_status t id = call t ("/v1/jobs/" ^ id)
let cancel_job t id = call t ~meth:"DELETE" ("/v1/jobs/" ^ id)

let await_job ?(poll_ms = 20.) ?(timeout_ms = 30_000.) t id =
  let deadline = Clock.now_ms () +. timeout_ms in
  let rec poll () =
    let r = job_status t id in
    match job_state_of_body r.body with
    | Some ("queued" | "running") when r.status = 200 ->
      if Clock.now_ms () > deadline then err Timeout;
      Unix.sleepf (poll_ms /. 1000.);
      poll ()
    | _ -> r  (* the replayed result, a cancelled doc, or a 404 *)
  in
  poll ()
