(** Blocking HTTP client for the scheduling service — what
    [soctest jobs], the solvebench load generator, the serve smoke tests
    and the unit tests speak. Not a general HTTP client:
    loopback-oriented, no redirects, no chunked transfer, no TLS.

    A {!t} holds one kept-alive connection and reuses it transparently
    across {!call}s: responses are [Content-Length]-framed, a
    [Connection: close] from the server drops the cached socket, and a
    kept-alive socket the server quietly closed between requests (idle
    timeout, per-connection request budget) is retried {e once} on a
    fresh connection. A failure on a freshly-connected socket is never
    retried — the server really is unreachable, and a request that
    reached a live server is answered, not dropped, so the retry cannot
    double-execute.

    Transport and framing failures raise {!Error} (a typed variant, not
    a stringly [Failure]); HTTP error {e statuses} are returned in the
    {!response} — only the async helpers, which must interpret the
    status to proceed, raise [Http]. *)

type response = {
  status : int;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type error =
  | Timeout  (** socket timeout (send, receive, or {!await_job}) *)
  | Http of int * string
      (** a helper needed success and got this status/body *)
  | Decode of string  (** malformed response framing or JSON *)
  | Conn of exn  (** connect/read/write failed at the OS level *)

exception Error of error
(** Registered with [Printexc] — prints as ["Serve_client: ..."]. *)

val error_message : error -> string

(** {1 Reusable connections} *)

type t

val connect : ?host:string -> ?timeout_ms:float -> port:int -> unit -> t
(** A client for [host:port] (default 127.0.0.1, 30 s timeouts). The
    TCP connection is established lazily on first {!call}. *)

val close : t -> unit
(** Drop the cached connection (idempotent). The client remains usable;
    the next {!call} reconnects. *)

val call :
  t ->
  ?meth:string ->
  ?body:string ->
  ?headers:(string * string) list ->
  ?timeout_ms:float ->
  string ->
  response
(** One request over the cached connection (reconnecting and retrying
    once if it went stale). [meth] defaults to [GET], or [POST] when
    [body] is given; [timeout_ms] overrides the client default for this
    call.
    @raise Error on transport or framing failure. *)

val pipeline :
  t -> ?timeout_ms:float -> (string * string * string option) list ->
  response list
(** [pipeline t specs] writes every [(meth, path, body)] request in one
    batch on the kept-alive socket, then reads the responses back in
    order. A stale cached socket (nothing read yet) reconnects and
    rewrites the batch once; after the first response has arrived a
    failure propagates instead — re-sending would double-execute.
    @raise Error on transport or framing failure. *)

(** {1 One-shot convenience}

    A fresh connection per call, closed after — the serve-v1 calling
    convention, kept for callers that talk to a server once. *)

val request :
  port:int ->
  ?host:string ->
  ?meth:string ->
  ?body:string ->
  ?headers:(string * string) list ->
  ?timeout_ms:float ->
  string ->
  response

val get : port:int -> string -> response
val post : port:int -> body:string -> string -> response

val json_body : response -> Soctest_obs.Json.t
(** Parse the response body as JSON.
    @raise Error ([Decode]) when it is not valid JSON. *)

(** {1 Async jobs} *)

val solve_async : t -> body:string -> string
(** [POST /v1/solve?mode=async]; returns the job id from the 202.
    @raise Error ([Http]) on any other status. *)

val job_status : t -> string -> response
(** [GET /v1/jobs/<id>] — a status document while queued/running, the
    replayed solve response once done. *)

val cancel_job : t -> string -> response
(** [DELETE /v1/jobs/<id>]. *)

val await_job : ?poll_ms:float -> ?timeout_ms:float -> t -> string -> response
(** Poll {!job_status} (every [poll_ms], default 20) until the job
    leaves queued/running, and return that final response — the
    replayed result, a cancelled status document, or a 404 if the job
    expired mid-poll.
    @raise Error ([Timeout]) after [timeout_ms] (default 30 s). *)
