(** A [soctest serve --workers 1 --store FILE] child process, driven
    over one kept-alive connection. *)

type t

val start : soctest:string -> store:string -> log:string -> t
(** Spawn the daemon (stderr appended to [log]) and wait for its
    listening banner. *)

val stop : t -> unit
(** SIGTERM, then wait for the drained exit.
    @raise Failure when it exits uncleanly. *)

val solve : t -> string -> Soctest_serve.Serve_client.response
(** [POST /v1/solve] with the given body. *)

val counters : t -> (string * float) list
(** Every sample of [GET /metrics], keyed by series name with labels. *)

val healthz_ms : t -> float
(** Round-trip time of one [GET /healthz]. *)

val peak_rss_mb : t -> float
(** The daemon's VmHWM. *)
