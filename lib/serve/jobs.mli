(** Bounded async job store: the server-side half of
    [POST /v1/solve?mode=async].

    A job holds an admission slot from submission to finish; its
    rendered response is parked here until the client collects it via
    [GET /v1/jobs/<id>] or its TTL expires. The store is bounded by
    [capacity] (a full store refuses new jobs) and sweeps expired
    finished entries lazily on every operation. Cancellation is
    cooperative through the job's {!Soctest_core.Budget}.

    All operations are thread-safe (one internal lock); entries are
    never exposed mutable — callers observe jobs through {!view}. *)

type outcome = { status : int; body : string }
(** The rendered HTTP response the sync path would have written. *)

type state = Queued | Running | Done of outcome | Cancelled

val state_name : state -> string

type entry
(** Live handle used by the worker that owns the job's execution. *)

type t

val default_capacity : int
(** 256 retained jobs. *)

val default_ttl_ms : float
(** 5 minutes of post-finish retention. *)

val create : ?capacity:int -> ?ttl_ms:float -> unit -> t

val capacity : t -> int
val ttl_ms : t -> float

val submit :
  t ->
  id:string ->
  request_id:string ->
  budget:Soctest_core.Budget.t ->
  (entry, [ `Full ]) result
(** Register a queued job. [`Full] when the store is at capacity even
    after evicting expired and oldest-finished entries — the caller
    should answer 503. *)

val start : t -> entry -> bool
(** Queued -> Running, stamping the start time. [false] if the job was
    cancelled (or otherwise finished) before a worker picked it up —
    the worker must skip the solve and release its admission slot. *)

val finish : t -> entry -> outcome -> unit
(** Running -> Done (or Cancelled, when a cancel landed mid-solve — the
    degraded result is discarded). No-op in any other state. *)

val cancel :
  t ->
  string ->
  [ `Cancelled  (** was queued; finished immediately *)
  | `Cancelling  (** running; budget cancelled, solve winding down *)
  | `Already_finished of string  (** terminal; argument is the state *)
  | `Unknown ]
(** Cancel by id. Cooperative for running jobs: the engine polls the
    budget between evaluations. *)

(** {1 Introspection} *)

type view = {
  v_id : string;
  v_request_id : string;
  v_state : string;  (** {!state_name} of the state at observation *)
  v_outcome : outcome option;  (** [Some] iff state is done *)
  v_age_ms : float;  (** since submission *)
  v_wait_ms : float;  (** submission to solve start (or to now/finish) *)
  v_run_ms : float option;  (** solve start to finish (or to now) *)
}

val find : t -> string -> view option
(** Consistent snapshot of one job; [None] for unknown or TTL-evicted
    ids. *)
