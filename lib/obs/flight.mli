(** Flight recorder: the last N completed requests, always on.

    A fixed-capacity ring of per-request records (id, endpoint, status,
    per-phase timings, cache tier, store-audit flags). Writers are
    lock-free — one [Atomic.fetch_and_add] to claim a slot and one
    [Atomic.set] to publish an immutable record — so recording a
    completed request costs nanoseconds and the recorder can stay
    enabled in production. Readers snapshot without blocking writers;
    under concurrent writes a snapshot may miss an in-flight record,
    never tear one.

    The serving stack exposes the ring at [GET /v1/debug/requests] and
    dumps records through {!Log} when a response is 5xx or slower than
    [--slow-ms]. *)

type record = {
  id : string;  (** the request's [x-request-id] *)
  endpoint : string;
  status : int;  (** HTTP status of the response *)
  total_ms : float;  (** end-to-end, admission to response written *)
  phases : (string * float) list;
      (** ordered [(phase, ms)] decomposition of [total_ms]: decode,
          queue, prep, cache_probe, disk_audit, solve, audit, render,
          handoff, write — only phases that occurred are present *)
  tier : string;
      (** which tier answered: ["memory"], ["store"], ["solve"], or
          ["-"] for requests that never reached the engine *)
  store_rejected : bool;  (** a store load failed its audit *)
  healed : bool;  (** the store healed a rejected entry *)
  slow : bool;  (** exceeded the server's [--slow-ms] threshold *)
}

type t

val create : capacity:int -> t
(** [capacity] must be positive. *)

val capacity : t -> int

val record : t -> record -> unit
(** Publish a completed request, overwriting the oldest when full. *)

val recent : ?limit:int -> t -> record list
(** Newest first; at most [limit] (default: everything retained). *)

val to_json : record -> Json.t
(** The wire shape served by [/v1/debug/requests] and embedded in slow
    and 5xx log lines. *)
