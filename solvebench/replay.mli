(** The traced replay: the timed requests re-run in-process through
    each layer's public functions, in the order [Server.handle_solve]
    and [Engine.solve] call them, under {!Trace} spans. Where the
    engine's sequence between two public calls is private (its cache
    keys), the enclosing public call is timed and its public sub-steps
    are re-timed beside it. *)

type t

val create : dir:string -> t
(** A fresh engine over a fresh store file in [dir] (as the daemon
    starts). *)

val restart : t -> unit
(** Drop the memory tiers and re-open the store, as a daemon restart
    does; the re-open is what [store.open_ms] reports. *)

val close : t -> unit

val request : t -> trace:bool -> rid:int -> string -> int list
(** Replay one [/v1/solve] body and return the makespans the daemon's
    answer must carry. With [trace] the steps are recorded as spans and
    the re-timed sub-steps run; without it the calls alone run (set-up
    replay, so the engine reaches the daemon's state). *)

type counts

val counts : t -> counts
(** Cache and store counters, to diff around the timed replay. *)

val metrics :
  t ->
  latencies:float list ->
  before:counts ->
  rtt_ms:float ->
  Trace.span list ->
  (string * string * float) list * (string * float) list * float
(** Per-layer metrics per replayed request as (name, unit, value), each
    layer's self time per request (ms), and the mean time per request
    the top-level spans cover (ms). [latencies] are the daemon's
    untraced latencies of the replayed requests. *)
