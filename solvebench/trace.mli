(** In-memory spans recorded by the benchmark around the calls it makes
    into each layer, written out once at the end. *)

type span = {
  id : int;
  name : string;
  layer : string;
  rid : int;  (** request id, shared by every span of one request *)
  parent : int;
      (** [-1] for a top-level step of the request; otherwise the span
          whose time this one apportions — an enclosing span, or the
          public call a sub-step was re-timed beside *)
  start_us : float;
  stop_us : float;
  words : float;  (** minor-heap words allocated, inclusive *)
}

val record : ?parent:int -> rid:int -> layer:string -> string -> (unit -> 'a) -> 'a * int
(** Run the thunk under a new span; returns its result and the span id. *)

val reset : unit -> unit
val spans : unit -> span list
(** Recorded spans, oldest first. *)

val self : span list -> (span * float * float) list
(** Each span with its self time (ms) and self allocation (words): its
    own figures minus those of the spans whose [parent] it is, floored
    at zero. *)

val write_chrome : string -> span list -> unit
(** Chrome trace-event JSON ([chrome://tracing], Perfetto). *)
