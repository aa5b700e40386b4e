(** SOC test schedules and their independent validation.

    A schedule is a set of {e slices}: core [c] holds [width] TAM wires
    from cycle [start] (inclusive) to [stop] (exclusive). Several slices
    for the same core represent a preempted (horizontally split) test.
    The validator re-checks everything from first principles so tests need
    not trust the optimizer's internal bookkeeping. *)

type slice = { core : int; width : int; start : int; stop : int }

type t = private {
  tam_width : int;
  slices : slice list;  (** sorted by [start], then [core] *)
}

val make : tam_width:int -> slices:slice list -> t
(** Sorts and stores. @raise Invalid_argument if [tam_width < 1] or a slice
    is malformed ([width < 1], [start < 0], [stop <= start]). *)

val empty : tam_width:int -> t

val makespan : t -> int
(** Latest [stop] over all slices; [0] for an empty schedule. *)

val total_busy_area : t -> int
(** Sum over slices of [width * (stop - start)]. *)

val idle_area : t -> int
(** [tam_width * makespan - total_busy_area]: unused wire-cycles (the
    unfilled bin area of the packing view). *)

val utilization : t -> float
(** Busy fraction of the bin, in [0, 1]; [0.] for an empty schedule. *)

val cores : t -> int list
(** Distinct core ids appearing in the schedule, ascending. *)

val index : t -> (int * slice array) list
(** Per-core view built in one pass: [(core, slices)] pairs with cores
    ascending and each core's slices ascending by start time (inherited
    from the constructor's (start, core) sort). Use this when visiting
    every core — it avoids rescanning the whole slice list per core as
    repeated {!slices_of_core} calls would. *)

val slices_of_core : t -> int -> slice list
(** Ascending by start time. This ordering is a guarantee, not a hope:
    [make] sorts and [t] is private, and this accessor re-verifies the
    order so downstream gap counting ({!preemptions}) and finish times
    ({!core_finish}) can rely on it. @raise Invalid_argument if the
    invariant is somehow broken. *)

val core_start : t -> int -> int option
val core_finish : t -> int -> int option

val preemptions : t -> int -> int
(** Number of times the given core's test was interrupted: maximal
    contiguous runs of its slices minus one ([0] if absent). A
    back-to-back resumption ([start = previous stop]) is contiguous and
    does {e not} count — only a strict idle gap does, and each such gap
    incurs one [si + so] restart cost in the time accounting. *)

val preemptions_in : slice array -> int
(** {!preemptions} of one core's slices given in start order, as an
    {!index} entry holds them ([0] for an empty array). *)

val width_of_core : t -> int -> int option
(** TAM width assigned to the core, when constant across its slices;
    [None] if the core is absent. @raise Invalid_argument if the core's
    slices disagree on width (not a legal schedule of this framework). *)

val peak_width : t -> int
(** Maximum number of simultaneously busy TAM wires. *)

val active_at : t -> int -> slice list
(** Slices covering cycle [t]. *)

type violation =
  | Capacity_exceeded of { time : int; used : int }
  | Core_overlap of { core : int; time : int }

val check_capacity : t -> violation list
(** Event-sweep re-validation: at no instant may total slice width exceed
    [tam_width], and a core must never run twice at once. Returns [[]] for
    a valid schedule. *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
