(** Pareto analysis of the testing-time-vs-TAM-width staircase of a core.

    For a given core, [T(w)] decreases only at core-specific thresholds —
    the {e Pareto-optimal widths}. All rectangles of non-Pareto height are
    dominated and can be ignored during packing (paper, Sec. 3 / Fig. 1).
    Because [Design_wrapper] is a heuristic, the raw [T(w)] sequence is not
    guaranteed monotone; this module works on the prefix-minimum envelope,
    which is what a scheduler can always realize (assign [w] wires, use the
    best design of width [<= w]). *)

type t

val compute : Soctest_soc.Core_def.t -> wmax:int -> t
(** The staircase over widths [1..wmax], equal at every width to
    {!Wrapper_design.testing_time}, in one pass: the scan chains are
    sorted once and only the longest scan-in and scan-out are derived
    per width, without building a wrapper. Work and memory stop at the
    core's saturation width ({!Soctest_soc.Core_def.max_useful_width}),
    past which the time no longer changes, so any [wmax] is cheap.
    @raise Invalid_argument if [wmax < 1]. *)

val core_id : t -> int

val wmax : t -> int
(** The [wmax] the staircase was computed for, as requested. *)

val time : t -> width:int -> int
(** Envelope testing time when [width] TAM wires are available. Widths
    beyond [wmax] are clamped to [wmax]. @raise Invalid_argument if
    [width < 1]. *)

val raw_time : t -> width:int -> int
(** The unsmoothed [Design_wrapper] result at exactly [width] chains. *)

val effective_width : t -> width:int -> int
(** Smallest width achieving [time t ~width] — the wires actually worth
    connecting; the remainder can serve other cores. *)

val pareto_widths : t -> int list
(** Ascending list of Pareto-optimal widths; always starts at 1. *)

val highest_pareto : t -> int
(** The width achieving the core's minimum testing time. *)

val min_time : t -> int
(** Testing time at [highest_pareto]. *)

val rectangles : t -> (int * int) list
(** [(width, time)] at each Pareto-optimal width — the rectangle set
    [R_i] of the generalized rectangle-packing formulation. *)

val preferred_width : t -> percent:int -> delta:int -> int
(** The paper's preferred TAM width (Fig. 5): the Pareto width whose time
    is closest to [(1 + percent/100) * min_time]; if the highest Pareto
    width is within [delta] wires above it, use the highest Pareto width
    instead (bottleneck-core heuristic).
    @raise Invalid_argument if [percent < 0] or [delta < 0]. *)

val min_area : t -> int
(** [min over pareto widths w of w * T(w)] — the core's intrinsic TAM
    bandwidth demand, used by the schedule lower bound. *)

val pp : Format.formatter -> t -> unit
(** Prints the Pareto staircase, one [w -> T(w)] step per line. *)
