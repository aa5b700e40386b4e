(** [TAM_schedule_optimizer] — the paper's integrated wrapper/TAM
    co-optimization and constraint-driven test scheduling algorithm
    (Figs. 4–8).

    The algorithm packs one rectangle per core (height = TAM width chosen
    from the core's Pareto set, width = testing time) into a bin of height
    [W], greedily, with three selection priorities:

    + resume tests that have exhausted their preemption budget (they must
      now run to completion);
    + resume begun tests, largest remaining time first;
    + start new tests at their {e preferred width}, largest test first;

    then two idle-time repairs: inserting an unstarted test at the leftover
    width when its preferred width is within [insert_slack] wires, and
    widening a just-started test to the highest Pareto width that fits.
    Precedence, concurrency, power and BIST-resource admissibility is
    checked on every assignment; preemption is chargeable ([si + so] extra
    cycles per resume-after-gap). *)

type params = {
  wmax : int;  (** per-core max TAM width for Pareto analysis (paper: 64) *)
  percent : int;  (** preferred-width tolerance [P], percent (paper: 1–10) *)
  delta : int;  (** bottleneck bump [Delta], wires (paper: 0–4) *)
  insert_slack : int;  (** idle-insertion width slack (paper: 3) *)
  widen : bool;
      (** enable the width-increase heuristic (Fig. 4 lines 15–16);
          disabling it preserves parallelism on small SOCs and is part of
          the [best_over_params] grid *)
}

val default_params : params
(** [wmax = 64], [percent = 5], [delta = 1], [insert_slack = 3],
    [widen = true]. *)

type prepared
(** Per-SOC Pareto analyses, reusable across parameter sweeps. *)

val prepare : ?wmax:int -> Soctest_soc.Soc_def.t -> prepared

val prepare_via :
  (Soctest_soc.Core_def.t -> wmax:int -> Soctest_wrapper.Pareto.t) ->
  ?wmax:int ->
  Soctest_soc.Soc_def.t ->
  prepared
(** [prepare_via compute soc] builds the same analyses as {!prepare} but
    obtains each core's staircase from [compute] — the hook the engine's
    deduplicating Pareto cache plugs into. [compute core ~wmax] must
    return a staircase equivalent to [Pareto.compute core ~wmax]. *)

val pareto_of : prepared -> int -> Soctest_wrapper.Pareto.t
val soc_of : prepared -> Soctest_soc.Soc_def.t

val wmax_of : prepared -> int
(** The [wmax] the Pareto analyses were built with; [params.wmax] passed
    to {!run} must match it for the per-core staircases to be valid. *)

exception Infeasible of string
(** Raised when no incomplete core can ever be scheduled (e.g. a power
    limit below a single core's power). Precedence cycles are rejected
    earlier, by {!Soctest_constraints.Constraint_def.make}. *)

type result = {
  schedule : Soctest_tam.Schedule.t;
  testing_time : int;  (** schedule makespan, cycles *)
  widths : (int * int) list;  (** final TAM width per core *)
  preemptions : (int * int) list;  (** cores actually preempted *)
  params : params;
}

type request = {
  tam_width : int;  (** total SOC TAM width [W] *)
  constraints : Soctest_constraints.Constraint_def.t;
  params : params;
}
(** One solver request: everything a single scheduler evaluation needs
    beyond the prepared SOC. Grouping the three labels into a value makes
    call sites cacheable and lets searchers pass requests around instead
    of re-threading argument tails. *)

val request :
  ?params:params ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  unit ->
  request
(** [params] defaults to {!default_params}. *)

val run :
  ?overrides:(int * int) list ->
  prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  params:params ->
  result
(** One optimizer run. The returned schedule is complete (every core
    appears) and satisfies capacity and all constraints; this is
    re-checked internally with {!Soctest_constraints.Conflict.validate}
    and an assertion failure would indicate a bug.
    [overrides] forces per-core preferred widths (snapped down to the
    core's Pareto set), bypassing the percent/delta heuristic — the
    entry point for external search over width assignments.
    @raise Infeasible see above.
    @raise Invalid_argument if [tam_width < 1], params are out of range,
    or an override is out of range. *)

val run_request : ?overrides:(int * int) list -> prepared -> request -> result
(** {!run} on a {!request} — the canonical evaluation entry point. *)

type evaluator = ?overrides:(int * int) list -> prepared -> request -> result
(** The shape of one scheduler evaluation. Searchers ({!Anneal},
    {!Improve}, the portfolio strategies) accept an [?eval] of this type
    so the engine can substitute a deduplicating cached evaluator for the
    direct {!run_request}. *)

val default_percents : int list
val default_deltas : int list
val default_slacks : int list
val default_widens : bool list
(** The default parameter grid of {!best_over_params}, exported so other
    searchers (e.g. the portfolio solver) can enumerate exactly the same
    grid points. *)

val grid_points :
  wmax:int ->
  ?percents:int list ->
  ?deltas:int list ->
  ?slacks:int list ->
  ?widens:bool list ->
  unit ->
  params list
(** The exact parameter enumeration of {!best_over_params} (percent-major,
    then delta, slack, widen), exported so the portfolio reproduces the
    sequential optimum including its tie choice. *)

val best_over_params :
  ?budget:Budget.t ->
  ?eval:evaluator ->
  prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  ?percents:int list ->
  ?deltas:int list ->
  ?slacks:int list ->
  ?widens:bool list ->
  unit ->
  result
(** The paper's Table-1 methodology, extended: try every combination of
    the given parameter values (defaults: percent in 1..10 plus a few
    coarse larger values, delta in 0..4, insert slack in 3 or 8, widen
    on/off) and keep the schedule with the smallest testing time (ties:
    first found). When [budget] expires mid-grid the best incumbent so
    far is returned (at least the first point is always evaluated);
    query [Budget.exhausted] to detect the degradation. [eval] (default
    {!run_request}) evaluates each point — the hook the engine's caching
    evaluator plugs into; it is called once per evaluated point, in
    enumeration order. This is the repo's one grid loop:
    [Engine.solve] searches through it. *)
