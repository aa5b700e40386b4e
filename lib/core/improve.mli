(** Local-search polish on top of the greedy optimizer.

    The greedy scheduler commits to a preferred width per core up front;
    the best-of parameter grid explores only a few global knobs. This
    pass hill-climbs on the {e per-core} width vector: starting from a
    result's realized widths, it repeatedly tries moving one core to a
    neighbouring Pareto width (one step narrower or wider) and re-runs
    the scheduler with that vector forced, keeping strict improvements.
    A natural "future work" extension of the paper — the schedule stays
    exactly as validatable as before, only the width assignment search
    deepens. *)

type report = {
  result : Optimizer.result;  (** best schedule found *)
  initial_time : int;
  rounds : int;  (** hill-climbing rounds performed *)
  evaluations : int;  (** scheduler re-runs spent *)
}

val polish :
  ?max_rounds:int ->
  ?budget:Budget.t ->
  ?eval:Optimizer.evaluator ->
  Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  Optimizer.result ->
  report
(** [polish prepared ~tam_width ~constraints seed] improves [seed] until
    a local optimum or [max_rounds] (default 10) rounds. The returned
    result is never worse than the seed. Deterministic.

    [budget] stops the climb before the next evaluation once exhausted
    (the result so far is kept); [eval] replaces the direct
    {!Optimizer.run_request} evaluation with e.g. the engine's caching
    evaluator without changing the climb itself.
    @raise Invalid_argument if [max_rounds < 0] or the seed's width list
    is empty. *)

val best_with_polish :
  ?max_rounds:int ->
  ?budget:Budget.t ->
  ?eval:Optimizer.evaluator ->
  Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  unit ->
  report
(** Convenience: {!Optimizer.best_over_params} then {!polish}, under the
    same [budget] and [eval]. *)
