(** Constraint-aware exact branch-and-bound for small SOCs.

    A chronological search over {e active} non-preemptive schedules:
    at each decision instant [t] (time 0 or a finish event), either
    start an admissible core — branching over its rectangle menu — or
    close the instant and advance to the next finish. Admissibility at
    [t] is the paper's own predicate
    ({!Soctest_constraints.Conflict.admissible}): precedence,
    concurrency, power and BIST checked against the running set, so the
    search space is exactly the constraint-legal schedules. Symmetry is
    broken by forcing same-instant starts into ascending core id.

    Pruning: a node is cut when
    [max(makespan, t + ceil(remaining area / W), t + slowest remaining)]
    cannot beat the incumbent, and the whole search stops early once the
    incumbent meets {!Soctest_core.Lower_bound.compute_constrained}.
    The incumbent is seeded with the DAC'02 heuristic's schedule, so the
    result is never worse than the heuristic and pruning bites from the
    first node.

    {b Exactness.} The search never preempts, so [optimal = true] is
    only claimed when it exhausts the tree {e and} the constraint set
    forbids preemption everywhere — under allowed preemption the true
    optimum might split a test and the exhausted non-preemptive search
    is merely an upper bound. *)

type outcome = {
  schedule : Soctest_tam.Schedule.t;
  testing_time : int;
  optimal : bool;
      (** search exhausted within budget and preemption is forbidden *)
  nodes : int;  (** decision nodes expanded, at most [node_limit] *)
  lower_bound : int;  (** {!Soctest_core.Lower_bound.compute_constrained} *)
}

val solve :
  ?budget:Soctest_core.Budget.t ->
  ?node_limit:int ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  outcome
(** [node_limit] defaults to 2 million; [budget] (default
    {!Soctest_core.Budget.unlimited}) is polled cooperatively at the
    first node and every 256 nodes after it. When either trips, the
    best incumbent is returned with [optimal = false].
    @raise Soctest_core.Optimizer.Infeasible when no legal schedule
    exists (via the heuristic seed — e.g. a power limit below a single
    core's power).
    @raise Invalid_argument if [tam_width < 1] or [node_limit < 1]. *)
