(** A uniform wrapper around every solver in the repo, so the portfolio
    can race them: each strategy is a named, deterministic thunk that
    yields a complete, constraint-checked schedule.

    Strategies built from the baselines ignore scheduling constraints by
    construction, so their schedules (and, as a proof rather than an
    assumption, those of the packers and the branch-and-bound) are
    re-validated with {!Soctest_constraints.Conflict.validate} against
    the constraints the portfolio was asked to honour; a violating
    schedule raises {!Rejected} (the portfolio reports it as failed and
    it can never win). *)

type solution = {
  schedule : Soctest_tam.Schedule.t;
  testing_time : int;  (** schedule makespan, cycles *)
  widths : (int * int) list;  (** TAM width per core *)
}

type outcome = {
  solution : solution;
  iterations : int;
      (** solver-specific work count: scheduler evaluations (grid,
          polish), annealing iterations, or branch-and-bound nodes *)
}

type kind =
  | Grid
  | Anneal
  | Polish
  | Baseline
  | Rectpack  (** plain rectangle bin packing, arXiv 1008.4448 *)
  | Rectpack_diag  (** diagonal-length-ordered variant, arXiv 1008.4446 *)
  | Exact_bnb  (** constraint-aware branch-and-bound, {!Soctest_pack.Bnb} *)

val kind_name : kind -> string
(** ["grid"], ["anneal"], ["polish"], ["baseline"], ["rectpack"],
    ["rectpack-diagonal"], ["exact-bnb"]. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_name}; [None] for unknown names. *)

val all_kinds : kind list
(** Every kind, in portfolio registration order. *)

type t = {
  name : string;  (** unique within a portfolio, e.g. ["grid p=5 d=1 s=3"] *)
  kind : kind;
  run : unit -> outcome;  (** deterministic; may raise *)
}

exception Rejected of string
(** A baseline, packer or branch-and-bound schedule violated the
    requested constraints. *)

val grid :
  ?percents:int list ->
  ?deltas:int list ->
  ?slacks:int list ->
  ?widens:bool list ->
  ?eval:Soctest_core.Optimizer.evaluator ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t list
(** One strategy per (percent, delta, slack, widen) grid point, in the
    same enumeration order as {!Soctest_core.Optimizer.best_over_params}
    with the same default lists — so the portfolio's grid subset always
    reaches the sequential optimum, and ties resolve to the same point.
    [eval] substitutes a (possibly caching) evaluator for the direct
    {!Soctest_core.Optimizer.run_request}; results are unchanged. *)

val anneal_restarts :
  ?restarts:int ->
  ?iterations:int ->
  ?budget:Soctest_core.Budget.t ->
  ?eval:Soctest_core.Optimizer.evaluator ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t list
(** [restarts] (default 4) annealing runs from the default-parameter
    greedy schedule, each with a distinct deterministic seed derived
    from the restart index; [iterations] per restart (default 400).
    Every restart begins from the same greedy seed, so a caching [eval]
    (e.g. the engine's) computes that seed once for the whole race. *)

val polish :
  ?max_rounds:int ->
  ?budget:Soctest_core.Budget.t ->
  ?eval:Soctest_core.Optimizer.evaluator ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t
(** {!Soctest_core.Improve.polish} on the default-parameter schedule. *)

val baselines :
  ?max_buses:int ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t list
(** Serial, NFDH/FFDH shelf and best fixed-width-bus designs, each
    constraint-revalidated (see {!Rejected}). [max_buses] defaults to 3. *)

val rectpack :
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t list
(** Both rectangle-bin-packing strategies ({!Soctest_pack.Rectpack}):
    ["rectpack"] (decreasing preferred-rectangle area) and
    ["rectpack-diagonal"] (decreasing bin-normalized diagonal). They
    honour constraints by delaying starts, and are re-validated like
    every non-optimizer producer (see {!Rejected}). *)

val exact_bnb :
  ?max_cores:int ->
  ?node_limit:int ->
  ?budget:Soctest_core.Budget.t ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t list
(** The repo's one exact solver, the constraint-aware branch-and-bound
    ({!Soctest_pack.Bnb}), gated behind a core-count budget: empty unless
    the SOC has at most [max_cores] (default 12) cores, since B&B time
    grows exponentially with core count. [node_limit] defaults to the
    solver's 2 million. [budget] is polled cooperatively; on expiry the
    strategy returns its best incumbent rather than failing. *)

val audited :
  ?pareto:(Soctest_soc.Core_def.t -> Soctest_wrapper.Pareto.t) ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t ->
  t
(** Wraps a strategy with the {!Soctest_check.Audit} post-condition:
    when auditing is enabled ([SOCTEST_AUDIT] or
    {!Soctest_check.Audit.set_enabled}), the strategy's schedule is
    re-audited from first principles before it can enter the race, and a
    violation raises {!Soctest_check.Audit.Failed} carrying the
    strategy's name. A no-op (the strategy is returned unchanged) when
    auditing is disabled. [pareto] substitutes a cache-backed staircase
    lookup ({!Soctest_engine.Engine.pareto}) for the per-audit
    recompute. {!default} applies this to every strategy it builds. *)

val default :
  ?kinds:kind list ->
  ?restarts:int ->
  ?anneal_iterations:int ->
  ?budget:Soctest_core.Budget.t ->
  ?eval:Soctest_core.Optimizer.evaluator ->
  ?pareto:(Soctest_soc.Core_def.t -> Soctest_wrapper.Pareto.t) ->
  Soctest_core.Optimizer.prepared ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  t list
(** The full portfolio in registration order — grid, anneal restarts,
    polish, baselines, rectpack, rectpack-diagonal, exact-bnb —
    optionally restricted to [kinds]. [budget]/[eval] reach the
    optimizer-backed strategies (grid, anneal, polish) and [budget] also
    the B&B; the baselines and packers ignore them. [pareto] feeds the
    {!audited} wrapper's staircase lookups (see there). *)
