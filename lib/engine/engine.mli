(** The solver service layer: one canonical request/response pair for
    every way the repo evaluates a SOC, backed by a deduplicating
    evaluation cache and a cooperative {!Soctest_core.Budget}.

    An engine value owns two concurrent caches:

    - {e Pareto analyses}, keyed by (core digest, wmax) — shared across
      SOCs that embed identical cores and across every TAM width of a
      sweep;
    - {e optimizer evaluations}, keyed by (SOC digest, TAM width,
      params, constraints digest, width overrides) — shared across grid
      searches, annealing restarts, polish climbs and racing portfolio
      strategies, with in-flight dedup so two domains never compute the
      same grid point twice.

    Digests are MD5 of the canonical textual renderings
    ({!Soctest_soc.Soc_writer.to_string} for SOCs), so they are stable
    across a {!Soctest_soc.Soc_writer}/{!Soctest_soc.Soc_parser}
    round-trip and across processes.

    Caching is {e transparent}: a cached solve returns bit-for-bit the
    result of an uncached one, and budget accounting ticks per
    {e requested} evaluation whether or not the cache served it, so
    budgeted searches behave identically warm or cold. On budget expiry
    every entry point degrades gracefully — it stops before the next
    evaluation and returns the best incumbent found (never fewer than
    one evaluation), flagged [`Deadline] instead of raising.

    {2 The persistent tier}

    An engine can additionally sit on a {!Soctest_store.Store}: the
    evaluation lookup order becomes {e memory -> disk -> solve}, with
    write-through on a solve, so solved work survives process restarts
    and is shared between the processes of a solve farm. Disk entries
    are {e never trusted}: every disk hit is decoded and re-audited
    from first principles ({!Soctest_check.Audit.run}, through the
    prepared SOC's staircases, with the result's derived fields
    cross-checked against the audited schedule) before it is served — a
    corrupt, stale or tampered record degrades to a fresh solve that
    overwrites it, and can never emit an invalid schedule. Within one
    {!solve} each distinct stored schedule text is parsed and audited
    once, so grid points that stored the same schedule share one parse
    and one audit; each entry's params, W, makespan, widths and
    preemptions are still checked on their own.

    {2 Verdicts}

    A solve's {!outcome} carries the audit report of its schedule
    ([verdict]). The report is kept on the cache entry the schedule
    came from, so a key answered many times is audited once: when it is
    first asked for, or by the audit that ran when the entry was loaded
    from the store. *)

module Optimizer = Soctest_core.Optimizer
module Budget = Soctest_core.Budget

type t
(** A cache handle. Create one per logical workload (a CLI invocation,
    an experiment, a portfolio race) and route every solve in that
    workload through it; sharing a handle across domains is safe. *)

val create : ?store:Soctest_store.Store.t -> unit -> t
(** When [store] is omitted, the [SOCTEST_STORE] environment variable
    (a store file path, created on first use) opens one; unset (the
    default) means a purely in-memory engine, exactly as before. *)

(** {1 Requests} *)

type grid = {
  percents : int list;
  deltas : int list;
  slacks : int list;
  widens : bool list;
}
(** The parameter grid a solve searches — the four knob axes of
    {!Optimizer.best_over_params} (wmax travels in the request). *)

val default_grid : grid
(** {!Optimizer.default_percents} × [default_deltas] × [default_slacks]
    × [default_widens] — the paper's Table-1 search. *)

val point_grid : ?params:Optimizer.params -> unit -> grid
(** The singleton grid holding just [params]' knobs (default
    {!Optimizer.default_params}) — a plain one-shot solve. *)

type request = {
  soc : Soctest_soc.Soc_def.t;
  tam_width : int;
  constraints : Soctest_constraints.Constraint_def.t;
  wmax : int;
  grid : grid;
  budget : Budget.t;
}

val request :
  ?wmax:int ->
  ?grid:grid ->
  ?budget:Budget.t ->
  Soctest_soc.Soc_def.t ->
  tam_width:int ->
  constraints:Soctest_constraints.Constraint_def.t ->
  unit ->
  request
(** [wmax] defaults to 64 (the paper's), [grid] to {!point_grid}
    (single default-parameter evaluation), [budget] to
    {!Budget.unlimited}. *)

(** {1 Outcomes} *)

type stats = {
  pareto_computed : int;  (** staircases computed for this solve *)
  pareto_cached : int;  (** staircases served from the cache *)
  eval_computed : int;  (** scheduler runs this solve executed *)
  eval_cached : int;  (** evaluations served without blocking *)
  eval_deduped : int;  (** evaluations shared with a concurrent computer *)
  eval_from_store : int;
      (** evaluations served by the disk tier (audited disk hits) *)
  elapsed_ms : float;  (** whole solve, monotonic *)
  store_probe_ms : float;
      (** time inside the disk tier: lookup, decode and audit-on-load,
          summed over this solve's computed evaluations *)
  eval_solve_ms : float;
      (** time inside {!Optimizer.run_request}, summed likewise — the
          remainder of [elapsed_ms] is cache-probe and bookkeeping *)
}

type status =
  | Complete  (** the whole grid was evaluated *)
  | Deadline
      (** the budget expired mid-search; the result is the best
          incumbent over the evaluations that did run *)

type outcome = {
  result : Optimizer.result;
      (** best over the evaluated grid points, as
          {!Optimizer.best_over_params} picks it (ties kept by
          enumeration order) *)
  status : status;
  evaluations : int;  (** grid points evaluated (computed or cached) *)
  stats : stats;
  verdict : unit -> Soctest_check.Audit.report;
      (** the full {!Soctest_check.Audit.run} report of
          [result.schedule] under the serving spec ({!audit_spec}
          [~prepared ~wmax ~expect_tam_width:tam_width]). It is kept on
          the cache entry [result] came from: audited the first time any
          solve asks for it, or taken from the audit that ran when the
          entry was loaded from the store. *)
}

(** {1 Solving} *)

val solve : t -> request -> outcome
(** Search the request's grid with {!Optimizer.best_over_params}, every
    evaluation going through the cache; best result wins.
    At least one grid point is always evaluated, so even an
    already-expired budget yields a valid schedule (status
    [Deadline]). When auditing is enabled
    ({!Soctest_check.Audit.enabled}), the winning schedule is re-audited
    from first principles as a post-condition.
    @raise Optimizer.Infeasible when a grid point is infeasible (a
    property of SOC/width/constraints, not of the params searched).
    @raise Soctest_check.Audit.Failed when the enabled audit finds a
    violation in the returned schedule (a solver bug, not a user error).
    @raise Invalid_argument on an empty grid axis or invalid widths. *)

val solve_many : t -> request list -> outcome list
(** Batch entry point — the p3 width sweep, the experiments drivers and
    the portfolio all route through this. Requests are solved in order
    through the shared cache, so common sub-work (Pareto staircases,
    repeated grid points) is computed once for the whole batch. *)

(** {1 Plugging the cache into other searchers} *)

val prepare : t -> ?wmax:int -> Soctest_soc.Soc_def.t -> Optimizer.prepared
(** {!Optimizer.prepare} through the Pareto cache (and an analysis
    cache, so re-preparing the same SOC at the same [wmax] is free). *)

val pareto : t -> wmax:int -> Soctest_soc.Core_def.t -> Soctest_wrapper.Pareto.t
(** One core's staircase through the engine's Pareto cache — identical
    to [Pareto.compute core ~wmax], shared with every solve/prepare that
    touched the same core. Pass as the [?pareto] of
    {!Soctest_check.Audit.spec} (or use {!audit_spec}) so repeated
    audits stop recomputing staircases. *)

val audit_spec :
  t ->
  ?prepared:Optimizer.prepared ->
  ?expect_tam_width:int ->
  ?require_complete:bool ->
  wmax:int ->
  Soctest_constraints.Constraint_def.t ->
  Soctest_check.Audit.spec
(** An {!Soctest_check.Audit.spec} whose staircase lookups go through
    this engine's Pareto cache. With [prepared] (built at the same
    [wmax]), a core of the prepared SOC is looked up by id instead of by
    digest. [Engine.solve]'s audit-on-load and [SOCTEST_AUDIT]
    post-condition and the serve daemon's per-response audits use
    this. *)

val evaluator : t -> Optimizer.evaluator
(** A caching drop-in for {!Optimizer.run_request}: pass it as the
    [?eval] of {!Optimizer.best_over_params},
    {!Soctest_core.Anneal.search}, {!Soctest_core.Improve.polish} or the
    portfolio strategy builders to dedup their evaluations through this
    engine. Results are identical to the uncached evaluator's. *)

(** {1 Introspection} *)

val pareto_cache_stats : t -> int * int
(** (hits, misses) of the Pareto/prepare level so far. *)

val eval_cache_stats : t -> int * int
(** (hits, misses) of the evaluation level so far. *)

val store : t -> Soctest_store.Store.t option
(** The persistent tier this engine was created over, if any. *)

type store_stats = {
  hits : int;  (** disk hits that decoded, audited clean and were served *)
  misses : int;  (** evaluations the disk tier did not have *)
  audit_rejects : int;
      (** disk records rejected: undecodable payloads, stale params, or
          schedules that failed the mandatory {!Soctest_check.Audit} *)
  write_errors : int;  (** write-through appends that failed (IO) *)
}

val store_stats : t -> store_stats
(** Per-engine disk-tier counters (zero when the engine has no store).
    Counted internally, visible whether or not {!Soctest_obs.Obs}
    recording is on. The same events feed the [engine.store.*]
    {!Soctest_obs.Obs} counters the daemon exports at [/metrics]. *)

(** {1 Result payloads (the disk tier's serialized form)} *)

val result_to_payload : Optimizer.result -> string
(** Serialize a solve result for the store: a JSON object carrying the
    testing time, per-core widths/preemptions, the search params and
    the schedule as {!Soctest_tam.Schedule_io} text. *)

val result_of_payload : string -> (Optimizer.result, string) result
(** Decode {!result_to_payload}'s form back; [Error] on malformed JSON,
    an unknown payload version or a schedule text the validating parser
    rejects. Decoding alone does {e not} vouch for the result — the
    engine audits it against the requesting SOC before serving it. *)

val soc_digest : Soctest_soc.Soc_def.t -> string
(** The engine's SOC cache key: MD5 (as lowercase hex) of the canonical
    [.soc] rendering. Stable across writer/parser round-trips. *)

val constraints_digest : Soctest_constraints.Constraint_def.t -> string
(** MD5 hex of the constraint set's canonical rendering. *)
