(** Correctness checks on the daemon's [/v1/solve] answers. *)

val constraints :
  Soctest_serve.Protocol.solve_request -> Soctest_constraints.Constraint_def.t
(** The constraint set the daemon derives for a request: none for P1,
    the SOC's hierarchy/BIST exclusions plus the request's power cap and
    preemption budget for P2/P3. *)

val decode : string -> Soctest_serve.Protocol.solve_request
(** Decode a body the benchmark generated.
    @raise Failure on an invalid one. *)

type verdict = {
  makespans : int list;  (** one per schedule (P3: per swept width) *)
  gap_pct : float;  (** mean makespan above the constrained lower bound *)
  failure : string option;  (** why the answer is wrong, if it is *)
}

type memo
(** Audit verdicts already derived, by request body and schedule text;
    one per domain. *)

val memo : unit -> memo

val check :
  Soctest_engine.Engine.t -> memo -> body:string -> status:int -> response:string -> verdict
(** Fail an answer with a non-200 status, a dirty [audit], a schedule
    that fails a fresh {!Soctest_check.Audit.run} (or ends elsewhere
    than its [testing_time]), a makespan below
    {!Soctest_core.Lower_bound.compute_constrained}, or a P3 sweep with
    missing or incomplete points. The engine only caches staircases
    (it is domain-safe); an identical schedule for the same request is
    audited once per [memo]. *)
