(** The JSON wire protocol of the scheduling service: request decoding
    (with full validation up front, so the accept loop can answer 400
    before a job is ever admitted) and response rendering. Built on
    {!Soctest_obs.Json} — no external JSON dependency.

    A [/v1/solve] body looks like

    {v
    { "soc": "d695",            // benchmark name, or "soc_text": "Soc ..."
      "width": 32,              // required TAM width W
      "problem": "p2",          // p1 | p2 (default) | p3
      "strategy": "point",      // point (default) | grid | rectpack
                                //   | rectpack-diagonal
      "budget_ms": 500,         // optional per-request deadline
      "power_limit": 100,       // optional power cap (p2/p3)
      "preempt": 2,             // optional preemption budget (p2/p3)
      "wmax": 64,               // per-core width cap (default 64)
      "max_width": 24,          // p3 only: sweep 1..max_width (default W)
      "stall_ms": 0 }           // hold a worker (tests; <= max_stall_ms)
    v}

    [p1] ignores the constraint knobs (the empty constraint set); [p3]
    sweeps widths [1..max_width] and returns the (width, time, volume)
    points instead of one schedule. *)

module Json = Soctest_obs.Json

type problem = P1 | P2 | P3

type strategy =
  | Point
  | Grid
  | Rectpack  (** plain rectangle bin packing ({!Soctest_pack.Rectpack}) *)
  | Rectpack_diag  (** diagonal-length-ordered variant *)

type solve_request = {
  soc : Soctest_soc.Soc_def.t;
  soc_source : string;  (** benchmark name or ["inline"] — for responses *)
  tam_width : int;
  problem : problem;
  strategy : strategy;
  budget_ms : float option;
  power_limit : int option;
  preempt : int option;
  wmax : int;
  max_width : int option;  (** P3 sweep bound; defaults to [tam_width] *)
  stall_ms : int;  (** sleep before solving, in [0, max_stall_ms] *)
}

type check_request = {
  soc : Soctest_soc.Soc_def.t;
  soc_source : string;
  schedule : Soctest_tam.Schedule.t;
  power_limit : int option;
  preempt : int option;
  wmax : int;
  partial : bool;  (** waive the completeness check *)
}

val max_stall_ms : int
(** 2000: the largest [stall_ms] a solve request may carry. The stall
    runs on a worker before the budget or a cancel is looked at, so an
    unbounded one would pin the worker. *)

val solve_request_of_body : string -> (solve_request, string) result
(** Decode and validate a [/v1/solve] body: JSON shape, benchmark-name
    lookup or inline [.soc] parse, and range checks. The error string is
    ready for a 400 response. *)

val check_request_of_body : string -> (check_request, string) result
(** Decode a [/v1/check] body: [{"soc": ... | "soc_text": ...,
    "schedule_text": "Schedule ...", "power_limit"?, "preempt"?,
    "wmax"?, "partial"?}]. Schedule parse errors come back as [Error]
    (the service answers 400, never 500, on malformed input). *)

(** {1 Response rendering} *)

val json_of_report : Soctest_check.Audit.report -> Json.t
(** The audit verdict attached to every solve response: [clean],
    [checks_run], [violations] (with stable kebab-case check names). *)

val json_of_outcome :
  ?lower_bound:int ->
  soc:Soctest_soc.Soc_def.t ->
  Soctest_engine.Engine.outcome ->
  Json.t
(** Engine status, testing time, per-core widths/preemptions, the
    schedule in {!Soctest_tam.Schedule_io} text form, and cache
    statistics for this solve. When [lower_bound] is given (the server
    always passes {!Soctest_core.Lower_bound.compute_constrained}),
    [lower_bound] and [gap_pct] — how far the returned makespan sits
    above it — ride along. *)

(** {1 Error taxonomy}

    Every error response carries a machine-readable [code] alongside
    the human-readable [error] message, so clients can branch without
    string-matching messages. {!error_status} is the canonical HTTP
    status for each code — the server uses it, so code and status can
    never drift apart. *)

type error_code =
  | Bad_request_error  (** 400 — malformed framing or body *)
  | Payload_too_large_error  (** 413 *)
  | Request_timeout  (** 408 — socket stalled mid-request *)
  | Queue_full  (** 429 — admission window full; [Retry-After] rides along *)
  | Jobs_full  (** 503 — async job store at capacity *)
  | Connections_full  (** 503 — connection cap reached; retry later *)
  | Infeasible  (** 422 — the instance admits no schedule *)
  | Not_found  (** 404 — unknown endpoint or job id *)
  | Method_not_allowed  (** 405 *)
  | Conflict  (** 409 — e.g. cancelling an already-finished job *)
  | Shutting_down  (** 503 — raced with server shutdown *)
  | Internal  (** 500 *)

val error_code_name : error_code -> string
(** Stable snake_case wire name, e.g. [Queue_full -> "queue_full"]. *)

val error_status : error_code -> int

val error_body : ?code:error_code -> ?detail:Json.t -> string -> string
(** [{"error": msg, "code": code?, ...detail}] rendered compactly. *)

(** {1 Async job rendering} *)

val job_url : string -> string
(** [job_url id] is ["/v1/jobs/" ^ id]. *)

val json_of_job : Jobs.view -> Json.t
(** Status document for a job that is not (yet) done: id, state,
    originating request id, age/wait/run timings. *)

val job_accepted_body : id:string -> string
(** The 202 body of [POST /v1/solve?mode=async]: job id, initial state
    and the status URL to poll. *)
