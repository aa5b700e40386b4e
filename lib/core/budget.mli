(** Cooperative deadline / cancellation token for the solver stack.

    A budget bounds a solve by elapsed time, by a maximum number of
    scheduler evaluations, or by an explicit {!cancel} — whichever trips
    first. It is {e cooperative}: searchers ({!Optimizer.best_over_params},
    {!Anneal.search}, {!Improve.polish}, the portfolio racer and the
    engine) poll {!exhausted} between evaluations and, on expiry, stop and
    return the best incumbent found so far instead of raising. Nothing is
    ever interrupted mid-evaluation, so every result handed back is a
    complete, validated schedule.

    Tokens are safe to share across OCaml 5 domains: the evaluation count
    and the cancel flag are [Atomic]s, the deadline is immutable. The same
    token can be threaded through several searchers at once (e.g. every
    strategy of a portfolio race) to enforce one global budget.

    Deadlines are on the monotonic clock ({!Soctest_obs.Clock}), the
    same clock the serve daemon orders its queue by, so a wall-clock
    step (NTP, a manual [date]) neither stretches nor expires a budget
    in flight. *)

type t

val unlimited : t
(** Never exhausted (and {!cancel} on it is a no-op): the default for
    every [?budget] argument in the stack. *)

val create : ?deadline_ms:float -> ?max_evals:int -> unit -> t
(** A fresh token. [deadline_ms] is monotonic milliseconds measured
    from this call; [max_evals] caps the number of {!note_eval} ticks.
    Omitting both yields a token only {!cancel} can exhaust.
    @raise Invalid_argument if [deadline_ms < 0] or [max_evals < 0]. *)

val cancel : t -> unit
(** Exhaust the token immediately (idempotent). No-op on {!unlimited}. *)

val note_eval : t -> unit
(** Record one scheduler evaluation against the budget. Searchers tick
    once per {e requested} evaluation — whether or not a cache served it —
    so budget behaviour does not depend on cache state. *)

val evals : t -> int
(** Evaluations recorded so far. *)

val exhausted : t -> bool
(** [true] once the deadline has passed, [max_evals] ticks were recorded,
    or {!cancel} was called. Monotonic for cancel/evals; the clock is
    re-read on every call. *)

val remaining_ms : t -> float option
(** Milliseconds until the deadline ([None] if no deadline; clamped to
    [0.] once passed). Never increases between calls and never exceeds
    the [deadline_ms] the token was created with. *)
