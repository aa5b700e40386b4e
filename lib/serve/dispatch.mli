(** Deadline-aware worker dispatch: a bounded team of worker domains
    draining a priority queue of admitted jobs.

    The queue is earliest-deadline-first: tasks submitted with an
    absolute deadline run before tasks without one, earlier deadlines
    first, admission order breaking ties — so a short-budget request
    admitted behind a long p3 sweep overtakes it at the queue instead
    of burning its budget waiting, and tasks without a deadline run in
    admission order.

    Same drain discipline as {!Soctest_portfolio.Pool}: tasks are
    fire-and-forget (they own their error handling), {!shutdown} lets
    queued tasks finish before joining the workers, and {!submit} after
    shutdown raises [Invalid_argument]. *)

type t

val create : jobs:int -> unit -> t
(** Spawn [jobs] worker domains (at least 1). *)

val submit : t -> ?deadline:float -> (unit -> unit) -> unit
(** Enqueue a task. [deadline] is the job's {e absolute} deadline in
    monotonic milliseconds ({!Soctest_obs.Clock.now_ms} base); omitted
    means no deadline — such tasks run after every deadlined one, in
    admission order.
    @raise Invalid_argument after {!shutdown}. *)

val queued : t -> int
(** Tasks admitted but not yet picked up by a worker. *)

val jobs : t -> int

val shutdown : t -> unit
(** Stop accepting, drain the queue, join the workers. Idempotent. *)
