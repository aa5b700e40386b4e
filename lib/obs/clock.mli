(** Monotonic time for durations and latency measurement.

    [Unix.gettimeofday] follows wall-clock adjustments: an NTP step
    mid-span shifts every in-flight measurement, and a large backwards
    step can turn a latency observation negative (silently clamped to
    zero until now — corrupting histograms either way). Everything in
    the repo that measures {e durations} or keeps a {e deadline}
    (budgets, the serve queue's EDF keys, dedup waits, the portfolio
    race timer, client timeouts) goes through this module instead;
    wall-clock time remains the right source for log timestamps
    ({!Log}) and request-id (ULID) timestamps.

    Backed by [clock_gettime(CLOCK_MONOTONIC)] via a tiny C stub, with
    a [gettimeofday] fallback compiled in for platforms without a
    monotonic clock. The epoch is arbitrary (boot time on Linux): only
    differences of readings are meaningful. *)

val monotonic_ns : unit -> int64
(** Raw reading of the monotonic source, nanoseconds. *)

val now_us : unit -> float
(** Monotonic microseconds. Differences are NTP-step-proof. *)

val now_ms : unit -> float
(** Monotonic milliseconds — the unit latency histograms observe. *)

val now_s : unit -> float
(** Monotonic seconds. *)
