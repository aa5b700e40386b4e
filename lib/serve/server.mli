(** The concurrent scheduling service: a long-lived daemon that
    amortizes the {!Soctest_engine.Engine} caches across requests
    instead of rebuilding them per CLI invocation.

    {2 Endpoints}

    - [POST /v1/solve] — wrapper/TAM co-optimization for one SOC (see
      {!Protocol} for the body). P1/P2 answer one audited schedule; P3
      answers the width-sweep (width, time, volume) points. With
      [?mode=async] the response is [202 Accepted] carrying a job id
      and a [Location] header; the solve proceeds in the background.
    - [GET /v1/jobs/<id>] — poll an async job. While queued/running it
      answers a status document (state, wait/run timings); once done it
      replays the parked solve response verbatim — byte-identical to
      what the sync path would have written; 404 for unknown or
      TTL-expired ids.
    - [DELETE /v1/jobs/<id>] — cancel: a queued job finishes
      immediately (200); a running one has its budget cancelled and
      winds down cooperatively (202, state [cancelling]); an already
      finished job answers 409.
    - [POST /v1/check] — audit a {!Soctest_tam.Schedule_io} text with
      {!Soctest_check.Audit.run}; always 200 with the report (a dirty
      schedule is a valid answer here, not a server error).
    - [GET /metrics] — the {!Soctest_obs.Obs} registry in Prometheus
      text format ({!Soctest_obs.Prom}): the engine's per-tier cache
      and store counters, per-endpoint/per-status request counters,
      per-endpoint latency histograms and the job-state gauges.
    - [GET /v1/debug/requests] — the flight recorder: the last
      [flight_capacity] completed requests (newest first; [?limit=N]
      truncates), each with its id, endpoint, status, per-phase timing
      decomposition, cache tier and store-audit flags. Async solves
      appear under the [async:/v1/solve] endpoint when they finish.
    - [GET /healthz] — liveness: status, uptime, in-flight count, open
      connections, worker count and queue depth.

    {2 Connections}

    HTTP/1.1 keep-alive with pipelining: each accepted connection gets
    its own thread that reads, routes and answers requests in order
    until the client closes or sends [Connection: close], the
    [idle_timeout_ms] expires between requests, [max_conn_requests]
    have been served (the last response says [Connection: close]), or
    the server drains. Bytes past one request's [Content-Length] are
    retained and framed as the next request, so a client may batch
    requests into one send; responses always come back in request
    order. At most [max_connections] connections are open at once —
    beyond that, accepts are answered [503] and closed. Framing errors
    (malformed request line, oversized bodies, mid-request stalls)
    answer once and close; protocol-level errors (bad JSON, unknown
    endpoints) answer and keep the connection, since the framing was
    sound.

    {2 Request lifecycle}

    Every request gets an id at parse time: an inbound [x-request-id]
    header is echoed back when it is a sane token, anything else gets a
    fresh {!Ulid}; every response carries the id in its [x-request-id]
    header. On a worker domain the id is ambient
    ({!Soctest_obs.Obs.with_request}) for the whole job, so engine
    spans and store log lines attribute to the request that queued
    them. Completed requests land in the flight recorder with a
    per-phase timing decomposition (queue wait, constraint prep, cache
    probe, disk audit, optimizer time, response audit, render, write —
    monotonic clock); a 5xx response or one slower than [slow_ms] also
    dumps its record through {!Soctest_obs.Log}.

    {2 Admission}

    Solve/check requests are fully validated on the connection thread
    (malformed JSON never consumes solver capacity), then admitted into
    a bounded in-flight window of [queue_depth] requests served by
    [workers] {!Dispatch} domains sharing one engine. A full window
    answers [429 Too Many Requests] with a [Retry-After] estimated
    from the current backlog and the recent mean handler time. The
    {!Dispatch} queue runs budgeted requests earliest-deadline-first,
    so a short-budget request admitted behind a long sweep overtakes
    it; requests without a budget run in arrival order after every
    budgeted one. A request's [budget_ms] becomes a
    {!Soctest_core.Budget} created {e at admission}, so time spent
    waiting consumes the caller's budget and an overloaded solve
    degrades to the best-incumbent [deadline] response rather than
    piling up. Every P1/P2 schedule is re-audited
    ({!Soctest_check.Audit.run}) before it is written back; the verdict
    rides in the response. Async jobs hold their admission slot from
    202 to completion — sync and async share one backpressure window —
    and their results are retained in a bounded {!Jobs} store for
    [job_ttl_ms] after finishing.

    {2 Shutdown}

    {!stop} (wired to SIGINT/SIGTERM by [soctest serve]) makes the
    accept loop exit; {!run} then wakes and joins the connection
    threads (each finishes its in-flight request), drains the dispatch
    queue — every admitted request, sync or async, is answered or
    parked in the job store — joins the worker domains and closes the
    listener before returning. *)

type config = {
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** worker domains solving admitted jobs *)
  queue_depth : int;  (** max admitted-but-unfinished solve/check jobs *)
  max_body : int;  (** request body cap, bytes (413 beyond) *)
  read_timeout_ms : float;  (** mid-request socket stall cap (408) *)
  idle_timeout_ms : float;
      (** kept-alive connection idle cap between requests (silent
          close) *)
  max_connections : int;  (** open-connection cap (503 beyond) *)
  max_conn_requests : int;
      (** requests served per connection before it is closed *)
  job_capacity : int;  (** async jobs retained at once (503 beyond) *)
  job_ttl_ms : float;  (** finished-job retention before eviction *)
  slow_ms : float option;
      (** dump a request's flight record through {!Soctest_obs.Log}
          when its end-to-end latency exceeds this; [None] disables *)
  flight_capacity : int;  (** completed requests the recorder retains *)
}

val config :
  ?port:int ->
  ?workers:int ->
  ?queue_depth:int ->
  ?max_body:int ->
  ?read_timeout_ms:float ->
  ?idle_timeout_ms:float ->
  ?max_connections:int ->
  ?max_conn_requests:int ->
  ?job_capacity:int ->
  ?job_ttl_ms:float ->
  ?slow_ms:float ->
  ?flight_capacity:int ->
  unit ->
  config
(** Defaults: port 8080, workers
    [max 1 (Domain.recommended_domain_count () - 1)], queue depth 64,
    1 MiB bodies, 10 s read timeout, 5 s idle timeout, 64 connections,
    1000 requests per connection, {!Jobs.default_capacity} jobs with
    {!Jobs.default_ttl_ms} retention, no slow threshold, 256 flight
    records.
    @raise Invalid_argument on a non-positive count/cap or a negative
    timeout/threshold. *)

type t

val create : ?engine:Soctest_engine.Engine.t -> config -> t
(** Bind and listen (loopback) and spawn the dispatch workers. A fresh
    engine is created when [engine] is omitted; pass one to share its
    caches with other work in the process. When {!Soctest_obs.Obs}
    recording is off, [create] enables metrics-only recording
    ([Obs.enable ~events:false]) so the request-lifecycle metrics are
    live in every embedding; an already-enabled Obs session (e.g. a
    test recording events) is left untouched.
    @raise Unix.Unix_error when the port cannot be bound. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port] was 0. *)

val engine : t -> Soctest_engine.Engine.t

val flight_recorder : t -> Soctest_obs.Flight.t
(** The server's flight recorder — what [GET /v1/debug/requests]
    reads; exposed for embeddings and tests. *)

val job_store : t -> Jobs.t
(** The async job store — what [/v1/jobs] reads; exposed for
    embeddings and tests. *)

val run : t -> unit
(** Serve until {!stop}: accept, validate, admit, answer. Returns only
    after the connection threads and the dispatch queue have drained
    and the workers have been joined. Call from the domain that owns
    the server (tests run it in a spawned domain). *)

val stop : t -> unit
(** Ask {!run} to finish (idempotent, safe from signal handlers and
    other domains): no new connections are accepted, open connections
    finish their in-flight request, admitted jobs drain. *)
