module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow
module Budget = Soctest_core.Budget
module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Rectpack = Soctest_pack.Rectpack
module Schedule = Soctest_tam.Schedule
module Constraint_def = Soctest_constraints.Constraint_def
module Soc_def = Soctest_soc.Soc_def
module Audit = Soctest_check.Audit
module Obs = Soctest_obs.Obs
module Json = Soctest_obs.Json
module Clock = Soctest_obs.Clock
module Log = Soctest_obs.Log
module Flight = Soctest_obs.Flight
module Prom = Soctest_obs.Prom

type config = {
  port : int;
  workers : int;
  queue_depth : int;
  max_body : int;
  read_timeout_ms : float;
  idle_timeout_ms : float;
  max_connections : int;
  max_conn_requests : int;
  job_capacity : int;
  job_ttl_ms : float;
  slow_ms : float option;
  flight_capacity : int;
}

let config ?(port = 8080)
    ?(workers = max 1 (Domain.recommended_domain_count () - 1))
    ?(queue_depth = 64) ?(max_body = Http.default_max_body)
    ?(read_timeout_ms = 10_000.) ?(idle_timeout_ms = 5_000.)
    ?(max_connections = 64) ?(max_conn_requests = 1000)
    ?(job_capacity = Jobs.default_capacity) ?(job_ttl_ms = Jobs.default_ttl_ms)
    ?slow_ms ?(flight_capacity = 256) () =
  if port < 0 then invalid_arg "Server.config: negative port";
  if workers < 1 then invalid_arg "Server.config: workers must be >= 1";
  if queue_depth < 1 then
    invalid_arg "Server.config: queue_depth must be >= 1";
  if max_body < 1 then invalid_arg "Server.config: max_body must be >= 1";
  if read_timeout_ms < 0. then
    invalid_arg "Server.config: negative read_timeout_ms";
  if idle_timeout_ms < 0. then
    invalid_arg "Server.config: negative idle_timeout_ms";
  if max_connections < 1 then
    invalid_arg "Server.config: max_connections must be >= 1";
  if max_conn_requests < 1 then
    invalid_arg "Server.config: max_conn_requests must be >= 1";
  if job_capacity < 1 then
    invalid_arg "Server.config: job_capacity must be >= 1";
  if job_ttl_ms < 0. then invalid_arg "Server.config: negative job_ttl_ms";
  (match slow_ms with
  | Some ms when ms < 0. -> invalid_arg "Server.config: negative slow_ms"
  | _ -> ());
  if flight_capacity < 1 then
    invalid_arg "Server.config: flight_capacity must be >= 1";
  { port; workers; queue_depth; max_body; read_timeout_ms; idle_timeout_ms;
    max_connections; max_conn_requests; job_capacity; job_ttl_ms; slow_ms;
    flight_capacity }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  engine_ : Engine.t;
  dispatch : Dispatch.t;
  jobs : Jobs.t;
  inflight : int Atomic.t;  (* admitted (queued or running) solve/check *)
  conns : int Atomic.t;  (* open client connections *)
  conn_lock : Mutex.t;
  live : (int, Unix.file_descr * Thread.t) Hashtbl.t;  (* token -> conn *)
  conn_token : int Atomic.t;
  (* completed-handler statistics feeding the Retry-After estimate *)
  handled_n : int Atomic.t;
  handled_ms : int Atomic.t;
  stopping : bool Atomic.t;
  started_at : float;  (* monotonic ms *)
  flight : Flight.t;
}

(* Request-lifecycle metrics. [create] turns on metrics-only Obs
   recording itself, so these are live in every embedding, not just
   under [soctest serve]. *)
let accepted_c = Obs.counter "serve.accepted"
let rejected_c = Obs.counter "serve.rejected"
let bad_request_c = Obs.counter "serve.bad_request"
let completed_c = Obs.counter "serve.completed"
let deadline_c = Obs.counter "serve.deadline_exceeded"
let inflight_g = Obs.gauge "serve.inflight"

(* Latency buckets much finer than [Obs.default_edges]: the default
   decade-ish edges put every handler between 10 and 50 ms into one
   bucket, so server-side percentile estimates degenerated to a single
   edge value (BENCH_8 reported p50 = p99 = 50.000). Roughly 1.5x steps
   across the 1 ms – 5 s range keep within-bucket interpolation honest. *)
let latency_edges =
  [|
    1.; 2.; 3.; 5.; 7.5; 10.; 15.; 20.; 30.; 40.; 50.; 75.; 100.; 150.;
    200.; 300.; 500.; 750.; 1000.; 2000.; 5000.;
  |]

let latency_h = Obs.histogram ~edges:latency_edges "serve.latency_ms"
let conns_g = Obs.gauge "serve.connections"
let conn_accepted_c = Obs.counter "serve.conn_accepted"
let conn_rejected_c = Obs.counter "serve.conn_rejected"

(* Per-endpoint/per-status series: labels ride inside the registry name
   (the {!Prom} rendering convention), so the registry stays a flat
   table and these land as labelled Prometheus series. *)
let requests_c ~endpoint ~status =
  Obs.counter
    (Printf.sprintf "serve.requests{endpoint=%S,status=%S}" endpoint
       (string_of_int status))

let request_ms_h ~endpoint =
  Obs.histogram ~edges:latency_edges
    (Printf.sprintf "serve.request_ms{endpoint=%S}" endpoint)

let create ?engine cfg =
  (* metrics-only: embedding [Server] must not silently record nothing,
     and must not clobber an Obs session a host already runs (tests
     enable full recording before creating servers) *)
  if not (Obs.enabled ()) then Obs.enable ~events:false ();
  let engine_ =
    match engine with Some e -> e | None -> Engine.create ()
  in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, cfg.port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  {
    cfg;
    listen_fd = fd;
    bound_port;
    engine_;
    dispatch = Dispatch.create ~jobs:cfg.workers ();
    jobs = Jobs.create ~capacity:cfg.job_capacity ~ttl_ms:cfg.job_ttl_ms ();
    inflight = Atomic.make 0;
    conns = Atomic.make 0;
    conn_lock = Mutex.create ();
    live = Hashtbl.create 32;
    conn_token = Atomic.make 0;
    handled_n = Atomic.make 0;
    handled_ms = Atomic.make 0;
    stopping = Atomic.make false;
    started_at = Clock.now_ms ();
    flight = Flight.create ~capacity:cfg.flight_capacity;
  }

let port t = t.bound_port
let engine t = t.engine_
let flight_recorder t = t.flight
let job_store t = t.jobs
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let json_headers = [ ("Content-Type", "application/json") ]

(* ------------------------------------------------------------------ *)
(* Per-request context and the uniform completion path. Handlers build
   a [reply]; [complete] writes it (echoing the request id) and then
   [observe]s it — per-endpoint metrics, the flight record, a {!Log}
   dump on 5xx or a slow request. Async jobs run [observe] without
   [complete]: their bytes leave later, through GET /v1/jobs/<id>. *)

type reply = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let json_reply ?(headers = []) ~status body =
  { status; headers = headers @ json_headers; body }

let error_reply ?detail ~code msg =
  json_reply ~status:(Protocol.error_status code)
    (Protocol.error_body ~code ?detail msg)

type ctx = {
  id : string;
  endpoint : string;
  accepted_at : float;  (* monotonic ms: request parsed, context minted *)
  mutable queued_at : float;  (* monotonic ms at admission *)
  mutable phases : (string * float) list;  (* reverse accumulation *)
  mutable tier : string;
  mutable store_rejected : bool;
  mutable healed : bool;
}

(* An inbound x-request-id is echoed when it is a sane header token;
   anything else (or nothing) gets a fresh ULID. *)
let acceptable_inbound_id s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       s

let make_ctx ?req ?id ~endpoint () =
  let id =
    match id with
    | Some id -> id
    | None -> (
      match Option.bind req (fun r -> Http.header r "x-request-id") with
      | Some inbound when acceptable_inbound_id inbound -> inbound
      | _ -> Ulid.gen ())
  in
  {
    id;
    endpoint;
    accepted_at = Clock.now_ms ();
    queued_at = 0.;
    phases = [];
    tier = "-";
    store_rejected = false;
    healed = false;
  }

let add_phase ctx name ms = ctx.phases <- (name, ms) :: ctx.phases

let phase ctx name f =
  let t0 = Clock.now_ms () in
  let r = f () in
  add_phase ctx name (Float.max 0. (Clock.now_ms () -. t0));
  r

(* Merge repeated phase names (a P3 sweep attributes engine phases once
   per width) and restore accumulation order. *)
let merged_phases ctx =
  List.fold_left
    (fun acc (name, ms) ->
      match List.assoc_opt name acc with
      | Some _ ->
        List.map (fun (n, v) -> if n = name then (n, v +. ms) else (n, v)) acc
      | None -> acc @ [ (name, ms) ])
    [] (List.rev ctx.phases)

let observe t ctx (reply : reply) =
  let total = Float.max 0. (Clock.now_ms () -. ctx.accepted_at) in
  Obs.observe latency_h total;
  Obs.observe (request_ms_h ~endpoint:ctx.endpoint) total;
  Obs.incr (requests_c ~endpoint:ctx.endpoint ~status:reply.status);
  let slow =
    match t.cfg.slow_ms with Some ms -> total > ms | None -> false
  in
  let record =
    {
      Flight.id = ctx.id;
      endpoint = ctx.endpoint;
      status = reply.status;
      total_ms = total;
      phases = merged_phases ctx;
      tier = ctx.tier;
      store_rejected = ctx.store_rejected;
      healed = ctx.healed;
      slow;
    }
  in
  Flight.record t.flight record;
  (* connection threads complete outside any [with_request]; re-assert
     the ambient id so every line carries it exactly once *)
  Obs.with_request ctx.id @@ fun () ->
  Log.info "serve.request"
    ~fields:
      [
        ("endpoint", Json.String ctx.endpoint);
        ("status", Json.Int reply.status);
        ("total_ms", Json.Float total);
        ("tier", Json.String ctx.tier);
      ];
  if reply.status >= 500 then
    Log.error "serve.error_response"
      ~fields:[ ("record", Flight.to_json record) ]
  else if slow then
    Log.warn "serve.slow" ~fields:[ ("record", Flight.to_json record) ]

let complete t ctx conn ~close (reply : reply) =
  let w0 = Clock.now_ms () in
  Http.write_response
    ~headers:(("x-request-id", ctx.id) :: reply.headers)
    ~close (Http.fd conn) ~status:reply.status reply.body;
  add_phase ctx "write" (Float.max 0. (Clock.now_ms () -. w0));
  observe t ctx reply

(* ------------------------------------------------------------------ *)
(* GET endpoints — answered on the connection thread, never queued *)

let uptime_ms t = Float.max 0. (Clock.now_ms () -. t.started_at)

let healthz t =
  Json.to_string
    (Json.Obj
       [
         ( "status",
           Json.String (if Atomic.get t.stopping then "draining" else "ok")
         );
         ("uptime_ms", Json.Float (uptime_ms t));
         ("inflight", Json.Int (Atomic.get t.inflight));
         ("connections", Json.Int (Atomic.get t.conns));
         ("workers", Json.Int t.cfg.workers);
         ("queue_depth", Json.Int t.cfg.queue_depth);
       ])

let debug_requests t query =
  let limit =
    match List.assoc_opt "limit" query with
    | Some v -> int_of_string_opt v
    | None -> None
  in
  Json.to_string
    (Json.Obj
       [
         ( "requests",
           Json.List (List.map Flight.to_json (Flight.recent ?limit t.flight))
         );
       ])

(* ------------------------------------------------------------------ *)
(* solve / check execution — runs on a dispatch worker domain *)

let constraints_of_solve (req : Protocol.solve_request) =
  match req.problem with
  | Protocol.P1 ->
    Constraint_def.empty ~core_count:(Soc_def.core_count req.soc)
  | Protocol.P2 | Protocol.P3 ->
    let max_preemptions =
      match req.preempt with
      | Some limit -> Flow.preemption_budget req.soc ~limit
      | None -> []
    in
    Constraint_def.of_soc req.soc ?power_limit:req.power_limit
      ~max_preemptions ()

let grid_of = function
  | Protocol.Point -> Engine.point_grid ()
  | Protocol.Grid -> Engine.default_grid
  | Protocol.Rectpack | Protocol.Rectpack_diag ->
    (* rectpack solves bypass the evaluation grid (see [handle_solve]) *)
    invalid_arg "grid_of: rectpack strategies do not search a grid"

let problem_name = function
  | Protocol.P1 -> "p1"
  | Protocol.P2 -> "p2"
  | Protocol.P3 -> "p3"

let status_name = function
  | Engine.Complete -> "complete"
  | Engine.Deadline -> "deadline"

(* Attribute an engine solve's elapsed time to the flight-record
   phases: disk probe+audit and optimizer time are measured inside the
   engine; the remainder is memory-cache probing and bookkeeping. *)
let note_engine_phases ctx (s : Engine.stats) =
  let probe = s.Engine.store_probe_ms in
  let solve = s.Engine.eval_solve_ms in
  add_phase ctx "cache_probe"
    (Float.max 0. (s.Engine.elapsed_ms -. probe -. solve));
  add_phase ctx "disk_audit" probe;
  add_phase ctx "solve" solve

let note_tier ctx (s : Engine.stats) =
  ctx.tier <-
    (if s.Engine.eval_computed > 0 then "solve"
     else if s.Engine.eval_from_store > 0 then "store"
     else "memory")

(* Store-audit outcome flags, from the engine's tier counters around
   the solve. [healed] means a rejected entry degraded to a fresh solve
   whose write-through then replaced it. Deltas are per-engine, so a
   concurrent worker's reject can blur attribution — good enough for a
   diagnostic flag. *)
let with_store_flags t ctx f =
  let s0 = Engine.store_stats t.engine_ in
  let r = f () in
  let s1 = Engine.store_stats t.engine_ in
  if s1.Engine.audit_rejects > s0.Engine.audit_rejects then begin
    ctx.store_rejected <- true;
    ctx.healed <- s1.Engine.write_errors = s0.Engine.write_errors
  end;
  r

let handle_solve t ctx (req : Protocol.solve_request) ~budget =
  (* test aid: hold this worker to make admission control and
     cancellation deterministic under test *)
  if req.stall_ms > 0 then
    phase ctx "stall" (fun () ->
        Unix.sleepf (float_of_int req.stall_ms /. 1000.));
  let constraints = phase ctx "prep" (fun () -> constraints_of_solve req) in
  (* a rectpack solve does not search the evaluation grid; it runs the
     packer directly and is dressed as an [Engine.outcome] so the audit,
     flight-record and rendering paths below stay uniform. Its schedule
     has no cache entry, so its verdict is a direct audit. *)
  let rectpack_solve ~tam_width order =
    let t0 = Clock.now_ms () in
    let prepared = Engine.prepare t.engine_ ~wmax:req.wmax req.soc in
    let o = Rectpack.schedule ~order prepared ~tam_width ~constraints in
    let elapsed = Clock.now_ms () -. t0 in
    let sched = o.Rectpack.schedule in
    let widths =
      List.filter_map
        (fun c -> Option.map (fun w -> (c, w)) (Schedule.width_of_core sched c))
        (Schedule.cores sched)
    in
    {
      Engine.result =
        {
          Optimizer.schedule = sched;
          testing_time = o.Rectpack.testing_time;
          widths;
          preemptions = [];
          params = Optimizer.default_params;
        };
      status = Engine.Complete;
      evaluations = 1;
      stats =
        {
          Engine.pareto_computed = 0;
          pareto_cached = 0;
          eval_computed = 1;
          eval_cached = 0;
          eval_deduped = 0;
          eval_from_store = 0;
          elapsed_ms = elapsed;
          store_probe_ms = 0.;
          eval_solve_ms = elapsed;
        };
      verdict =
        (fun () ->
          Audit.run req.soc
            (Engine.audit_spec t.engine_ ~prepared ~wmax:req.wmax
               ~expect_tam_width:tam_width constraints)
            sched);
    }
  in
  let solve ~tam_width =
    match req.strategy with
    | Protocol.Point | Protocol.Grid ->
      Engine.solve t.engine_
        (Engine.request req.soc ~tam_width ~constraints ~wmax:req.wmax
           ~grid:(grid_of req.strategy) ~budget ())
    | Protocol.Rectpack -> rectpack_solve ~tam_width Rectpack.Plain
    | Protocol.Rectpack_diag -> rectpack_solve ~tam_width Rectpack.Diagonal
  in
  let common =
    [
      ("soc", Json.String req.soc_source);
      ("width", Json.Int req.tam_width);
      ("problem", Json.String (problem_name req.problem));
    ]
  in
  match req.problem with
  | Protocol.P1 | Protocol.P2 ->
    let outcome =
      with_store_flags t ctx (fun () -> solve ~tam_width:req.tam_width)
    in
    note_engine_phases ctx outcome.Engine.stats;
    note_tier ctx outcome.Engine.stats;
    (match outcome.Engine.status with
    | Engine.Deadline -> Obs.incr deadline_c
    | Engine.Complete -> ());
    (* no unaudited schedule leaves the service: a grid or point solve's
       verdict is kept on its cache entry, so only the first answer from
       an entry runs the audit *)
    let audit = phase ctx "audit" outcome.Engine.verdict in
    let lower_bound =
      phase ctx "bound" (fun () ->
          Lower_bound.compute_constrained
            (Engine.prepare t.engine_ ~wmax:req.wmax req.soc)
            ~tam_width:req.tam_width ~constraints)
    in
    if Audit.ok audit then
      json_reply ~status:200
        (phase ctx "render" (fun () ->
             Json.to_string
               (Json.Obj
                  (common
                  @ [
                      ( "result",
                        Protocol.json_of_outcome ~lower_bound ~soc:req.soc
                          outcome );
                      ("audit", Protocol.json_of_report audit);
                    ]))))
    else
      (* a dirty schedule out of the solver is a server bug, not a
         client error *)
      json_reply ~status:500
        (Protocol.error_body ~code:Protocol.Internal
           ~detail:(Json.Obj [ ("audit", Protocol.json_of_report audit) ])
           "solver produced a schedule that failed its audit")
  | Protocol.P3 ->
    let max_width = Option.value req.max_width ~default:req.tam_width in
    let widths = List.init max_width (fun i -> i + 1) in
    let outcomes =
      with_store_flags t ctx (fun () ->
          match req.strategy with
          | Protocol.Point | Protocol.Grid ->
            Engine.solve_many t.engine_
              (List.map
                 (fun w ->
                   Engine.request req.soc ~tam_width:w ~constraints
                     ~wmax:req.wmax ~grid:(grid_of req.strategy) ~budget ())
                 widths)
          | Protocol.Rectpack | Protocol.Rectpack_diag ->
            List.map (fun w -> solve ~tam_width:w) widths)
    in
    List.iter (fun (o : Engine.outcome) ->
        note_engine_phases ctx o.Engine.stats)
      outcomes;
    (* the sweep's tier is its most expensive constituent *)
    let summed =
      List.fold_left
        (fun (c, s) (o : Engine.outcome) ->
          ( c + o.Engine.stats.Engine.eval_computed,
            s + o.Engine.stats.Engine.eval_from_store ))
        (0, 0) outcomes
    in
    (ctx.tier <-
       (match summed with
       | c, _ when c > 0 -> "solve"
       | _, s when s > 0 -> "store"
       | _ -> "memory"));
    if List.exists (fun o -> o.Engine.status = Engine.Deadline) outcomes
    then Obs.incr deadline_c;
    let points =
      List.map2
        (fun w (o : Engine.outcome) ->
          let time = o.Engine.result.Optimizer.testing_time in
          Json.Obj
            [
              ("width", Json.Int w);
              ("time", Json.Int time);
              ("volume", Json.Int (w * time));
              ("status", Json.String (status_name o.Engine.status));
            ])
        widths outcomes
    in
    let evaluations =
      List.fold_left (fun n o -> n + o.Engine.evaluations) 0 outcomes
    in
    json_reply ~status:200
      (phase ctx "render" (fun () ->
           Json.to_string
             (Json.Obj
                (common
                @ [
                    ("points", Json.List points);
                    ("evaluations", Json.Int evaluations);
                  ]))))

let handle_check t ctx (req : Protocol.check_request) =
  let constraints =
    phase ctx "prep" (fun () ->
        let max_preemptions =
          match req.preempt with
          | Some limit when limit >= 0 ->
            Flow.preemption_budget req.soc ~limit
          | _ -> []
        in
        Constraint_def.of_soc req.soc ?power_limit:req.power_limit
          ~max_preemptions ())
  in
  let spec =
    Engine.audit_spec t.engine_ ~wmax:req.wmax
      ~require_complete:(not req.partial) constraints
  in
  let report = phase ctx "audit" (fun () -> Audit.run req.soc spec req.schedule) in
  (* violations are the answer here, not an error *)
  json_reply ~status:200
    (phase ctx "render" (fun () ->
         Json.to_string
           (Json.Obj
              [
                ("soc", Json.String req.soc_source);
                ("audit", Protocol.json_of_report report);
              ])))

(* ------------------------------------------------------------------ *)
(* admission control *)

let try_admit t =
  let rec go () =
    let n = Atomic.get t.inflight in
    if n >= t.cfg.queue_depth then false
    else if Atomic.compare_and_set t.inflight n (n + 1) then true
    else go ()
  in
  go ()

let note_inflight t =
  Obs.set_gauge inflight_g (float_of_int (Atomic.get t.inflight))

let release_slot t =
  Atomic.decr t.inflight;
  note_inflight t

(* Retry-After for a full admission window: how long until a slot
   should free up, from the current backlog and the recent mean
   handler time spread over the workers. Clamped to [1, 60] s. Before
   any request has completed, the mean is undefined (0/0); rather than
   collapsing the whole estimate to the floor — a cold server that is
   already saturated is exactly when honest backpressure matters — we
   assume a 250 ms handler so the estimate still scales with backlog.
   The final clamp goes through [Float.is_nan] so no arithmetic
   surprise can reach [int_of_float nan] (which is 0, i.e. a
   "Retry-After: 0" header telling clients to hammer us). *)
let cold_start_mean_ms = 250.

let retry_after_s t =
  let n = Atomic.get t.handled_n in
  let mean_ms =
    if n = 0 then cold_start_mean_ms
    else float_of_int (Atomic.get t.handled_ms) /. float_of_int n
  in
  let backlog = float_of_int (Atomic.get t.inflight) in
  let s = ceil (backlog *. mean_ms /. float_of_int t.cfg.workers /. 1000.) in
  if Float.is_nan s then 1 else int_of_float (Float.min 60. (Float.max 1. s))

(* Run an admitted handler on a worker domain: ambient request id,
   queue-wait phase, handler-time sample for {!retry_after_s}, and the
   uniform exception-to-reply mapping. Always yields a reply. *)
let run_admitted t ctx run =
  Obs.with_request ctx.id @@ fun () ->
  add_phase ctx "queue" (Float.max 0. (Clock.now_ms () -. ctx.queued_at));
  let t0 = Clock.now_ms () in
  let reply =
    try run ()
    with
    | Optimizer.Infeasible msg ->
      error_reply ~code:Protocol.Infeasible ("infeasible: " ^ msg)
    | exn -> error_reply ~code:Protocol.Internal (Printexc.to_string exn)
  in
  Atomic.incr t.handled_n;
  ignore
    (Atomic.fetch_and_add t.handled_ms
       (int_of_float (Float.max 0. (Clock.now_ms () -. t0))));
  reply

(* One-shot synchronization cell between the connection thread (which
   owns the socket and must write responses in pipeline order) and the
   worker domain that computes the reply. The reply travels with the
   monotonic instant it was put, so the taker can time the hand-off. *)
type reply_cell = {
  cell_lock : Mutex.t;
  cell_cond : Condition.t;
  mutable cell : (reply * float) option;
}

let cell () =
  { cell_lock = Mutex.create (); cell_cond = Condition.create (); cell = None }

let put_cell c reply =
  Mutex.lock c.cell_lock;
  c.cell <- Some (reply, Clock.now_ms ());
  Condition.signal c.cell_cond;
  Mutex.unlock c.cell_lock

(* Blocks for the reply; books the wait from its [put_cell] to this
   thread's wake-up as the request's [handoff] phase. *)
let take_cell ctx c =
  Mutex.lock c.cell_lock;
  while c.cell = None do
    Condition.wait c.cell_cond c.cell_lock
  done;
  let r, put_at = match c.cell with Some p -> p | None -> assert false in
  Mutex.unlock c.cell_lock;
  add_phase ctx "handoff" (Float.max 0. (Clock.now_ms () -. put_at));
  r

(* Absolute EDF key for the dispatch queue: a budgeted request's
   deadline in monotonic ms; an unbudgeted one has none and sorts after
   every budgeted request. *)
let budget_of ?budget_ms () =
  match budget_ms with
  | None -> (Budget.unlimited, None)
  | Some ms -> (Budget.create ~deadline_ms:ms (), Some (Clock.now_ms () +. ms))

let reject_busy t ctx conn ~close =
  Obs.incr rejected_c;
  complete t ctx conn ~close
    {
      (error_reply ~code:Protocol.Queue_full "queue full, retry later") with
      headers =
        ("Retry-After", string_of_int (retry_after_s t)) :: json_headers;
    }

(* Synchronous solve/check: admit, dispatch, block this connection
   thread on the reply (responses stay in pipeline order because the
   next request is not read until this one is answered), write it. *)
let admit_sync t conn ctx ~close ?budget_ms run =
  if not (try_admit t) then reject_busy t ctx conn ~close
  else begin
    Obs.incr accepted_c;
    note_inflight t;
    (* created at admission: queue wait burns the caller's budget *)
    let budget, deadline = budget_of ?budget_ms () in
    ctx.queued_at <- Clock.now_ms ();
    let c = cell () in
    let task () = put_cell c (run_admitted t ctx (fun () -> run ~budget)) in
    match Dispatch.submit t.dispatch ?deadline task with
    | () ->
      Fun.protect
        ~finally:(fun () -> release_slot t)
        (fun () ->
          let reply = take_cell ctx c in
          Obs.incr completed_c;
          complete t ctx conn ~close reply)
    | exception Invalid_argument _ ->
      (* raced with shutdown *)
      release_slot t;
      complete t ctx conn ~close:true
        (error_reply ~code:Protocol.Shutting_down "server shutting down")
  end

(* Async solve: admit and register the job, answer 202 immediately; the
   worker parks the rendered reply in the job store for
   GET /v1/jobs/<id> to collect. The job holds its admission slot until
   it finishes, so sync and async requests share one backpressure
   window. *)
let admit_async t conn ctx ~close (sreq : Protocol.solve_request) =
  if not (try_admit t) then reject_busy t ctx conn ~close
  else begin
    Obs.incr accepted_c;
    note_inflight t;
    let budget, deadline = budget_of ?budget_ms:sreq.Protocol.budget_ms () in
    let job_id = Ulid.gen () in
    match Jobs.submit t.jobs ~id:job_id ~request_id:ctx.id ~budget with
    | Error `Full ->
      release_slot t;
      Obs.incr rejected_c;
      complete t ctx conn ~close
        (error_reply ~code:Protocol.Jobs_full
           "job store full, retry later or collect finished jobs")
    | Ok entry -> (
      (* the job completes on its own context: the 202 below and the
         eventual solve are two observations, not one *)
      let jctx = make_ctx ~id:ctx.id ~endpoint:"async:/v1/solve" () in
      jctx.queued_at <- Clock.now_ms ();
      let task () =
        Fun.protect
          ~finally:(fun () -> release_slot t)
          (fun () ->
            (* false when the job was cancelled before a worker got to
               it — skip the solve, the slot is all there is to free *)
            if Jobs.start t.jobs entry then begin
              let reply =
                run_admitted t jctx (fun () -> handle_solve t jctx sreq ~budget)
              in
              Jobs.finish t.jobs entry
                { Jobs.status = reply.status; body = reply.body };
              Obs.incr completed_c;
              observe t jctx reply
            end)
      in
      match Dispatch.submit t.dispatch ?deadline task with
      | () ->
        complete t ctx conn ~close
          (json_reply ~status:202
             ~headers:
               [
                 ("Location", Protocol.job_url job_id);
                 ("x-job-id", job_id);
               ]
             (Protocol.job_accepted_body ~id:job_id))
      | exception Invalid_argument _ ->
        ignore (Jobs.cancel t.jobs job_id);
        release_slot t;
        complete t ctx conn ~close:true
          (error_reply ~code:Protocol.Shutting_down "server shutting down"))
  end

(* ------------------------------------------------------------------ *)
(* async job endpoints — answered on the connection thread *)

let job_path path =
  let prefix = "/v1/jobs/" in
  let n = String.length prefix in
  if String.length path > n && String.sub path 0 n = prefix then
    let id = String.sub path n (String.length path - n) in
    if String.contains id '/' then None else Some id
  else None

let job_status t ctx (id : string) =
  match Jobs.find t.jobs id with
  | None ->
    error_reply ~code:Protocol.Not_found
      (Printf.sprintf "no such job: %s (unknown or expired)" id)
  | Some v -> (
    match v.Jobs.v_outcome with
    | Some o ->
      (* replay the parked reply verbatim: the async result is
         bit-identical to what the sync path would have written *)
      ctx.tier <- "job";
      {
        status = o.Jobs.status;
        headers = json_headers @ [ ("x-job-id", id) ];
        body = o.Jobs.body;
      }
    | None ->
      json_reply ~status:200
        ~headers:[ ("x-job-id", id) ]
        (Json.to_string (Protocol.json_of_job v)))

let job_cancel t (id : string) =
  match Jobs.cancel t.jobs id with
  | `Unknown ->
    error_reply ~code:Protocol.Not_found
      (Printf.sprintf "no such job: %s (unknown or expired)" id)
  | `Already_finished state ->
    error_reply ~code:Protocol.Conflict
      ~detail:(Json.Obj [ ("state", Json.String state) ])
      "job already finished"
  | `Cancelled ->
    json_reply ~status:200
      (Json.to_string
         (Json.Obj
            [ ("id", Json.String id); ("state", Json.String "cancelled") ]))
  | `Cancelling ->
    (* running: budget cancelled, the solve is winding down *)
    json_reply ~status:202
      (Json.to_string
         (Json.Obj
            [ ("id", Json.String id); ("state", Json.String "cancelling") ]))

(* ------------------------------------------------------------------ *)
(* routing and the connection loop *)

let prom_headers = [ ("Content-Type", "text/plain; version=0.0.4") ]

let job_path_label = "/v1/jobs/:id"

let route t conn ~close (req : Http.request) =
  let path, query = Http.split_target req.Http.target in
  (* job polls must not mint one metric series per job id *)
  let endpoint =
    let prefix = "/v1/jobs/" in
    if
      String.length path >= String.length prefix
      && String.sub path 0 (String.length prefix) = prefix
    then job_path_label
    else path
  in
  let ctx = make_ctx ~req ~endpoint () in
  let answer reply = complete t ctx conn ~close reply in
  match (req.Http.meth, path) with
  | "GET", "/healthz" ->
    answer (phase ctx "render" (fun () -> json_reply ~status:200 (healthz t)))
  | "GET", "/metrics" ->
    answer
      (phase ctx "render" (fun () ->
           { status = 200; headers = prom_headers; body = Prom.render () }))
  | "GET", "/v1/debug/requests" ->
    answer
      (phase ctx "render" (fun () ->
           json_reply ~status:200 (debug_requests t query)))
  | "POST", "/v1/solve" -> (
    match
      phase ctx "decode" (fun () ->
          Protocol.solve_request_of_body req.Http.body)
    with
    | Error msg ->
      Obs.incr bad_request_c;
      answer (error_reply ~code:Protocol.Bad_request_error msg)
    | Ok sreq -> (
      match List.assoc_opt "mode" query with
      | None | Some "sync" ->
        admit_sync t conn ctx ~close ?budget_ms:sreq.Protocol.budget_ms
          (fun ~budget -> handle_solve t ctx sreq ~budget)
      | Some "async" -> admit_async t conn ctx ~close sreq
      | Some m ->
        Obs.incr bad_request_c;
        answer
          (error_reply ~code:Protocol.Bad_request_error
             (Printf.sprintf "unknown mode %S (sync or async)" m))))
  | "POST", "/v1/check" -> (
    match
      phase ctx "decode" (fun () ->
          Protocol.check_request_of_body req.Http.body)
    with
    | Error msg ->
      Obs.incr bad_request_c;
      answer (error_reply ~code:Protocol.Bad_request_error msg)
    | Ok creq ->
      admit_sync t conn ctx ~close (fun ~budget:_ -> handle_check t ctx creq))
  | "GET", p when job_path p <> None ->
    answer
      (phase ctx "render" (fun () ->
           job_status t ctx (Option.get (job_path p))))
  | "DELETE", p when job_path p <> None ->
    answer (job_cancel t (Option.get (job_path p)))
  | meth, p
    when List.mem p
           [
             "/healthz"; "/metrics"; "/v1/debug/requests"; "/v1/solve";
             "/v1/check";
           ]
         || job_path p <> None ->
    (* a real endpoint spoken to with the wrong verb *)
    Obs.incr bad_request_c;
    answer
      (error_reply ~code:Protocol.Method_not_allowed
         (Printf.sprintf "method %s not supported on %s" meth p))
  | (("GET" | "POST" | "DELETE") as meth), target ->
    Obs.incr bad_request_c;
    answer
      (error_reply ~code:Protocol.Not_found
         (Printf.sprintf "no such endpoint: %s %s" meth target))
  | meth, _ ->
    Obs.incr bad_request_c;
    answer
      (error_reply ~code:Protocol.Method_not_allowed
         (Printf.sprintf "method %s not supported" meth))

(* Serve one kept-alive connection to completion: read, route, answer,
   repeat — until the client closes or asks to ([Connection: close]),
   the idle timeout expires, the per-connection request budget runs
   out, or the server starts draining. Framing errors answer once with
   [Connection: close] (the byte stream is no longer trustworthy);
   protocol-level errors (bad JSON, 404s) keep the connection — the
   framing was sound. *)
let serve_connection t conn =
  let rec loop served =
    if Atomic.get t.stopping then ()
    else
      match
        Http.read_request ~max_body:t.cfg.max_body
          ~idle_timeout_ms:t.cfg.idle_timeout_ms
          ~read_timeout_ms:t.cfg.read_timeout_ms conn
      with
      | Error (Http.Idle | Http.Closed) -> ()
      | Error (Http.Bad_request msg) ->
        Obs.incr bad_request_c;
        complete t (make_ctx ~endpoint:"-" ()) conn ~close:true
          (error_reply ~code:Protocol.Bad_request_error msg)
      | Error (Http.Payload_too_large { limit }) ->
        Obs.incr bad_request_c;
        complete t (make_ctx ~endpoint:"-" ()) conn ~close:true
          (error_reply ~code:Protocol.Payload_too_large_error
             (Printf.sprintf "request body exceeds %d bytes" limit))
      | Error Http.Timeout ->
        Obs.incr bad_request_c;
        complete t (make_ctx ~endpoint:"-" ()) conn ~close:true
          (error_reply ~code:Protocol.Request_timeout
             "timed out reading request")
      | Ok req ->
        let served = served + 1 in
        let close =
          Http.wants_close req
          || served >= t.cfg.max_conn_requests
          || Atomic.get t.stopping
        in
        route t conn ~close req;
        if not close then loop served
  in
  loop 0

let spawn_connection t fd =
  (* answers on a kept-alive socket must not wait out Nagle against the
     client's delayed ACK *)
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  Obs.incr conn_accepted_c;
  Atomic.incr t.conns;
  Obs.set_gauge conns_g (float_of_int (Atomic.get t.conns));
  let token = Atomic.fetch_and_add t.conn_token 1 in
  let body () =
    Fun.protect
      ~finally:(fun () ->
        close_quietly fd;
        Mutex.lock t.conn_lock;
        Hashtbl.remove t.live token;
        Mutex.unlock t.conn_lock;
        Atomic.decr t.conns;
        Obs.set_gauge conns_g (float_of_int (Atomic.get t.conns)))
      (fun () ->
        try serve_connection t (Http.conn fd)
        with exn ->
          (* defensive: no single connection may kill its thread
             silently — answer if the socket still works, then drop *)
          try
            Http.write_response
              ~headers:(("x-request-id", Ulid.gen ()) :: json_headers)
              fd ~status:500
              (Protocol.error_body ~code:Protocol.Internal
                 (Printexc.to_string exn))
          with _ -> ())
  in
  (* holding the lock across create+insert: the thread's own removal
     (in its [finally]) blocks until the entry exists *)
  Mutex.lock t.conn_lock;
  let th = Thread.create body () in
  Hashtbl.replace t.live token (fd, th);
  Mutex.unlock t.conn_lock

let run t =
  Log.info "serve.started"
    ~fields:
      [
        ("port", Json.Int t.bound_port);
        ("workers", Json.Int t.cfg.workers);
        ("queue_depth", Json.Int t.cfg.queue_depth);
      ];
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
        if Atomic.get t.conns >= t.cfg.max_connections then begin
          Obs.incr conn_rejected_c;
          (try
             Http.write_response ~headers:json_headers fd ~status:503
               (Protocol.error_body ~code:Protocol.Connections_full
                  "connection limit reached, retry later")
           with _ -> ());
          close_quietly fd
        end
        else spawn_connection t fd;
        loop ()
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (ECONNABORTED, _, _) -> loop ()
      | exception Unix.Unix_error ((EINVAL | EBADF), _, _)
        when Atomic.get t.stopping ->
        (* [stop] shut the listener down under us — the normal exit *)
        ()
  in
  loop ();
  (* Drain. Wake connection threads parked in reads (a kept-alive
     client may otherwise hold its thread until the idle timeout), then
     join them — each finishes its in-flight request first, because the
     dispatch workers are still alive. Only then retire the workers:
     queued async jobs run to completion before shutdown finishes. *)
  Mutex.lock t.conn_lock;
  let threads =
    Hashtbl.fold
      (fun _ (fd, th) acc ->
        (try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
        th :: acc)
      t.live []
  in
  Mutex.unlock t.conn_lock;
  List.iter Thread.join threads;
  Dispatch.shutdown t.dispatch;
  close_quietly t.listen_fd;
  Log.info "serve.stopped"
    ~fields:[ ("uptime_ms", Json.Float (uptime_ms t)) ]

let stop t =
  if not (Atomic.exchange t.stopping true) then
    (* wakes a blocked [accept] (EINVAL on Linux) — closing the fd alone
       does not reliably do that *)
    try Unix.shutdown t.listen_fd SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()
