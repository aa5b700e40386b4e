(* lib/serve: the HTTP codec and JSON protocol decoders in isolation,
   then a live loopback server exercised end to end — solve parity with
   the engine, response auditing, cache visibility in /metrics,
   admission control (429 + Retry-After), deadline budgets and graceful
   shutdown. *)

module Http = Soctest_serve.Http
module Protocol = Soctest_serve.Protocol
module Server = Soctest_serve.Server
module Client = Soctest_serve.Serve_client
module Json = Soctest_obs.Json
module Engine = Soctest_engine.Engine
module Schedule_io = Soctest_tam.Schedule_io
module Constraint_def = Soctest_constraints.Constraint_def

(* ---------------- HTTP codec (over a socketpair) ------------------ *)

let roundtrip ?max_body raw =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let n = String.length raw in
  let rec push off =
    if off < n then push (off + Unix.write_substring a raw off (n - off))
  in
  push 0;
  Unix.shutdown a SHUTDOWN_SEND;
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () -> Http.read_request ?max_body (Http.conn b))

let test_http_parse () =
  match
    roundtrip
      "POST /v1/solve HTTP/1.1\r\nHost: x\r\nContent-Length: \
       4\r\nX-Seen: yes\r\n\r\nbody"
  with
  | Error _ -> Alcotest.fail "expected parse success"
  | Ok req ->
    Alcotest.(check string) "method" "POST" req.Http.meth;
    Alcotest.(check string) "target" "/v1/solve" req.Http.target;
    Alcotest.(check string) "body" "body" req.Http.body;
    Alcotest.(check (option string))
      "header" (Some "yes")
      (Http.header req "X-Seen")

let test_http_bare_lf () =
  match roundtrip "GET /healthz HTTP/1.1\nHost: x\n\n" with
  | Ok req -> Alcotest.(check string) "target" "/healthz" req.Http.target
  | Error _ -> Alcotest.fail "bare-LF framing must parse"

let test_http_malformed () =
  let is_bad raw =
    match roundtrip raw with
    | Error (Http.Bad_request _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage request line" true (is_bad "garbage\r\n\r\n");
  Alcotest.(check bool) "bad version" true (is_bad "GET / HTTP/2.0\r\n\r\n");
  Alcotest.(check bool)
    "bad content-length" true
    (is_bad "GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
  Alcotest.(check bool)
    "chunked rejected" true
    (is_bad "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")

let test_http_body_cap () =
  match
    roundtrip ~max_body:10 "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n"
  with
  | Error (Http.Payload_too_large { limit }) ->
    Alcotest.(check int) "limit reported" 10 limit
  | _ -> Alcotest.fail "expected Payload_too_large"

let test_http_peer_vanished () =
  match roundtrip "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort" with
  | Error Http.Closed -> ()
  | _ -> Alcotest.fail "expected Closed for a truncated body"

(* ---------------- protocol decode -------------------------------- *)

let decode_err body =
  match Protocol.solve_request_of_body body with
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected decode error"

let test_protocol_solve_ok () =
  match
    Protocol.solve_request_of_body
      {|{"soc": "d695", "width": 24, "problem": "p3", "strategy": "grid",
         "budget_ms": 250, "max_width": 12, "stall_ms": 2000}|}
  with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok r ->
    Alcotest.(check int) "width" 24 r.Protocol.tam_width;
    Alcotest.(check bool) "p3" true (r.Protocol.problem = Protocol.P3);
    Alcotest.(check bool) "grid" true (r.Protocol.strategy = Protocol.Grid);
    Alcotest.(check (option int)) "max_width" (Some 12) r.Protocol.max_width;
    Alcotest.(check int)
      "stall_ms at its bound" Protocol.max_stall_ms r.Protocol.stall_ms;
    Alcotest.(check string) "source" "d695" r.Protocol.soc_source

let test_protocol_solve_errors () =
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let check_err body needle =
    let e = decode_err body in
    if not (contains e needle) then
      Alcotest.failf "error %S does not mention %S" e needle
  in
  check_err {|not json|} "invalid JSON";
  check_err {|[1]|} "JSON object";
  check_err {|{"width": 8}|} "missing";
  check_err {|{"soc": "nope", "width": 8}|} "unknown benchmark";
  check_err {|{"soc": "d695"}|} "width";
  check_err {|{"soc": "d695", "width": 0}|} "width";
  check_err {|{"soc": "d695", "width": 8, "problem": "p9"}|} "p9";
  check_err {|{"soc": "d695", "width": 8, "budget_ms": -1}|} "budget_ms";
  check_err {|{"soc": "d695", "width": 8, "stall_ms": 2001}|} "stall_ms";
  check_err {|{"soc": "mini4", "width": 8, "stall_ms": 1000000000}|}
    "stall_ms";
  check_err {|{"soc": "d695", "soc_text": "Soc x 1", "width": 8}|} "not both"

let test_protocol_check_decode () =
  let sched_text = "Schedule 8\nSlice 1 2 0 10\n" in
  (match
     Protocol.check_request_of_body
       (Json.to_string
          (Json.Obj
             [
               ("soc", Json.String "d695");
               ("schedule_text", Json.String sched_text);
               ("partial", Json.Bool true);
             ]))
   with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "partial" true r.Protocol.partial;
    Alcotest.(check int)
      "tam width parsed" 8
      r.Protocol.schedule.Soctest_tam.Schedule.tam_width);
  match
    Protocol.check_request_of_body
      {|{"soc": "d695", "schedule_text": "Schedule zero"}|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad schedule text must be a decode error"

(* ---------------- live server ------------------------------------ *)

let with_server ?(queue_depth = 16) ?(workers = 2) ?job_ttl_ms f =
  (* metrics-only recording, as the daemon runs it *)
  Soctest_obs.Obs.enable ~events:false ();
  let server =
    Server.create (Server.config ~port:0 ~workers ~queue_depth ?job_ttl_ms ())
  in
  let d = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join d;
      Soctest_obs.Obs.disable ())
    (fun () -> f server (Server.port server))

let solve_body ?(extra = []) width =
  Json.to_string
    (Json.Obj
       ([ ("soc", Json.String "mini4"); ("width", Json.Int width) ] @ extra))

let member name v =
  match Json.member name v with
  | Some x -> x
  | None -> Alcotest.failf "response lacks %S" name

let jint = function
  | Json.Int i -> i
  | _ -> Alcotest.fail "expected JSON int"

let jstr = function
  | Json.String s -> s
  | _ -> Alcotest.fail "expected JSON string"

(* One counter off GET /metrics, named without the soctest_ prefix. *)
let counter port name =
  match
    Test_helpers.prom_counter (Client.get ~port "/metrics").Client.body
      ("soctest_" ^ name)
  with
  | Some v -> v
  | None -> Alcotest.failf "/metrics lacks soctest_%s" name

let test_live_solve_parity () =
  with_server @@ fun server port ->
  let r = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
  Alcotest.(check int) "status" 200 r.Client.status;
  let v = Client.json_body r in
  let result = member "result" v in
  Alcotest.(check string) "complete" "complete" (jstr (member "status" result));
  Alcotest.(check bool)
    "audited clean" true
    (member "clean" (member "audit" v) = Json.Bool true);
  (* byte-identical to a direct engine solve of the same request *)
  let soc = Soctest_soc.Benchmarks.mini4 () in
  let expected =
    Engine.solve (Server.engine server)
      (Engine.request soc ~tam_width:8
         ~constraints:(Constraint_def.of_soc soc ()) ())
  in
  Alcotest.(check string)
    "schedule identical to direct Engine.solve"
    (Schedule_io.to_string
       expected.Engine.result.Soctest_core.Optimizer.schedule)
    (jstr (member "schedule_text" result));
  (* the identical request again must be served from the cache, and the
     hit must be visible in /metrics *)
  let hits0 = counter port "engine_cache_eval_hits" in
  let r2 = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
  let cache = member "cache" (member "result" (Client.json_body r2)) in
  Alcotest.(check int)
    "second solve computed nothing" 0
    (jint (member "eval_computed" cache));
  Alcotest.(check bool)
    "second solve was a cache hit" true
    (jint (member "eval_cached" cache) >= 1);
  Alcotest.(check bool)
    "metrics expose the hit" true
    (counter port "engine_cache_eval_hits" - hits0 >= 1)

(* Identical grid solves share one audit: the first answer audits its
   cache entry and every later one serves the kept report, so the bodies
   differ only in the cache counters and the timings. *)
let test_live_grid_solves_audit_once () =
  with_server @@ fun _server port ->
  let body =
    solve_body ~extra:[ ("strategy", Json.String "grid") ] 8
  in
  let audits0 = counter port "check_audits" in
  let answers =
    List.init 5 (fun _ ->
        let r = Client.post ~port ~body "/v1/solve" in
        Alcotest.(check int) "status" 200 r.Client.status;
        Client.json_body r)
  in
  Alcotest.(check int) "five grid solves, one audit" 1
    (counter port "check_audits" - audits0);
  let untimed v =
    match v with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, x) ->
             match (k, x) with
             | "result", Json.Obj rs ->
               ( k,
                 Json.Obj
                   (List.filter
                      (fun (k, _) ->
                        not
                          (List.mem k
                             [ "cache"; "solve_ms"; "store_probe_ms";
                               "eval_solve_ms" ]))
                      rs) )
             | _ -> (k, x))
           fields)
    | _ -> Alcotest.fail "solve response is not an object"
  in
  let first = Json.to_string (untimed (List.hd answers)) in
  List.iter
    (fun v ->
      Alcotest.(check string) "same answer" first
        (Json.to_string (untimed v)))
    (List.tl answers)

let test_live_check_endpoint () =
  with_server @@ fun _server port ->
  let solved =
    Client.json_body (Client.post ~port ~body:(solve_body 8) "/v1/solve")
  in
  let text = jstr (member "schedule_text" (member "result" solved)) in
  let body ?(extra = []) () =
    Json.to_string
      (Json.Obj
         ([
            ("soc", Json.String "mini4");
            ("schedule_text", Json.String text);
          ]
         @ extra))
  in
  let clean =
    Client.json_body (Client.post ~port ~body:(body ()) "/v1/check")
  in
  Alcotest.(check bool)
    "clean round-trip" true
    (member "clean" (member "audit" clean) = Json.Bool true);
  (* same schedule under an absurd power limit: still 200, with
     violations as the answer *)
  let strict =
    Client.post ~port
      ~body:(body ~extra:[ ("power_limit", Json.Int 1) ] ())
      "/v1/check"
  in
  Alcotest.(check int) "violations are a 200 answer" 200 strict.Client.status;
  let audit = member "audit" (Client.json_body strict) in
  Alcotest.(check bool)
    "not clean" true
    (member "clean" audit = Json.Bool false)

let test_live_admission_control () =
  (* one worker, queue depth 1: a stalled solve fills the window and the
     next request must bounce with 429 + Retry-After *)
  with_server ~workers:1 ~queue_depth:1 @@ fun _server port ->
  let stalled =
    Domain.spawn (fun () ->
        Client.post ~port
          ~body:(solve_body ~extra:[ ("stall_ms", Json.Int 1500) ] 8)
          "/v1/solve")
  in
  Unix.sleepf 0.3;
  let bounced = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
  Alcotest.(check int) "429 when full" 429 bounced.Client.status;
  (* Retry-After is estimated from queue depth and recent solve time;
     it must be a whole number of seconds in the clamp range *)
  (match List.assoc_opt "retry-after" bounced.Client.headers with
  | None -> Alcotest.fail "429 lacks Retry-After"
  | Some s -> (
    match int_of_string_opt s with
    | Some n ->
      Alcotest.(check bool) "Retry-After in [1, 60]" true (n >= 1 && n <= 60)
    | None -> Alcotest.failf "Retry-After %S is not an integer" s));
  (* GETs are never admission-controlled *)
  let h = Client.get ~port "/healthz" in
  Alcotest.(check int) "healthz while full" 200 h.Client.status;
  let first = Domain.join stalled in
  Alcotest.(check int) "stalled request still answered" 200 first.Client.status

let test_live_deadline_budget () =
  with_server @@ fun _server port ->
  let r =
    Client.post ~port
      ~body:
        (solve_body
           ~extra:
             [ ("budget_ms", Json.Int 0); ("strategy", Json.String "grid") ]
           8)
      "/v1/solve"
  in
  Alcotest.(check int) "still answered" 200 r.Client.status;
  let v = Client.json_body r in
  let result = member "result" v in
  Alcotest.(check string)
    "graceful degradation" "deadline"
    (jstr (member "status" result));
  Alcotest.(check bool)
    "at least one evaluation" true
    (jint (member "evaluations" result) >= 1);
  Alcotest.(check bool)
    "degraded result is still audited clean" true
    (member "clean" (member "audit" v) = Json.Bool true)

(* A daemon restarted against a warm store must answer a
   previously-solved request from the disk tier, visibly in the
   /metrics store counters. *)
let test_live_warm_restart () =
  let module Store = Soctest_store.Store in
  let path = Filename.temp_file "soctest-serve-test" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let with_stored_server f =
    Soctest_obs.Obs.enable ~events:false ();
    let store = Store.open_ path in
    let engine = Engine.create ~store () in
    let server = Server.create ~engine (Server.config ~port:0 ~workers:2 ()) in
    let d = Domain.spawn (fun () -> Server.run server) in
    Fun.protect
      ~finally:(fun () ->
        Server.stop server;
        Domain.join d;
        Store.close store;
        Soctest_obs.Obs.disable ())
      (fun () -> f server (Server.port server))
  in
  (* first life: solve, which writes through to the store *)
  let first_schedule =
    with_stored_server @@ fun _server port ->
    let misses0 = counter port "engine_store_misses"
    and appends0 = counter port "store_appends" in
    let r = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
    Alcotest.(check int) "first life status" 200 r.Client.status;
    Alcotest.(check bool)
      "store enabled: the first solve missed it" true
      (counter port "engine_store_misses" - misses0 >= 1);
    Alcotest.(check bool)
      "first life wrote through" true
      (counter port "store_appends" - appends0 >= 1);
    jstr (member "schedule_text" (member "result" (Client.json_body r)))
  in
  (* second life: a fresh process-worth of state, same store file *)
  with_stored_server @@ fun _server port ->
  let hits0 = counter port "engine_store_hits"
  and rejects0 = counter port "engine_store_audit_rejects" in
  Alcotest.(check int) "fresh daemon, no disk traffic yet" 0 hits0;
  let r = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
  Alcotest.(check int) "second life status" 200 r.Client.status;
  let v = Client.json_body r in
  let cache = member "cache" (member "result" v) in
  Alcotest.(check bool)
    "served from the disk tier" true
    (jint (member "eval_from_store" cache) >= 1);
  Alcotest.(check int)
    "solved nothing fresh" 0
    (jint (member "eval_computed" cache));
  Alcotest.(check string)
    "bit-identical across the restart" first_schedule
    (jstr (member "schedule_text" (member "result" v)));
  Alcotest.(check bool)
    "disk hit visible in /metrics" true
    (counter port "engine_store_hits" - hits0 >= 1);
  Alcotest.(check int) "no audit rejects" 0
    (counter port "engine_store_audit_rejects" - rejects0)

(* Tentpole criteria: every response carries x-request-id (inbound ids
   echoed, junk replaced by a fresh ULID), GET /metrics passes a
   Prometheus text-format lint and carries the per-endpoint series. *)
let test_live_request_ids_and_metrics () =
  with_server @@ fun _server port ->
  let r = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
  let minted =
    match List.assoc_opt "x-request-id" r.Client.headers with
    | Some id -> id
    | None -> Alcotest.fail "solve response lacks x-request-id"
  in
  Alcotest.(check bool)
    "minted id is a ULID" true
    (Soctest_serve.Ulid.is_valid minted);
  let echo =
    Client.request ~port
      ~headers:[ ("x-request-id", "client-id_42.a") ]
      "/healthz"
  in
  Alcotest.(check (option string))
    "sane inbound id echoed" (Some "client-id_42.a")
    (List.assoc_opt "x-request-id" echo.Client.headers);
  let junk =
    Client.request ~port ~headers:[ ("x-request-id", "has spaces!") ] "/healthz"
  in
  (match List.assoc_opt "x-request-id" junk.Client.headers with
  | Some id ->
    Alcotest.(check bool) "junk inbound id replaced" true (id <> "has spaces!");
    Alcotest.(check bool) "replacement is a ULID" true
      (Soctest_serve.Ulid.is_valid id)
  | None -> Alcotest.fail "response lacks x-request-id");
  (* a 400 carries one too *)
  let bad = Client.post ~port ~body:"{" "/v1/solve" in
  Alcotest.(check bool) "error responses carry x-request-id" true
    (List.assoc_opt "x-request-id" bad.Client.headers <> None);
  let m = Client.get ~port "/metrics" in
  Alcotest.(check int) "/metrics status" 200 m.Client.status;
  Alcotest.(check (option string))
    "exposition content type"
    (Some "text/plain; version=0.0.4")
    (List.assoc_opt "content-type" m.Client.headers);
  (match Test_helpers.prom_lint m.Client.body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "GET /metrics fails the format lint: %s" e);
  Alcotest.(check bool)
    "per-endpoint/status counter exposed" true
    (Test_helpers.contains_substring m.Client.body
       "soctest_serve_requests{endpoint=\"/v1/solve\",status=\"200\"}");
  Alcotest.(check bool)
    "per-endpoint latency histogram exposed" true
    (Test_helpers.contains_substring m.Client.body
       "soctest_serve_request_ms_bucket{endpoint=\"/v1/solve\"")

(* The flight recorder must hold the completed solve under its response
   id, with a per-phase decomposition that sums to within 10% of the
   end-to-end latency. *)
let test_live_flight_recorder () =
  with_server @@ fun _server port ->
  let r = Client.post ~port ~body:(solve_body 8) "/v1/solve" in
  Alcotest.(check int) "solve ok" 200 r.Client.status;
  let id = List.assoc "x-request-id" r.Client.headers in
  (* the record lands just after the response bytes, so a fast client
     can outrun it — poll briefly *)
  let rec fetch tries =
    let j =
      Client.json_body (Client.get ~port "/v1/debug/requests?limit=16")
    in
    let records =
      match member "requests" j with
      | Json.List l -> l
      | _ -> Alcotest.fail "debug response lacks a requests list"
    in
    match
      List.find_opt
        (fun rc -> Json.member "id" rc = Some (Json.String id))
        records
    with
    | Some rc -> rc
    | None when tries > 0 ->
      Unix.sleepf 0.02;
      fetch (tries - 1)
    | None -> Alcotest.failf "request %s not in the flight recorder" id
  in
  match fetch 50 with
  | rc ->
    Alcotest.(check string)
      "endpoint" "/v1/solve"
      (jstr (member "endpoint" rc));
    Alcotest.(check int) "status" 200 (jint (member "status" rc));
    Alcotest.(check string)
      "a computed solve is tier=solve" "solve"
      (jstr (member "tier" rc));
    let total =
      match member "total_ms" rc with
      | Json.Float f -> f
      | _ -> Alcotest.fail "total_ms must be a float"
    in
    let phases =
      match member "phases" rc with
      | Json.Obj l -> l
      | _ -> Alcotest.fail "phases must be an object"
    in
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "phase %s present" name)
          true
          (List.mem_assoc name phases))
      [ "queue"; "prep"; "solve"; "audit"; "render"; "write" ];
    let sum =
      List.fold_left
        (fun acc (_, v) -> match v with Json.Float f -> acc +. f | _ -> acc)
        0. phases
    in
    Alcotest.(check bool)
      (Printf.sprintf
         "phase sum %.3f ms within 10%% of end-to-end %.3f ms" sum total)
      true
      (sum >= 0.9 *. total && sum <= 1.1 *. total)

(* Nothing caps "wmax" on the wire, and a staircase stops at its core's
   saturation width, so an absurd wmax costs what a sane one costs. The
   client timeout turns a regression into a failure instead of a hang. *)
let test_live_oversized_wmax () =
  with_server @@ fun _server port ->
  List.iter
    (fun (soc, width, wmax) ->
      let body =
        Json.to_string
          (Json.Obj
             [
               ("soc", Json.String soc);
               ("width", Json.Int width);
               ("wmax", Json.Int wmax);
               ("budget_ms", Json.Int 50);
             ])
      in
      let what = Printf.sprintf "%s W=%d wmax=%d" soc width wmax in
      let r = Client.request ~port ~timeout_ms:5000. ~body "/v1/solve" in
      Alcotest.(check int) (what ^ ": status") 200 r.Client.status;
      Alcotest.(check bool)
        (what ^ ": audited clean") true
        (member "clean" (member "audit" (Client.json_body r)) = Json.Bool true))
    [ ("d695", 32, 20_000); ("mini4", 8, 100_000_000); ("mini4", 8, 1 lsl 40) ]

(* The rectangle-packing strategies over HTTP: a rectpack solve must
   come back audited clean with the lower_bound/gap_pct fields every
   solve response now carries, and its makespan must match a direct
   Rectpack.schedule of the same request. *)
let test_live_rectpack_strategy () =
  with_server @@ fun _server port ->
  let solve strategy =
    let r =
      Client.post ~port
        ~body:
          (solve_body ~extra:[ ("strategy", Json.String strategy) ] 8)
        "/v1/solve"
    in
    Alcotest.(check int) (strategy ^ " status") 200 r.Client.status;
    let v = Client.json_body r in
    Alcotest.(check bool)
      (strategy ^ " audited clean")
      true
      (member "clean" (member "audit" v) = Json.Bool true);
    member "result" v
  in
  let result = solve "rectpack" in
  let soc = Soctest_soc.Benchmarks.mini4 () in
  let prepared = Soctest_core.Optimizer.prepare ~wmax:64 soc in
  let direct =
    Soctest_pack.Rectpack.schedule ~order:Soctest_pack.Rectpack.Plain
      prepared ~tam_width:8
      ~constraints:(Constraint_def.of_soc soc ())
  in
  Alcotest.(check int)
    "testing_time matches direct Rectpack.schedule"
    direct.Soctest_pack.Rectpack.testing_time
    (jint (member "testing_time" result));
  (* the gap fields ride on every solve response *)
  let lb = jint (member "lower_bound" result) in
  Alcotest.(check bool) "lower bound positive" true (lb > 0);
  Alcotest.(check bool)
    "lower bound below makespan" true
    (lb <= jint (member "testing_time" result));
  (match member "gap_pct" result with
  | Json.Float g -> Alcotest.(check bool) "gap >= 0" true (g >= 0.)
  | _ -> Alcotest.fail "gap_pct must be a JSON float");
  ignore (solve "rectpack-diagonal" : Json.t)

let test_live_error_paths () =
  with_server @@ fun _server port ->
  let bad = Client.post ~port ~body:"{" "/v1/solve" in
  Alcotest.(check int) "malformed JSON -> 400" 400 bad.Client.status;
  let missing = Client.post ~port ~body:{|{"soc": "mini4"}|} "/v1/solve" in
  Alcotest.(check int) "missing width -> 400" 400 missing.Client.status;
  List.iter
    (fun path ->
      let lost = Client.get ~port path in
      Alcotest.(check int) (path ^ " -> 404") 404 lost.Client.status;
      Alcotest.(check bool)
        (path ^ " -> not_found") true
        (Json.member "code" (Client.json_body lost)
        = Some (Json.String "not_found")))
    [ "/nope"; "/v1/metrics" ];
  let wrong = Client.request ~port ~meth:"DELETE" "/v1/solve" in
  Alcotest.(check int) "bad method -> 405" 405 wrong.Client.status

(* ---------------- dispatch ordering ------------------------------- *)

module Dispatch = Soctest_serve.Dispatch

(* Submit a blocker that pins the single worker, queue four tasks with
   mixed deadlines, release the blocker and observe the drain order. *)
let dispatch_order () =
  let d = Dispatch.create ~jobs:1 () in
  let gate = Mutex.create () and go = Condition.create () in
  let released = ref false in
  let order = ref [] in
  Dispatch.submit d (fun () ->
      Mutex.lock gate;
      while not !released do
        Condition.wait go gate
      done;
      Mutex.unlock gate);
  (* wait for the worker to pick the blocker up, so all four queue *)
  let rec settle n =
    if Dispatch.queued d > 0 && n > 0 then begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
  in
  settle 100;
  let now = Soctest_obs.Clock.now_ms () in
  let note name () = order := name :: !order in
  (* the undeadlined pair straddles a deadlined task, so heap order
     alone would not keep them in submission order *)
  Dispatch.submit d (note "undeadlined-1");
  Dispatch.submit d ~deadline:(now +. 10_000.) (note "late");
  Dispatch.submit d (note "undeadlined-2");
  Dispatch.submit d ~deadline:(now +. 100.) (note "soon");
  Mutex.lock gate;
  released := true;
  Condition.signal go;
  Mutex.unlock gate;
  Dispatch.shutdown d;
  List.rev !order

let test_dispatch_edf_order () =
  Alcotest.(check (list string))
    "deadlines first, earliest first, then submission order"
    [ "soon"; "late"; "undeadlined-1"; "undeadlined-2" ]
    (dispatch_order ())

(* ---------------- v2: keep-alive, pipelining, async jobs ---------- *)

let with_client port f =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let test_live_keepalive_pipeline () =
  with_server @@ fun _server port ->
  with_client port @@ fun c ->
  (* sequential reuse: several calls over one cached connection *)
  let r1 = Client.call c ~body:(solve_body 8) "/v1/solve" in
  Alcotest.(check int) "first call" 200 r1.Client.status;
  let r2 = Client.call c "/healthz" in
  Alcotest.(check int) "reused socket" 200 r2.Client.status;
  (* pipelined burst: requests written in one batch must come back in
     order — each response echoes its request's width — with a distinct
     x-request-id on every one *)
  let widths = [ 4; 5; 6; 7; 8; 9 ] in
  let specs =
    List.map (fun w -> ("POST", "/v1/solve", Some (solve_body w))) widths
  in
  let rs = Client.pipeline c specs in
  Alcotest.(check int) "all answered" (List.length widths) (List.length rs);
  List.iter2
    (fun w r ->
      Alcotest.(check int)
        (Printf.sprintf "width %d status" w)
        200 r.Client.status;
      Alcotest.(check int)
        (Printf.sprintf "response %d in order" w)
        w
        (jint (member "width" (Client.json_body r))))
    widths rs;
  let ids =
    List.filter_map
      (fun r -> List.assoc_opt "x-request-id" r.Client.headers)
      rs
  in
  Alcotest.(check int) "every response stamped" (List.length rs)
    (List.length ids);
  Alcotest.(check int) "ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* Connection: close is honored on the response *)
  let bye = Client.call c ~headers:[ ("Connection", "close") ] "/healthz" in
  Alcotest.(check (option string))
    "server acknowledges the close" (Some "close")
    (List.assoc_opt "connection" bye.Client.headers);
  (* and the client transparently reconnects afterwards *)
  let back = Client.call c "/healthz" in
  Alcotest.(check int) "fresh connection after close" 200 back.Client.status

let test_live_async_job_parity () =
  with_server @@ fun _server port ->
  with_client port @@ fun c ->
  let sync = Client.call c ~body:(solve_body 8) "/v1/solve" in
  Alcotest.(check int) "sync 200" 200 sync.Client.status;
  let id = Client.solve_async c ~body:(solve_body 8) in
  let final = Client.await_job c id in
  Alcotest.(check int) "job result replays a 200" 200 final.Client.status;
  Alcotest.(check (option string))
    "replay carries the job id" (Some id)
    (List.assoc_opt "x-job-id" final.Client.headers);
  let sv = Client.json_body sync and jv = Client.json_body final in
  Alcotest.(check bool)
    "job result audited clean" true
    (member "clean" (member "audit" jv) = Json.Bool true);
  (* the solver's answer is bit-identical to the sync endpoint's (the
     wall-clock *_ms fields are the only nondeterministic members) *)
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "result.%s identical to sync" k)
        (Json.to_string (member k (member "result" sv)))
        (Json.to_string (member k (member "result" jv))))
    [ "status"; "testing_time"; "widths"; "preemptions"; "schedule_text" ];
  (* a finished job's result replays byte-identically until evicted *)
  let again = Client.job_status c id in
  Alcotest.(check string) "replay is stable" final.Client.body
    again.Client.body;
  (* cancelling a finished job is a conflict, and it stays replayable *)
  let conflict = Client.cancel_job c id in
  Alcotest.(check int) "cancel after done -> 409" 409 conflict.Client.status

let test_live_job_cancel_mid_solve () =
  (* one worker: the stalled job is running when the cancel lands *)
  with_server ~workers:1 @@ fun _server port ->
  with_client port @@ fun c ->
  let id =
    Client.solve_async c
      ~body:(solve_body ~extra:[ ("stall_ms", Json.Int 1000) ] 8)
  in
  Unix.sleepf 0.25;
  let r = Client.cancel_job c id in
  Alcotest.(check bool)
    (Printf.sprintf "cancel acknowledged (got %d)" r.Client.status)
    true
    (r.Client.status = 200 || r.Client.status = 202);
  let final = Client.await_job c id in
  Alcotest.(check int) "cancelled job still answers" 200 final.Client.status;
  (match Json.member "state" (Client.json_body final) with
  | Some (Json.String "cancelled") -> ()
  | _ -> Alcotest.fail "expected a cancelled status document");
  (* unknown ids are 404 on both verbs *)
  let ghost = "01ARZ3NDEKTSV4RRFFQ69G5FAV" in
  Alcotest.(check int) "unknown status -> 404" 404
    (Client.job_status c ghost).Client.status;
  Alcotest.(check int) "unknown cancel -> 404" 404
    (Client.cancel_job c ghost).Client.status

let test_live_job_ttl_eviction () =
  with_server ~job_ttl_ms:50. @@ fun _server port ->
  with_client port @@ fun c ->
  let id = Client.solve_async c ~body:(solve_body 8) in
  let final = Client.await_job c id in
  Alcotest.(check int) "job finished" 200 final.Client.status;
  (* past its TTL the finished job is swept on the next store access *)
  Unix.sleepf 0.2;
  Alcotest.(check int) "evicted job -> 404" 404
    (Client.job_status c id).Client.status

let () =
  Alcotest.run "serve"
    [
      ( "http codec",
        [
          Alcotest.test_case "parse request" `Quick test_http_parse;
          Alcotest.test_case "bare LF" `Quick test_http_bare_lf;
          Alcotest.test_case "malformed framing" `Quick test_http_malformed;
          Alcotest.test_case "body cap" `Quick test_http_body_cap;
          Alcotest.test_case "peer vanished" `Quick test_http_peer_vanished;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "solve decode" `Quick test_protocol_solve_ok;
          Alcotest.test_case "solve decode errors" `Quick
            test_protocol_solve_errors;
          Alcotest.test_case "check decode" `Quick test_protocol_check_decode;
        ] );
      ( "live server",
        [
          Alcotest.test_case "solve parity + cache visibility" `Quick
            test_live_solve_parity;
          Alcotest.test_case "grid solves audit once" `Quick
            test_live_grid_solves_audit_once;
          Alcotest.test_case "check endpoint" `Quick test_live_check_endpoint;
          Alcotest.test_case "admission control" `Quick
            test_live_admission_control;
          Alcotest.test_case "deadline budget" `Quick
            test_live_deadline_budget;
          Alcotest.test_case "rectpack strategy + gap fields" `Quick
            test_live_rectpack_strategy;
          Alcotest.test_case "error paths" `Quick test_live_error_paths;
          Alcotest.test_case "request ids + /metrics exposition" `Quick
            test_live_request_ids_and_metrics;
          Alcotest.test_case "flight recorder" `Quick
            test_live_flight_recorder;
          Alcotest.test_case "warm restart from store" `Quick
            test_live_warm_restart;
          Alcotest.test_case "oversized wmax" `Quick test_live_oversized_wmax;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "edf order" `Quick test_dispatch_edf_order;
        ] );
      ( "v2 lifecycle",
        [
          Alcotest.test_case "keep-alive + pipelining" `Quick
            test_live_keepalive_pipeline;
          Alcotest.test_case "async job parity" `Quick
            test_live_async_job_parity;
          Alcotest.test_case "cancel mid-solve + unknown ids" `Quick
            test_live_job_cancel_mid_solve;
          Alcotest.test_case "job TTL eviction" `Quick
            test_live_job_ttl_eviction;
        ] );
    ]
