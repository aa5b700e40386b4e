(* Serve smoke: the ISSUE-level daemon lifecycle in one process.
   Start the server on an ephemeral port, solve d695 twice asserting
   the second response is served from the engine cache (visible both in
   the per-solve cache stats and in /metrics), check /healthz, and
   shut down cleanly — the run loop must drain and return. Exercised by
   `dune build @serve-smoke` (pulled into @bench). *)

module Server = Soctest_serve.Server
module Client = Soctest_serve.Serve_client
module Json = Soctest_obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let member name v =
  match Json.member name v with
  | Some x -> x
  | None -> die "serve_smoke: response lacks %S" name

let jint name v = match member name v with
  | Json.Int i -> i
  | _ -> die "serve_smoke: %S is not an int" name

let () =
  Soctest_obs.Obs.enable ~events:false ();
  let server = Server.create (Server.config ~port:0 ~workers:2 ()) in
  let d = Domain.spawn (fun () -> Server.run server) in
  let port = Server.port server in

  let health = Client.json_body (Client.get ~port "/healthz") in
  (match member "status" health with
  | Json.String "ok" -> ()
  | _ -> die "serve_smoke: /healthz not ok");

  let body = {|{"soc": "d695", "width": 16}|} in
  let solve () =
    let r = Client.post ~port ~body "/v1/solve" in
    if r.Client.status <> 200 then
      die "serve_smoke: solve answered %d: %s" r.Client.status r.Client.body;
    let v = Client.json_body r in
    (match member "clean" (member "audit" v) with
    | Json.Bool true -> ()
    | _ -> die "serve_smoke: solve response not audit-clean");
    member "cache" (member "result" v)
  in
  let eval_hits () =
    match
      Test_helpers.prom_counter (Client.get ~port "/metrics").Client.body
        "soctest_engine_cache_eval_hits"
    with
    | Some v -> v
    | None -> die "serve_smoke: /metrics lacks the eval cache hit counter"
  in
  let cold = solve () in
  if jint "eval_computed" cold < 1 then
    die "serve_smoke: cold solve should compute at least one evaluation";
  let hits0 = eval_hits () in
  let warm = solve () in
  if jint "eval_computed" warm <> 0 || jint "eval_cached" warm <> 1 then
    die "serve_smoke: second identical solve must be a pure cache hit";
  if eval_hits () - hits0 < 1 then
    die "serve_smoke: /metrics does not expose the cache hit";

  Server.stop server;
  Domain.join d;
  print_endline
    "serve smoke OK: healthz up, warm solve served from cache, clean \
     shutdown"
