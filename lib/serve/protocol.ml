module Json = Soctest_obs.Json
module Soc_def = Soctest_soc.Soc_def
module Benchmarks = Soctest_soc.Benchmarks
module Soc_parser = Soctest_soc.Soc_parser
module Schedule_io = Soctest_tam.Schedule_io
module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Audit = Soctest_check.Audit

type problem = P1 | P2 | P3
type strategy = Point | Grid | Rectpack | Rectpack_diag

type solve_request = {
  soc : Soc_def.t;
  soc_source : string;
  tam_width : int;
  problem : problem;
  strategy : strategy;
  budget_ms : float option;
  power_limit : int option;
  preempt : int option;
  wmax : int;
  max_width : int option;
  stall_ms : int;
}

type check_request = {
  soc : Soc_def.t;
  soc_source : string;
  schedule : Soctest_tam.Schedule.t;
  power_limit : int option;
  preempt : int option;
  wmax : int;
  partial : bool;
}

(* ------------------------------------------------------------------ *)
(* decoding *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let field obj key = Json.member key obj

let int_field ?default obj key =
  match field obj key with
  | None -> (
    match default with
    | Some d -> d
    | None -> bad "missing required field %S" key)
  | Some (Json.Int i) -> i
  | Some _ -> bad "field %S must be an integer" key

let opt_int_field obj key =
  match field obj key with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> bad "field %S must be an integer" key

let opt_number_field obj key =
  match field obj key with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | Some _ -> bad "field %S must be a number" key

let bool_field ~default obj key =
  match field obj key with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" key

let string_field obj key =
  match field obj key with
  | None | Some Json.Null -> None
  | Some (Json.String s) -> Some s
  | Some _ -> bad "field %S must be a string" key

let soc_of obj =
  match (string_field obj "soc", string_field obj "soc_text") with
  | Some _, Some _ -> bad "give either \"soc\" or \"soc_text\", not both"
  | Some name, None -> (
    match Benchmarks.by_name name with
    | Some soc -> (soc, name)
    | None ->
      bad "unknown benchmark %S (d695, p22810, p34392, p93791, mini4)" name)
  | None, Some text -> (
    match Soc_parser.parse_result text with
    | Ok soc -> (soc, "inline")
    | Error e -> bad "soc_text: %s" (Format.asprintf "%a" Soc_parser.pp_error e))
  | None, None -> bad "missing \"soc\" (benchmark name) or \"soc_text\""

let parse_obj body =
  match Json.parse body with
  | Error msg -> bad "%s" msg
  | Ok (Json.Obj _ as obj) -> obj
  | Ok _ -> bad "request body must be a JSON object"

let decode f body = try Ok (f (parse_obj body)) with Bad msg -> Error msg

let max_stall_ms = 2000

let solve_request_of_body =
  decode @@ fun obj ->
  let soc, soc_source = soc_of obj in
  let tam_width = int_field obj "width" in
  if tam_width < 1 then bad "\"width\" must be >= 1";
  let problem =
    match string_field obj "problem" with
    | None | Some "p2" -> P2
    | Some "p1" -> P1
    | Some "p3" -> P3
    | Some p -> bad "unknown problem %S (p1, p2 or p3)" p
  in
  let strategy =
    match string_field obj "strategy" with
    | None | Some "point" -> Point
    | Some "grid" -> Grid
    | Some "rectpack" -> Rectpack
    | Some "rectpack-diagonal" -> Rectpack_diag
    | Some s ->
      bad "unknown strategy %S (point, grid, rectpack or rectpack-diagonal)"
        s
  in
  let budget_ms = opt_number_field obj "budget_ms" in
  (match budget_ms with
  | Some ms when ms < 0. -> bad "\"budget_ms\" must be >= 0"
  | _ -> ());
  let power_limit = opt_int_field obj "power_limit" in
  (match power_limit with
  | Some p when p < 1 -> bad "\"power_limit\" must be >= 1"
  | _ -> ());
  let preempt = opt_int_field obj "preempt" in
  (match preempt with
  | Some p when p < 0 -> bad "\"preempt\" must be >= 0"
  | _ -> ());
  let wmax = int_field ~default:64 obj "wmax" in
  if wmax < 1 then bad "\"wmax\" must be >= 1";
  let max_width = opt_int_field obj "max_width" in
  (match max_width with
  | Some w when w < 1 -> bad "\"max_width\" must be >= 1"
  | _ -> ());
  let stall_ms = int_field ~default:0 obj "stall_ms" in
  if stall_ms < 0 then bad "\"stall_ms\" must be >= 0";
  if stall_ms > max_stall_ms then
    bad "\"stall_ms\" must be <= %d" max_stall_ms;
  {
    soc;
    soc_source;
    tam_width;
    problem;
    strategy;
    budget_ms;
    power_limit;
    preempt;
    wmax;
    max_width;
    stall_ms;
  }

let check_request_of_body =
  decode @@ fun obj ->
  let soc, soc_source = soc_of obj in
  let text =
    match string_field obj "schedule_text" with
    | Some t -> t
    | None -> bad "missing \"schedule_text\""
  in
  let schedule =
    match Schedule_io.of_string text with
    | sched -> sched
    | exception Schedule_io.Parse_error e ->
      bad "schedule_text: %s" (Format.asprintf "%a" Schedule_io.pp_error e)
  in
  let power_limit = opt_int_field obj "power_limit" in
  (match power_limit with
  | Some p when p < 1 -> bad "\"power_limit\" must be >= 1"
  | _ -> ());
  let preempt = opt_int_field obj "preempt" in
  let wmax = int_field ~default:64 obj "wmax" in
  if wmax < 1 then bad "\"wmax\" must be >= 1";
  let partial = bool_field ~default:false obj "partial" in
  { soc; soc_source; schedule; power_limit; preempt; wmax; partial }

(* ------------------------------------------------------------------ *)
(* rendering *)

let json_of_report (r : Audit.report) =
  Json.Obj
    [
      ("clean", Json.Bool (Audit.ok r));
      ("checks_run", Json.Int r.Audit.checks_run);
      ("cores_audited", Json.Int r.Audit.cores_audited);
      ("slices_audited", Json.Int r.Audit.slices_audited);
      ("makespan", Json.Int r.Audit.makespan);
      ( "violations",
        Json.List
          (List.map
             (fun (v : Audit.violation) ->
               Json.Obj
                 [
                   ("check", Json.String (Audit.check_name v.Audit.check));
                   ("detail", Json.String v.Audit.detail);
                 ])
             r.Audit.violations) );
    ]

let json_of_outcome ?lower_bound ~soc (o : Engine.outcome) =
  let r = o.Engine.result in
  Json.Obj
    ([
      ( "status",
        Json.String
          (match o.Engine.status with
          | Engine.Complete -> "complete"
          | Engine.Deadline -> "deadline") );
      ("testing_time", Json.Int r.Optimizer.testing_time);
    ]
    @ (match lower_bound with
      | None -> []
      | Some lb ->
        [
          ("lower_bound", Json.Int lb);
          ( "gap_pct",
            Json.Float
              (if lb > 0 then
                 100.
                 *. float_of_int (r.Optimizer.testing_time - lb)
                 /. float_of_int lb
               else 0.) );
        ])
    @ [
      ("evaluations", Json.Int o.Engine.evaluations);
      ( "widths",
        Json.List
          (List.map
             (fun (id, w) ->
               Json.Obj
                 [
                   ("core", Json.Int id);
                   ( "name",
                     Json.String
                       (Soc_def.core soc id).Soctest_soc.Core_def.name );
                   ("width", Json.Int w);
                 ])
             r.Optimizer.widths) );
      ( "preemptions",
        Json.List
          (List.map
             (fun (id, p) ->
               Json.Obj [ ("core", Json.Int id); ("count", Json.Int p) ])
             r.Optimizer.preemptions) );
      ("schedule_text", Json.String (Schedule_io.to_string r.Optimizer.schedule));
      ( "cache",
        Json.Obj
          [
            ("pareto_computed", Json.Int o.Engine.stats.Engine.pareto_computed);
            ("pareto_cached", Json.Int o.Engine.stats.Engine.pareto_cached);
            ("eval_computed", Json.Int o.Engine.stats.Engine.eval_computed);
            ("eval_cached", Json.Int o.Engine.stats.Engine.eval_cached);
            ("eval_deduped", Json.Int o.Engine.stats.Engine.eval_deduped);
            ( "eval_from_store",
              Json.Int o.Engine.stats.Engine.eval_from_store );
          ] );
      ("solve_ms", Json.Float o.Engine.stats.Engine.elapsed_ms);
      ( "store_probe_ms",
        Json.Float o.Engine.stats.Engine.store_probe_ms );
      ("eval_solve_ms", Json.Float o.Engine.stats.Engine.eval_solve_ms);
    ])

(* ------------------------------------------------------------------ *)
(* error taxonomy *)

type error_code =
  | Bad_request_error
  | Payload_too_large_error
  | Request_timeout
  | Queue_full
  | Jobs_full
  | Connections_full
  | Infeasible
  | Not_found
  | Method_not_allowed
  | Conflict
  | Shutting_down
  | Internal

let error_code_name = function
  | Bad_request_error -> "bad_request"
  | Payload_too_large_error -> "payload_too_large"
  | Request_timeout -> "request_timeout"
  | Queue_full -> "queue_full"
  | Jobs_full -> "jobs_full"
  | Connections_full -> "connections_full"
  | Infeasible -> "infeasible"
  | Not_found -> "not_found"
  | Method_not_allowed -> "method_not_allowed"
  | Conflict -> "conflict"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_status = function
  | Bad_request_error -> 400
  | Payload_too_large_error -> 413
  | Request_timeout -> 408
  | Queue_full -> 429
  | Jobs_full -> 503
  | Connections_full -> 503
  | Infeasible -> 422
  | Not_found -> 404
  | Method_not_allowed -> 405
  | Conflict -> 409
  | Shutting_down -> 503
  | Internal -> 500

let error_body ?code ?detail msg =
  let fields = [ ("error", Json.String msg) ] in
  let fields =
    match code with
    | None -> fields
    | Some c -> fields @ [ ("code", Json.String (error_code_name c)) ]
  in
  let fields =
    match detail with
    | None -> fields
    | Some (Json.Obj extra) -> fields @ extra
    | Some v -> fields @ [ ("detail", v) ]
  in
  Json.to_string (Json.Obj fields)

(* ------------------------------------------------------------------ *)
(* async job rendering *)

let job_url id = "/v1/jobs/" ^ id

let json_of_job (v : Jobs.view) =
  Json.Obj
    [
      ("id", Json.String v.Jobs.v_id);
      ("state", Json.String v.Jobs.v_state);
      ("request_id", Json.String v.Jobs.v_request_id);
      ("age_ms", Json.Float v.Jobs.v_age_ms);
      ("wait_ms", Json.Float v.Jobs.v_wait_ms);
      ( "run_ms",
        match v.Jobs.v_run_ms with Some ms -> Json.Float ms | None -> Json.Null
      );
    ]

let job_accepted_body ~id =
  Json.to_string
    (Json.Obj
       [
         ("job_id", Json.String id);
         ("state", Json.String "queued");
         ("status_url", Json.String (job_url id));
       ])
