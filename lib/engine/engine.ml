module Optimizer = Soctest_core.Optimizer
module Budget = Soctest_core.Budget
module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Soc_writer = Soctest_soc.Soc_writer
module Pareto = Soctest_wrapper.Pareto
module Constraint_def = Soctest_constraints.Constraint_def
module Obs = Soctest_obs.Obs
module Json = Soctest_obs.Json
module Clock = Soctest_obs.Clock
module Log = Soctest_obs.Log
module Store = Soctest_store.Store
module Schedule = Soctest_tam.Schedule
module Schedule_io = Soctest_tam.Schedule_io
module Audit = Soctest_check.Audit

(* ------------------------------------------------------------------ *)
(* Digests: MD5 hex of canonical textual renderings, so keys are stable
   across Soc_writer/Soc_parser round-trips and across processes. *)

let soc_digest soc = Digest.to_hex (Digest.string (Soc_writer.to_string soc))

let core_digest (c : Core_def.t) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%s|%d|%d|%d|%s|%d|%d|%s" c.Core_def.id
          c.Core_def.name c.Core_def.inputs c.Core_def.outputs
          c.Core_def.bidirs
          (String.concat "," (List.map string_of_int c.Core_def.scan_chains))
          c.Core_def.patterns c.Core_def.power
          (match c.Core_def.bist_engine with
          | None -> "-"
          | Some b -> string_of_int b)))

let constraints_digest c =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Constraint_def.pp c))

let params_key (p : Optimizer.params) =
  Printf.sprintf "wmax=%d,p=%d,d=%d,s=%d,w=%b" p.Optimizer.wmax
    p.Optimizer.percent p.Optimizer.delta p.Optimizer.insert_slack
    p.Optimizer.widen

let overrides_key = function
  | [] -> ""
  | overrides ->
    List.sort compare overrides
    |> List.map (fun (id, w) -> Printf.sprintf "%d:%d" id w)
    |> String.concat ","

(* ------------------------------------------------------------------ *)
(* Result payload codec: the serialized form of an [Optimizer.result]
   the on-disk store tier holds. JSON over [Soctest_obs.Json] (no
   external dependency); the schedule rides as {!Schedule_io} text, so
   a decode round-trips through the same validating parser the CLI
   uses. *)

let payload_version = 1

let result_to_payload (r : Optimizer.result) =
  let pairs l =
    Json.List
      (List.map (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ]) l)
  in
  let p = r.Optimizer.params in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Int payload_version);
         ("testing_time", Json.Int r.Optimizer.testing_time);
         ("widths", pairs r.Optimizer.widths);
         ("preemptions", pairs r.Optimizer.preemptions);
         ( "params",
           Json.Obj
             [
               ("wmax", Json.Int p.Optimizer.wmax);
               ("percent", Json.Int p.Optimizer.percent);
               ("delta", Json.Int p.Optimizer.delta);
               ("insert_slack", Json.Int p.Optimizer.insert_slack);
               ("widen", Json.Bool p.Optimizer.widen);
             ] );
         ("schedule", Json.String (Schedule_io.to_string r.Optimizer.schedule));
       ])

(* A payload decoded up to its schedule, which is still text: [complete]
   builds the result around a parsed schedule. A grid solve loading many
   points from the store parses each distinct text once. *)
let decode_payload s =
  let ( let* ) = Result.bind in
  let int name j =
    match Json.member name j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "payload field %S missing or not an int" name)
  in
  let bool name j =
    match Json.member name j with
    | Some (Json.Bool b) -> Ok b
    | _ ->
      Error (Printf.sprintf "payload field %S missing or not a bool" name)
  in
  let pairs name j =
    match Json.member name j with
    | Some (Json.List l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.List [ Json.Int a; Json.Int b ] :: rest ->
          go ((a, b) :: acc) rest
        | _ -> Error (Printf.sprintf "payload field %S malformed" name)
      in
      go [] l
    | _ -> Error (Printf.sprintf "payload field %S missing or not a list" name)
  in
  match Json.parse s with
  | Error msg -> Error ("payload is not JSON: " ^ msg)
  | Ok j ->
    let* version = int "version" j in
    if version <> payload_version then
      Error (Printf.sprintf "payload version %d (expected %d)" version
               payload_version)
    else
      let* testing_time = int "testing_time" j in
      let* widths = pairs "widths" j in
      let* preemptions = pairs "preemptions" j in
      let* params =
        match Json.member "params" j with
        | Some pj ->
          let* wmax = int "wmax" pj in
          let* percent = int "percent" pj in
          let* delta = int "delta" pj in
          let* insert_slack = int "insert_slack" pj in
          let* widen = bool "widen" pj in
          Ok
            {
              Optimizer.wmax;
              percent;
              delta;
              insert_slack;
              widen;
            }
        | None -> Error "payload field \"params\" missing"
      in
      let* text =
        match Json.member "schedule" j with
        | Some (Json.String text) -> Ok text
        | _ -> Error "payload field \"schedule\" missing or not a string"
      in
      let complete schedule =
        { Optimizer.schedule; testing_time; widths; preemptions; params }
      in
      Ok (text, complete)

let parse_schedule text =
  try Ok (Schedule_io.of_string text)
  with Schedule_io.Parse_error e ->
    Error
      (Format.asprintf "payload schedule malformed: %a" Schedule_io.pp_error e)

let result_of_payload s =
  Result.bind (decode_payload s) (fun (text, complete) ->
      Result.map complete (parse_schedule text))

(* ------------------------------------------------------------------ *)

type store_stats = {
  hits : int;
  misses : int;
  audit_rejects : int;
  write_errors : int;
}

(* Everything in an evaluation's key but its grid point, built once per
   solve. The store key is [head ^ params_key params ^ tail], byte for
   byte the key stores have always used; the memory key is the pair
   (scope, params), so a memory hit formats no string and the store key
   is built only on a memory miss. *)
type scope = { head : string; tail : string }

let store_key scope params = scope.head ^ params_key params ^ scope.tail

(* An eval-cache entry: one grid point's result and, once a solve has
   served it, its audit report under the serving spec. The key fixes
   that spec (SOC, wmax, W, constraints) and the entry never changes, so
   neither can the report; worker domains share entries, so it is kept
   in an Atomic. *)
type entry = {
  result : Optimizer.result;
  report : Audit.report option Atomic.t;
}

type t = {
  pareto_cache : (string * int, Pareto.t) Cache.t;
  prepare_cache : (string * int, Optimizer.prepared) Cache.t;
  eval_cache : (scope * Optimizer.params, entry) Cache.t;
  (* one-slot physical-equality memos: a batch re-digests the same SOC /
     constraint values over and over, so remember the last rendering *)
  soc_memo : (Soc_def.t * string) option Atomic.t;
  constraints_memo : (Constraint_def.t * string) option Atomic.t;
  (* the persistent tier under the eval cache, plus its per-engine
     tier counters (Atomic so they count whether or not Obs records) *)
  store : Store.t option;
  store_hits : int Atomic.t;
  store_misses : int Atomic.t;
  store_rejects : int Atomic.t;
  store_write_errors : int Atomic.t;
}

let store_hits_c = Obs.counter "engine.store.hits"
let store_misses_c = Obs.counter "engine.store.misses"
let store_rejects_c = Obs.counter "engine.store.audit_rejects"
let store_write_errors_c = Obs.counter "engine.store.write_errors"

let create ?store () =
  let store =
    match store with
    | Some _ as s -> s
    | None -> (
      match Sys.getenv_opt "SOCTEST_STORE" with
      | Some path when String.trim path <> "" -> Some (Store.open_ path)
      | _ -> None)
  in
  {
    pareto_cache = Cache.create ~name:"engine.cache.pareto";
    prepare_cache = Cache.create ~name:"engine.cache.prepare";
    eval_cache = Cache.create ~name:"engine.cache.eval";
    soc_memo = Atomic.make None;
    constraints_memo = Atomic.make None;
    store;
    store_hits = Atomic.make 0;
    store_misses = Atomic.make 0;
    store_rejects = Atomic.make 0;
    store_write_errors = Atomic.make 0;
  }

let store t = t.store

let store_stats t =
  {
    hits = Atomic.get t.store_hits;
    misses = Atomic.get t.store_misses;
    audit_rejects = Atomic.get t.store_rejects;
    write_errors = Atomic.get t.store_write_errors;
  }

let memoized memo digest v =
  match Atomic.get memo with
  | Some (v', d) when v' == v -> d
  | _ ->
    let d = digest v in
    Atomic.set memo (Some (v, d));
    d

let soc_digest_of t soc = memoized t.soc_memo soc_digest soc
let constraints_digest_of t c = memoized t.constraints_memo constraints_digest c

let pareto t ~wmax core =
  fst
    (Cache.find_or_compute t.pareto_cache (core_digest core, wmax) (fun () ->
         Pareto.compute core ~wmax))

let prepare_with_outcome t ~wmax soc =
  let key = (soc_digest_of t soc, wmax) in
  Cache.find_or_compute t.prepare_cache key (fun () ->
      Optimizer.prepare_via (fun core ~wmax -> pareto t ~wmax core) ~wmax soc)

let prepare t ?(wmax = 64) soc = fst (prepare_with_outcome t ~wmax soc)

(* A prepared SOC already holds its cores' staircases: a core that is
   that SOC's own (the same description) is looked up by id, which spares
   the MD5 [core_digest] a cache probe costs; any other core falls back
   to the digest-keyed cache. *)
let prepared_pareto t prepared core =
  let soc = Optimizer.soc_of prepared in
  let id = core.Core_def.id in
  if
    id >= 1
    && id <= Soc_def.core_count soc
    &&
    let own = Soc_def.core soc id in
    own == core || own = core
  then Optimizer.pareto_of prepared id
  else pareto t ~wmax:(Optimizer.wmax_of prepared) core

let audit_spec t ?prepared ?expect_tam_width ?require_complete ~wmax
    constraints =
  let pareto =
    match prepared with
    | Some p when Optimizer.wmax_of p = wmax -> prepared_pareto t p
    | _ -> pareto t ~wmax
  in
  Audit.spec ~wmax ?expect_tam_width ?require_complete ~pareto
    constraints

let scope t ?(overrides = []) prepared ~tam_width constraints =
  {
    head =
      Printf.sprintf "%s|pw=%d|W=%d|"
        (soc_digest_of t (Optimizer.soc_of prepared))
        (Optimizer.wmax_of prepared) tam_width;
    tail =
      Printf.sprintf "|c=%s|o=%s"
        (constraints_digest_of t constraints)
        (overrides_key overrides);
  }

(* ------------------------------------------------------------------ *)
(* The disk tier. Lookup order is memory -> disk -> solve, with
   write-through on a solve. A disk hit is never trusted: the decoded
   schedule is re-audited from first principles ([Audit.run], through
   the prepared SOC's staircases) and the result's derived fields are
   cross-checked against the schedule, so a corrupt, stale or tampered
   entry degrades to a fresh solve (which then overwrites it) instead
   of ever being served. *)

(* One solve's loaded schedules: each distinct schedule text among the
   payloads it reads, parsed once and audited once. Within one [solve]
   the audit spec is fixed (one SOC, W, wmax and constraint set), so
   [Audit.run] is a pure function of the text, and grid points that
   stored the same schedule share one parse and one audit. A table
   lives for one solve and is never shared. *)
type loaded = (string, Schedule.t * Audit.report) Hashtbl.t

let load_schedule t (loaded : loaded) prepared (req : Optimizer.request) text
    =
  match Hashtbl.find_opt loaded text with
  | Some parsed -> Ok parsed
  | None ->
    Result.map
      (fun sched ->
        let report =
          Audit.run (Optimizer.soc_of prepared)
            (audit_spec t ~prepared ~wmax:(Optimizer.wmax_of prepared)
               ~expect_tam_width:req.Optimizer.tam_width
               req.Optimizer.constraints)
            sched
        in
        Hashtbl.add loaded text (sched, report);
        (sched, report))
      (parse_schedule text)

(* A loaded result is served only if its own fields agree with its
   audited schedule: the params it was stored under, W, the makespan,
   and the widths and preemptions — a flipped byte in [widths] is as bad
   as one in a slice. One index pass derives both; a clean audit has
   already proved each core keeps one width. *)
let consistent (req : Optimizer.request) (r : Optimizer.result) report =
  let sched = r.Optimizer.schedule in
  r.Optimizer.params = req.Optimizer.params
  && sched.Schedule.tam_width = req.Optimizer.tam_width
  && Audit.ok report
  && r.Optimizer.testing_time = report.Audit.makespan
  &&
  let by_core = Schedule.index sched in
  List.sort compare r.Optimizer.widths
  = List.map (fun (c, ss) -> (c, ss.(0).Schedule.width)) by_core
  && List.sort compare r.Optimizer.preemptions
     = List.filter_map
         (fun (c, ss) ->
           match Schedule.preemptions_in ss with
           | 0 -> None
           | n -> Some (c, n))
         by_core

let store_find t ~loaded key prepared req =
  match t.store with
  | None -> None
  | Some store -> (
    let payload =
      try Store.find store key
      with Unix.Unix_error _ | Sys_error _ -> None
    in
    match payload with
    | None ->
      Atomic.incr t.store_misses;
      Obs.incr store_misses_c;
      None
    | Some payload -> (
      let decoded =
        Result.bind (decode_payload payload) (fun (text, complete) ->
            Result.map
              (fun (sched, report) -> (complete sched, report))
              (load_schedule t loaded prepared req text))
      in
      match decoded with
      | Ok (r, report) when consistent req r report ->
        Atomic.incr t.store_hits;
        Obs.incr store_hits_c;
        Some (r, report)
      | (Ok _ | Error _) as decoded ->
        Atomic.incr t.store_rejects;
        Obs.incr store_rejects_c;
        Log.warn "engine.store.audit_reject"
          ~fields:
            [
              ("key", Json.String key);
              ( "reason",
                Json.String
                  (match decoded with
                  | Error msg -> msg
                  | Ok _ -> "decoded entry failed re-audit") );
            ];
        None))

let store_put t key r =
  match t.store with
  | None -> ()
  | Some store -> (
    try Store.add store ~key (result_to_payload r)
    with
    | (Unix.Unix_error _ | Sys_error _ | Invalid_argument _) as exn ->
      (* a full disk or read-only store must not fail the solve that
         produced a perfectly good result *)
      Atomic.incr t.store_write_errors;
      Obs.incr store_write_errors_c;
      Log.warn "engine.store.write_error"
        ~fields:
          [
            ("key", Json.String key);
            ("error", Json.String (Printexc.to_string exn));
          ])

(* Per-solve accounting threaded through [cached_entry]; the public
   evaluator omits it. The two time accumulators attribute where a
   computed evaluation's wall time went: probing (and auditing) the
   disk tier vs running the optimizer. *)
type tally = {
  t_computed : int ref;
  t_cached : int ref;
  t_deduped : int ref;
  t_from_store : int ref;
  t_store_probe_ms : float ref;
  t_solve_ms : float ref;
}

let new_tally () =
  {
    t_computed = ref 0;
    t_cached = ref 0;
    t_deduped = ref 0;
    t_from_store = ref 0;
    t_store_probe_ms = ref 0.;
    t_solve_ms = ref 0.;
  }

(* The caching drop-in for [Optimizer.run_request], returning the cache
   entry. An entry loaded from the store keeps the report its load
   audit produced. A hit allocates no accounting: only a miss times its
   store probe and scheduler run. *)
let cached_entry t ?tally ?loaded ~scope ?overrides prepared
    (req : Optimizer.request) =
  let note f = Option.iter f tally in
  let entry, outcome =
    Cache.find_or_compute t.eval_cache (scope, req.Optimizer.params)
      (fun () ->
        let key = store_key scope req.Optimizer.params in
        let loaded =
          match loaded with Some l -> l | None -> Hashtbl.create 1
        in
        let t0 = Clock.now_ms () in
        let found = store_find t ~loaded key prepared req in
        let t1 = Clock.now_ms () in
        note (fun ty ->
            ty.t_store_probe_ms := !(ty.t_store_probe_ms) +. (t1 -. t0));
        match found with
        | Some (result, report) ->
          note (fun ty -> incr ty.t_from_store);
          { result; report = Atomic.make (Some report) }
        | None ->
          let result = Optimizer.run_request ?overrides prepared req in
          note (fun ty ->
              incr ty.t_computed;
              ty.t_solve_ms := !(ty.t_solve_ms) +. (Clock.now_ms () -. t1));
          store_put t key result;
          { result; report = Atomic.make None })
  in
  (match outcome with
  | Cache.Computed -> ()
  | Cache.Cached -> note (fun ty -> incr ty.t_cached)
  | Cache.Deduped -> note (fun ty -> incr ty.t_deduped));
  entry

let evaluator t : Optimizer.evaluator =
 fun ?overrides prepared req ->
  let scope =
    scope t ?overrides prepared ~tam_width:req.Optimizer.tam_width
      req.Optimizer.constraints
  in
  (cached_entry t ~scope ?overrides prepared req).result

(* The entry's report, audited by [audit] the first time it is asked
   for. Two domains racing on a fresh entry may both audit; they store
   the same report. *)
let verdict_of entry audit =
  match Atomic.get entry.report with
  | Some report -> report
  | None ->
    let report = audit () in
    Atomic.set entry.report (Some report);
    report

(* ------------------------------------------------------------------ *)

type grid = {
  percents : int list;
  deltas : int list;
  slacks : int list;
  widens : bool list;
}

let default_grid =
  {
    percents = Optimizer.default_percents;
    deltas = Optimizer.default_deltas;
    slacks = Optimizer.default_slacks;
    widens = Optimizer.default_widens;
  }

let point_grid ?(params = Optimizer.default_params) () =
  {
    percents = [ params.Optimizer.percent ];
    deltas = [ params.Optimizer.delta ];
    slacks = [ params.Optimizer.insert_slack ];
    widens = [ params.Optimizer.widen ];
  }

type request = {
  soc : Soc_def.t;
  tam_width : int;
  constraints : Constraint_def.t;
  wmax : int;
  grid : grid;
  budget : Budget.t;
}

let request ?(wmax = 64) ?grid ?(budget = Budget.unlimited) soc ~tam_width
    ~constraints () =
  let grid = match grid with Some g -> g | None -> point_grid () in
  { soc; tam_width; constraints; wmax; grid; budget }

type stats = {
  pareto_computed : int;
  pareto_cached : int;
  eval_computed : int;
  eval_cached : int;
  eval_deduped : int;
  eval_from_store : int;
  elapsed_ms : float;
  store_probe_ms : float;
  eval_solve_ms : float;
}

type status = Complete | Deadline

type outcome = {
  result : Optimizer.result;
  status : status;
  evaluations : int;
  stats : stats;
  verdict : unit -> Audit.report;
}

let solve t (r : request) =
  let started = Clock.now_ms () in
  Obs.with_span ~cat:"phase" "engine.solve"
    ~args:
      [ ("soc", r.soc.Soc_def.name); ("W", string_of_int r.tam_width) ]
  @@ fun () ->
  let g = r.grid in
  let grid_size =
    List.length g.percents * List.length g.deltas * List.length g.slacks
    * List.length g.widens
  in
  if grid_size = 0 then invalid_arg "Engine.solve: empty parameter grid";
  let pareto_misses0 = Cache.misses t.pareto_cache in
  let prepared, prep_outcome = prepare_with_outcome t ~wmax:r.wmax r.soc in
  (* a prepare-level hit skips the per-core cache entirely: every
     staircase it hands back counts as cached *)
  let pareto_computed =
    match prep_outcome with
    | Cache.Computed -> Cache.misses t.pareto_cache - pareto_misses0
    | Cache.Cached | Cache.Deduped -> 0
  in
  let pareto_cached = Soc_def.core_count r.soc - pareto_computed in
  let tally = new_tally () in
  let loaded : loaded = Hashtbl.create 16 in
  let solve_scope = scope t prepared ~tam_width:r.tam_width r.constraints in
  let evaluated = ref 0 in
  let served = ref [] in
  (* [best_over_params] evaluates the request's width and constraints at
     every point, so the solve's scope keys every call made without
     width overrides *)
  let eval ?overrides prepared (req : Optimizer.request) =
    incr evaluated;
    let scope =
      if overrides = None then solve_scope
      else
        scope t ?overrides prepared ~tam_width:req.Optimizer.tam_width
          req.Optimizer.constraints
    in
    let entry = cached_entry t ~tally ~loaded ~scope ?overrides prepared req in
    served := entry :: !served;
    entry.result
  in
  let best =
    Optimizer.best_over_params ~budget:r.budget ~eval prepared
      ~tam_width:r.tam_width ~constraints:r.constraints ~percents:g.percents
      ~deltas:g.deltas ~slacks:g.slacks ~widens:g.widens ()
  in
  (* the entry [best] came from: every evaluation returns its own
     entry's result value *)
  let entry = List.find (fun (e : entry) -> e.result == best) !served in
  let spec =
    audit_spec t ~prepared ~wmax:r.wmax ~expect_tam_width:r.tam_width
      r.constraints
  in
  (* debug-mode post-condition: with SOCTEST_AUDIT on, every schedule the
     engine hands out is re-audited from first principles *)
  Audit.enforce
    ~source:
      (Printf.sprintf "engine.solve %s W=%d" r.soc.Soc_def.name r.tam_width)
    r.soc spec best.Optimizer.schedule;
  let status =
    if !evaluated < grid_size then begin
      Obs.instant ~cat:"engine" "engine.deadline"
        ~args:
          [
            ("evaluated", string_of_int !evaluated);
            ("grid", string_of_int grid_size);
          ];
      Deadline
    end
    else Complete
  in
  {
    result = best;
    status;
    evaluations = !evaluated;
    stats =
      {
        pareto_computed;
        pareto_cached;
        eval_computed = !(tally.t_computed);
        eval_cached = !(tally.t_cached);
        eval_deduped = !(tally.t_deduped);
        eval_from_store = !(tally.t_from_store);
        elapsed_ms = Float.max 0. (Clock.now_ms () -. started);
        store_probe_ms = !(tally.t_store_probe_ms);
        eval_solve_ms = !(tally.t_solve_ms);
      };
    verdict =
      (fun () ->
        verdict_of entry (fun () ->
            Audit.run r.soc spec best.Optimizer.schedule));
  }

let solve_many t requests =
  Obs.with_span ~cat:"phase" "engine.solve_many"
    ~args:[ ("requests", string_of_int (List.length requests)) ]
  @@ fun () -> List.map (solve t) requests

let pareto_cache_stats t = (Cache.hits t.pareto_cache, Cache.misses t.pareto_cache)
let eval_cache_stats t = (Cache.hits t.eval_cache, Cache.misses t.eval_cache)
