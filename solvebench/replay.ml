(* The traced replay: the daemon's requests re-run in-process through
   each layer's public functions, in the order Server.handle_solve and
   Engine.solve call them. Where the engine's sequence between two
   public calls is private (its cache keys), the enclosing public call
   is timed and the public sub-steps are re-timed beside it; their
   spans name the enclosing span as parent, so its self time is what
   the sub-steps do not account for. *)

module Json = Soctest_obs.Json
module Clock = Soctest_obs.Clock
module Protocol = Soctest_serve.Protocol
module Engine = Soctest_engine.Engine
module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Audit = Soctest_check.Audit
module Ref_alloc = Soctest_check.Ref_alloc
module Wire_alloc = Soctest_tam.Wire_alloc
module Store = Soctest_store.Store

type t = {
  dir : string;
  mutable store : Store.t;
  mutable engine : Engine.t;
  beside : Store.t;  (** takes the re-timed write-through appends *)
  mutable keys : (string * string, string list) Hashtbl.t option;
      (** store keys by (SOC digest, width field), indexed on first use *)
  mutable open_ms : float;  (** the latest store open *)
  mutable staircases : int * int;  (** (served from cache, computed) *)
  mutable audits : int;
  mutable slices : int;
  mutable response_bytes : int;
}

let store_path dir = Filename.concat dir "replay.db"

let timed_open path =
  let t0 = Clock.now_ms () in
  let store = Store.open_ path in
  (store, Clock.now_ms () -. t0)

let open_store t =
  let store, ms = timed_open (store_path t.dir) in
  t.open_ms <- ms;
  t.store <- store;
  t.engine <- Engine.create ~store ();
  t.keys <- None

let create ~dir =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ store_path dir; Filename.concat dir "beside.db" ];
  let store, open_ms = timed_open (store_path dir) in
  {
    dir;
    open_ms;
    store;
    engine = Engine.create ~store ();
    beside = Store.open_ (Filename.concat dir "beside.db");
    keys = None;
    staircases = (0, 0);
    audits = 0;
    slices = 0;
    response_bytes = 0;
  }

(* What a daemon restart does to the engine: memory tiers dropped, the
   store re-opened and its index rebuilt by scanning. *)
let restart t =
  Store.close t.store;
  open_store t

let close t =
  Store.close t.store;
  Store.close t.beside

(* The store keys of the grid evaluations of [soc] at width [w]. Keys
   are '|'-separated and lead with the engine's SOC digest, then the
   Pareto wmax, then the width. *)
let store_keys t soc w =
  let index =
    match t.keys with
    | Some i -> i
    | None ->
      let i = Hashtbl.create 256 in
      Store.iter t.store (fun ~key ~payload:_ ->
          match String.split_on_char '|' key with
          | digest :: _ :: width :: _ ->
            Hashtbl.replace i (digest, width)
              (key :: Option.value (Hashtbl.find_opt i (digest, width)) ~default:[])
          | _ -> ());
      t.keys <- Some i;
      i
  in
  Option.value
    (Hashtbl.find_opt index (Engine.soc_digest soc, Printf.sprintf "W=%d" w))
    ~default:[]

let grid_of (req : Protocol.solve_request) =
  match req.Protocol.strategy with
  | Protocol.Point -> Engine.point_grid ()
  | Protocol.Grid -> Engine.default_grid
  | Protocol.Rectpack | Protocol.Rectpack_diag ->
    invalid_arg "replay: rectpack requests are not part of the benchmark"

let problem_name = function
  | Protocol.P1 -> "p1"
  | Protocol.P2 -> "p2"
  | Protocol.P3 -> "p3"

(* Replay one request; [trace] records spans and runs the re-timed
   sub-steps. Returns the makespans the daemon must have answered. *)
let request t ~trace ~rid body =
  let step layer name f =
    if trace then Trace.record ~rid ~layer name f else (f (), -1)
  in
  let beside parent layer name f = fst (Trace.record ~parent ~rid ~layer name f) in
  let audit ~parent soc spec sched =
    let report, id =
      if trace then Trace.record ~parent ~rid ~layer:"check" "check.audit" (fun () -> Audit.run soc spec sched)
      else (Audit.run soc spec sched, -1)
    in
    if trace then begin
      t.audits <- t.audits + 1;
      t.slices <- t.slices + report.Audit.slices_audited;
      beside id "check" "check.ref_alloc" (fun () ->
          match Ref_alloc.allocate sched with
          | Ok a -> ignore (Ref_alloc.is_disjoint a)
          | Error _ -> ());
      beside id "tam" "tam.wire_alloc" (fun () ->
          match Wire_alloc.allocate_result sched with
          | Ok a -> ignore (Wire_alloc.is_disjoint a)
          | Error _ -> ())
    end;
    report
  in
  let req, decode_id = step "serve" "serve.decode" (fun () -> Checks.decode body) in
  (if trace then
     match Json.parse body with
     | Ok j -> (
       match (Json.member "soc_text" j, Json.member "soc" j) with
       | Some (Json.String text), _ ->
         ignore (beside decode_id "soc" "soc.parse" (fun () -> Soctest_soc.Soc_parser.parse_result text))
       | _, Some (Json.String name) ->
         ignore (beside decode_id "soc" "soc.parse" (fun () -> Soctest_soc.Benchmarks.by_name name))
       | _ -> ())
     | Error _ -> ());
  let soc = req.Protocol.soc and wmax = req.Protocol.wmax in
  let c, _ = step "core" "serve.prep" (fun () -> Checks.constraints req) in
  (* Engine.solve prepares first; doing it as its own public call puts
     the staircase work in a span of its own *)
  let misses0 = snd (Engine.pareto_cache_stats t.engine) in
  let prepared, prep_id = step "wrapper" "wrapper.prepare" (fun () -> Engine.prepare t.engine ~wmax soc) in
  if trace then begin
    ignore (beside prep_id "engine" "engine.digest" (fun () -> Engine.soc_digest soc));
    let computed = snd (Engine.pareto_cache_stats t.engine) - misses0 in
    let hit, miss = t.staircases in
    t.staircases <- (hit + Soctest_soc.Soc_def.core_count soc - computed, miss + computed)
  end;
  let grid = grid_of req in
  let widths =
    match req.Protocol.problem with
    | Protocol.P3 ->
      List.init (Option.value req.Protocol.max_width ~default:req.Protocol.tam_width) (fun i -> i + 1)
    | Protocol.P1 | Protocol.P2 -> [ req.Protocol.tam_width ]
  in
  let requests =
    List.map (fun w -> Engine.request soc ~tam_width:w ~constraints:c ~wmax ~grid ()) widths
  in
  let outcomes, solve_id =
    step "engine" "engine.solve" (fun () ->
        match req.Protocol.problem with
        | Protocol.P3 -> Engine.solve_many t.engine requests
        | Protocol.P1 | Protocol.P2 -> [ Engine.solve t.engine (List.hd requests) ])
  in
  if trace then begin
    ignore (beside solve_id "engine" "engine.digest" (fun () -> Engine.constraints_digest c));
    let points =
      Optimizer.grid_points ~wmax ~percents:grid.Engine.percents ~deltas:grid.Engine.deltas
        ~slacks:grid.Engine.slacks ~widens:grid.Engine.widens ()
    in
    List.iter2
      (fun w (o : Engine.outcome) ->
        let s = o.Engine.stats in
        if s.Engine.eval_computed > 0 then begin
          (* a miss probes the store, runs the scheduler and writes the
             result through *)
          if List.length points <> 1 then
            failwith "replay: computed grid evaluations cannot be attributed";
          let oreq =
            Optimizer.request ~params:(List.hd points) ~tam_width:w ~constraints:c ()
          in
          ignore
            (beside solve_id "store" "store.find" (fun () ->
                 Store.find t.store (Printf.sprintf "replay-miss|%d|%d" rid w)));
          let r = beside solve_id "core" "core.schedule" (fun () -> Optimizer.run_request prepared oreq) in
          let payload =
            beside solve_id "engine" "engine.payload_encode" (fun () -> Engine.result_to_payload r)
          in
          beside solve_id "store" "store.add" (fun () ->
              Store.add t.beside ~key:(Printf.sprintf "%d|%d" rid w) payload)
        end;
        if s.Engine.eval_from_store > 0 then begin
          (* a disk hit is read, decoded and re-audited before it is
             served *)
          let keys = store_keys t soc w in
          if List.length keys <> s.Engine.eval_from_store then
            failwith "replay: store keys do not match the disk hits";
          let spec = Engine.audit_spec t.engine ~wmax ~expect_tam_width:w c in
          List.iter
            (fun key ->
              let payload =
                beside solve_id "store" "store.find" (fun () -> Option.get (Store.find t.store key))
              in
              match
                beside solve_id "engine" "engine.payload_decode" (fun () ->
                    Engine.result_of_payload payload)
              with
              | Ok r -> ignore (audit ~parent:solve_id soc spec r.Optimizer.schedule)
              | Error e -> failwith ("replay: undecodable store payload: " ^ e))
            keys
        end)
      widths outcomes
  end;
  let common =
    [
      ("soc", Json.String req.Protocol.soc_source);
      ("width", Json.Int req.Protocol.tam_width);
      ("problem", Json.String (problem_name req.Protocol.problem));
    ]
  in
  let render fields =
    let json, _ = step "serve" "serve.render" (fun () -> Json.to_string (Json.Obj (common @ fields))) in
    t.response_bytes <- t.response_bytes + String.length json
  in
  match req.Protocol.problem with
  | Protocol.P3 ->
    render
      [
        ( "points",
          Json.List
            (List.map2
               (fun w (o : Engine.outcome) ->
                 let time = o.Engine.result.Optimizer.testing_time in
                 Json.Obj
                   [
                     ("width", Json.Int w);
                     ("time", Json.Int time);
                     ("volume", Json.Int (w * time));
                     ( "status",
                       Json.String
                         (match o.Engine.status with
                         | Engine.Complete -> "complete"
                         | Engine.Deadline -> "deadline") );
                   ])
               widths outcomes) );
        ( "evaluations",
          Json.Int (List.fold_left (fun n (o : Engine.outcome) -> n + o.Engine.evaluations) 0 outcomes) );
      ];
    List.map (fun (o : Engine.outcome) -> o.Engine.result.Optimizer.testing_time) outcomes
  | Protocol.P1 | Protocol.P2 ->
    let o = List.hd outcomes in
    let w = req.Protocol.tam_width in
    let report =
      audit ~parent:(-1) soc (Engine.audit_spec t.engine ~wmax ~expect_tam_width:w c)
        o.Engine.result.Optimizer.schedule
    in
    let lb, _ =
      step "core" "core.bound" (fun () ->
          Lower_bound.compute_constrained (Engine.prepare t.engine ~wmax soc) ~tam_width:w
            ~constraints:c)
    in
    render
      [
        ("result", Protocol.json_of_outcome ~lower_bound:lb ~soc o);
        ("audit", Protocol.json_of_report report);
      ];
    [ o.Engine.result.Optimizer.testing_time ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced timed replay *)

type counts = {
  eval : int * int;  (** engine evaluation cache (hits, misses) *)
  disk : int * int;  (** engine store tier (hits, misses) *)
  file_bytes : int;
}

let counts t =
  let st = Engine.store_stats t.engine in
  {
    eval = Engine.eval_cache_stats t.engine;
    disk = (st.Engine.hits, st.Engine.misses);
    file_bytes = (Store.stats t.store).Store.file_bytes;
  }

let layers = [ "wrapper"; "core"; "check"; "tam"; "engine"; "store"; "serve"; "soc" ]

let ratio (h1, m1) (h0, m0) =
  let h = h1 - h0 and m = m1 - m0 in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

(* [metrics t ~latencies ~before ~rtt_ms spans]: the per-layer metrics
   of the timed replay's spans, per request, plus the layer self-time
   table. [latencies] are the daemon's untraced latencies of the
   replayed requests. *)
let metrics t ~latencies ~before ~rtt_ms spans =
  let after = counts t in
  let n = float_of_int (List.length latencies) in
  let selfs = Trace.self spans in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. selfs in
  let ms name = sum (fun (s, ms, _) -> if s.Trace.name = name then ms else 0.) /. n in
  let kw pred = sum (fun (s, _, w) -> if pred s then w else 0.) /. n /. 1000. in
  let total f = List.fold_left (fun acc (s : Trace.span) -> acc +. f s) 0. spans /. n in
  let inclusive_kw name = total (fun s -> if s.Trace.name = name then s.Trace.words else 0.) /. 1000. in
  (* the top-level steps are the request's own time; re-timed sub-steps
     are extra work the daemon did not do *)
  let covered_ms =
    total (fun s -> if s.Trace.parent < 0 then (s.Trace.stop_us -. s.Trace.start_us) /. 1000. else 0.)
  in
  let fi = float_of_int in
  let computed =
    snd after.eval - snd before.eval - (fst after.disk - fst before.disk)
  in
  let m =
    [
      ("wrapper.pareto_ms", "ms", ms "wrapper.prepare");
      ("wrapper.staircases", "count", fi (snd t.staircases) /. n);
      ("wrapper.alloc_kw", "kw", kw (fun s -> s.Trace.layer = "wrapper"));
      ("core.schedule_ms", "ms", ms "core.schedule");
      ("core.evaluations", "count", fi computed /. n);
      ("core.alloc_kw", "kw", kw (fun s -> s.Trace.layer = "core"));
      ("core.bound_ms", "ms", ms "core.bound");
      ("check.audit_ms", "ms", ms "check.audit");
      ("check.audits", "count", fi t.audits /. n);
      ("check.slices", "count", fi t.slices /. n);
      ("check.alloc_kw", "kw", inclusive_kw "check.audit");
      ("check.ref_alloc_ms", "ms", ms "check.ref_alloc");
      ("tam.wire_alloc_ms", "ms", ms "tam.wire_alloc");
      ("engine.digest_ms", "ms", ms "engine.digest");
      ("engine.lookup_ms", "ms", ms "engine.solve");
      ("engine.payload_encode_ms", "ms", ms "engine.payload_encode");
      ("engine.payload_decode_ms", "ms", ms "engine.payload_decode");
      ("engine.eval_hit_ratio", "ratio", ratio after.eval before.eval);
      ("engine.pareto_hit_ratio", "ratio", ratio t.staircases (0, 0));
      ("store.find_ms", "ms", ms "store.find");
      ("store.add_ms", "ms", ms "store.add");
      ("store.open_ms", "ms", t.open_ms);
      ("store.hit_ratio", "ratio", ratio after.disk before.disk);
      ("store.written_kb", "KiB", fi (after.file_bytes - before.file_bytes) /. n /. 1024.);
      ("serve.decode_ms", "ms", ms "serve.decode");
      ("serve.render_ms", "ms", ms "serve.render");
      ("serve.response_kb", "KiB", fi t.response_bytes /. n /. 1024.);
      ("serve.http_rtt_ms", "ms", rtt_ms);
      ("soc.parse_ms", "ms", ms "soc.parse");
      ( "replay.coverage_pct",
        "%",
        100. *. covered_ms /. Solvebench.Stats.mean latencies );
    ]
  in
  let layer_ms =
    List.map
      (fun l -> (l, sum (fun (s, ms, _) -> if s.Trace.layer = l then ms else 0.) /. n))
      layers
  in
  (m, layer_ms, covered_ms)
