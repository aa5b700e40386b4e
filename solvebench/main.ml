(* The /v1/solve benchmark: load generator, answer checks and traced
   replay.

     main.exe --soctest BIN --workload NAME|all --seed N --seconds S --trace 0|1
     main.exe summarize < results

   A run spawns `soctest serve --workers 1 --store <fresh file>`, sets it
   up, then drives one seeded workload over one kept-alive connection
   in a closed loop (each request waits for the previous reply) for S
   seconds. It checks every answer, guards the workload's shape with
   the daemon's tier counters, and prints the end-to-end metrics; with
   --trace 1 it then replays the timed phase's fixed prefix in-process
   under spans and prints the per-layer metrics instead. The last line of stdout is
   one JSON object. `summarize` reads such lines back and prints each
   metric's median and interquartile spread. *)

module Json = Soctest_obs.Json
module Clock = Soctest_obs.Clock
module Engine = Soctest_engine.Engine
module Client = Soctest_serve.Serve_client
module Stats = Solvebench.Stats
module Workload = Solvebench.Workload

let out_dir = Filename.concat ".bench_build" "solvebench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec remove_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* Most requests a timed phase can need (the run stops at its seconds):
   generous rates so a faster daemon never runs out of fresh inputs. *)
let budget kind seconds =
  match kind with
  | Workload.Cold_solve -> 150 * seconds
  | Workload.Width_sweep -> 60 * seconds
  | Workload.Warm_hit -> 4000 * seconds
  | Workload.Store_hit -> 0

(* Set-ups per run, reported as their median. A hit workload's set-up
   is its multi-second fill, measured once. *)
let setups = function
  | Workload.Cold_solve | Workload.Width_sweep -> 3
  | Workload.Warm_hit | Workload.Store_hit -> 1

let grid_points =
  let g = Engine.default_grid in
  List.length g.Engine.percents * List.length g.Engine.deltas * List.length g.Engine.slacks
  * List.length g.Engine.widens

type sample = { index : int; latency_ms : float; status : int; response : string }

(* Each workload must have done what its name says, judged by the
   daemon's own tier counters over the timed phase. *)
let shape_guard kind ~requests ~cores ~before ~after =
  let delta name =
    let v l = Option.value (List.assoc_opt ("soctest_" ^ name) l) ~default:0. in
    int_of_float (v after -. v before)
  in
  let expect name want =
    let got = delta name in
    if got = want then None else Some (Printf.sprintf "%s moved %d, expected %d" name got want)
  in
  let n = requests in
  List.filter_map Fun.id
    (match kind with
    | Workload.Cold_solve ->
      (* every SOC prepared afresh and every staircase computed: no
         solve was served a staircase from the cache *)
      [ expect "engine_cache_prepare_misses" n; expect "engine_cache_pareto_misses" cores ]
    | Workload.Width_sweep ->
      [
        expect "engine_cache_eval_misses" (Workload.sweep_widths * n);
        expect "store_appends" (Workload.sweep_widths * n);
        expect "engine_cache_eval_hits" 0;
        expect "engine_store_hits" 0;
      ]
    | Workload.Warm_hit ->
      [ expect "engine_cache_eval_hits" (grid_points * n); expect "engine_cache_eval_misses" 0 ]
    | Workload.Store_hit ->
      [
        expect "engine_store_hits" (grid_points * n);
        expect "engine_store_audit_rejects" 0;
        expect "engine_cache_eval_hits" 0;
      ])

(* Check every answer, split over two domains now that the daemon is
   down; staircases are shared through one engine. *)
let check_all timed samples =
  let checker = Engine.create () in
  let check memo s =
    Checks.check checker memo ~body:timed.(s.index) ~status:s.status
      ~response:s.response
  in
  let a = Array.of_list samples in
  let half = Array.length a / 2 in
  let other =
    Domain.spawn (fun () ->
        Array.map (check (Checks.memo ())) (Array.sub a half (Array.length a - half)))
  in
  let first = Array.map (check (Checks.memo ())) (Array.sub a 0 half) in
  Array.to_list (Array.append first (Domain.join other))

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}" name v unit)
          metrics))

(* The traced run: replay the set-up untraced so the in-process engine
   reaches the daemon's state, then the timed phase's fixed prefix under
   spans, so counts and allocations repeat exactly for a seed. The
   daemon is down by now, so nothing competes with the replay. Returns
   how many replayed makespans differ from the daemon's, and the
   per-layer metrics. *)
let traced_replay ~dir ~kind ~seed ~(plan : Workload.plan) ~rtt_ms checked =
  let r = Replay.create ~dir in
  Fun.protect ~finally:(fun () -> Replay.close r) @@ fun () ->
  Array.iter (fun body -> ignore (Replay.request r ~trace:false ~rid:(-1) body)) plan.Workload.warmup;
  Trace.reset ();
  if plan.Workload.restart then Replay.restart r;
  let before = Replay.counts r in
  let replayed =
    List.filter_map
      (fun ((s : sample), (v : Checks.verdict)) ->
        if s.index >= plan.Workload.min_samples then None
        else
          let got = Replay.request r ~trace:true ~rid:s.index plan.Workload.timed.(s.index) in
          Some (s.latency_ms, got = v.Checks.makespans))
      checked
  in
  let latencies = List.map fst replayed in
  let spans = Trace.spans () in
  let metrics, layer_ms, covered_ms = Replay.metrics r ~latencies ~before ~rtt_ms spans in
  let mismatches = List.length (List.filter (fun (_, same) -> not same) replayed) in
  mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-s%d.json" (Workload.name kind) seed) in
  Trace.write_chrome path spans;
  Printf.printf "traced replay: %d of %d requests, %d makespans differ from the daemon's; spans in %s\n"
    (List.length replayed) (List.length checked) mismatches path;
  let mean = Stats.mean latencies in
  Printf.printf "  replay covers %.1f%% of the untraced mean latency (%.3f of %.3f ms)\n"
    (100. *. covered_ms /. mean) covered_ms mean;
  Printf.printf "  layer self time per request:\n";
  let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. layer_ms in
  List.iter
    (fun (l, ms) -> Printf.printf "    %-8s %10.4f ms %6.1f%%\n" l ms (100. *. ms /. total))
    (List.sort (fun (_, a) (_, b) -> compare b a) layer_ms);
  List.iter (fun (name, unit, v) -> Printf.printf "  %-26s %12.4f %s\n" name v unit) metrics;
  (mismatches, metrics)

let run ~soctest ~kind ~seed ~seconds ~trace =
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" (Workload.name kind) (Unix.getpid ())) in
  remove_tree dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let plan = Workload.plan kind ~seed ~budget:(budget kind seconds) in
  let store = Filename.concat dir "daemon.db" and log = Filename.concat dir "daemon.log" in
  let send d body =
    let resp = Daemon.solve d body in
    if resp.Client.status <> 200 then
      failwith (Printf.sprintf "set-up request answered %d: %s" resp.Client.status resp.Client.body)
  in
  (* the daemon currently running, stopped on any way out *)
  let live = ref None in
  let start () =
    let d = Daemon.start ~soctest ~store ~log in
    live := Some d;
    d
  in
  let stop d =
    live := None;
    Daemon.stop d
  in
  Fun.protect ~finally:(fun () -> Option.iter (fun d -> try Daemon.stop d with _ -> ()) !live)
  @@ fun () ->
  (* --- set-up: everything before the first timed request --- *)
  let rec setup k times =
    if Sys.file_exists store then Sys.remove store;
    let t0 = Clock.now_s () in
    let d = start () in
    Array.iter (send d) plan.Workload.warmup;
    let d =
      if plan.Workload.restart then begin
        stop d;
        start ()
      end
      else d
    in
    let times = (Clock.now_s () -. t0) :: times in
    if k < setups kind then begin
      stop d;
      setup (k + 1) times
    end
    else (d, Stats.median times)
  in
  let d, setup_s = setup 1 [] in
  (* --- timed phase: closed loop over one connection --- *)
  let timed = plan.Workload.timed in
  let samples = ref [] in
  Gc.full_major ();
  let before = Daemon.counters d in
  let fixed = plan.Workload.min_samples in
  let rss_mb = ref 0. in
  let t0 = Clock.now_s () in
  let rec loop i =
    if i < Array.length timed && (i < fixed || Clock.now_s () -. t0 < float_of_int seconds)
    then begin
      let s = Clock.now_ms () in
      let r = Daemon.solve d timed.(i) in
      let latency_ms = Clock.now_ms () -. s in
      samples := { index = i; latency_ms; status = r.Client.status; response = r.Client.body } :: !samples;
      if i + 1 = fixed then rss_mb := Daemon.peak_rss_mb d;
      loop (i + 1)
    end
  in
  loop 0;
  let wall = Clock.now_s () -. t0 in
  let after = Daemon.counters d in
  let samples = List.rev !samples in
  let rtt_ms = Stats.median (List.init 21 (fun _ -> Daemon.healthz_ms d)) in
  stop d;
  let n = List.length samples in
  (* --- output checks --- *)
  let verdicts = check_all timed samples in
  let failures =
    List.filter_map
      (fun (s, (v : Checks.verdict)) -> Option.map (fun r -> (s.index, r)) v.Checks.failure)
      (List.combine samples verdicts)
  in
  List.iter (fun (i, r) -> Printf.printf "FAILED request %d: %s\n" i r) failures;
  let cores =
    List.fold_left
      (fun acc s ->
        acc + Soctest_soc.Soc_def.core_count (Checks.decode timed.(s.index)).Soctest_serve.Protocol.soc)
      0 samples
  in
  let shape = shape_guard kind ~requests:n ~cores ~before ~after in
  List.iter (fun m -> Printf.printf "SHAPE GUARD %s: %s\n" (Workload.name kind) m) shape;
  let latencies = List.map (fun s -> s.latency_ms) samples in
  let gap_pct =
    match
      List.filteri (fun i (v : Checks.verdict) -> i < fixed && v.Checks.failure = None) verdicts
    with
    | [] -> 0. (* every answer failed: the run is not correct anyway *)
    | ok -> Stats.mean (List.map (fun (v : Checks.verdict) -> v.Checks.gap_pct) ok)
  in
  let e2e =
    [
      ("throughput_rps", "1/s", float_of_int n /. wall);
      ("latency_p50_ms", "ms", Stats.percentile latencies 0.50);
      ("latency_p90_ms", "ms", Stats.percentile latencies 0.90);
      ("gap_pct", "%", gap_pct);
      ("setup_s", "s", setup_s);
      ("peak_rss_mb", "MiB", !rss_mb);
    ]
  in
  Printf.printf
    "solvebench %s seed=%d: %d timed requests in %.2f s (closed loop, 1 connection, 1 worker), %d \
     beyond p90, %d failed, shape %s\n"
    (Workload.name kind) seed n wall (Stats.beyond n 0.90) (List.length failures)
    (if shape = [] then "ok" else "VIOLATED");
  List.iter (fun (name, unit, v) -> Printf.printf "  %-16s %12.4f %s\n" name v unit) e2e;
  let mismatches, metrics =
    if trace then traced_replay ~dir ~kind ~seed ~plan ~rtt_ms (List.combine samples verdicts)
    else (0, e2e)
  in
  let correct = failures = [] && shape = [] && mismatches = 0 in
  result_line ~correct ~attempted:n ~failed:(List.length failures) metrics;
  correct

(* --- summarize: median and spread of result lines on stdin --- *)

let summarize () =
  let tbl = Hashtbl.create 16 and order = ref [] in
  (try
     while true do
       let line = input_line stdin in
       match Json.parse line with
       | Ok j -> (
         match Json.member "metrics" j with
         | Some (Json.Obj ms) ->
           List.iter
             (fun (name, m) ->
               let add v =
                 if not (Hashtbl.mem tbl name) then order := name :: !order;
                 Hashtbl.replace tbl name (v :: Option.value (Hashtbl.find_opt tbl name) ~default:[])
               in
               match Json.member "value" m with
               | Some (Json.Float v) -> add v
               | Some (Json.Int i) -> add (float_of_int i)
               | _ -> ())
             ms
         | _ -> ())
       | Error _ -> ()
     done
   with End_of_file -> ());
  List.iter
    (fun name ->
      let vs = Hashtbl.find tbl name in
      if List.length vs >= 2 then
        Printf.printf "%-26s n=%2d median %12.4f spread %6.2f%%\n" name (List.length vs)
          (Stats.median vs) (100. *. Stats.spread vs))
    (List.rev !order)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "summarize" then summarize ()
  else begin
    let soctest = ref "" and workload = ref "" and seed = ref (-1) and seconds = ref 0
    and trace = ref 0 in
    Arg.parse
      [
        ("--soctest", Arg.Set_string soctest, "PATH the soctest binary to serve with");
        ( "--workload",
          Arg.Set_string workload,
          "NAME cold_solve|width_sweep|warm_hit|store_hit, or all to run the four in turn" );
        ("--seed", Arg.Set_int seed, "N input seed");
        ("--seconds", Arg.Set_int seconds, "S timed-phase length");
        ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer replay");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "main.exe --soctest BIN --workload NAME|all --seed N --seconds S --trace 0|1";
    let kinds =
      if !workload = "all" then Workload.kinds
      else
        match Workload.of_name !workload with
        | Some k -> [ k ]
        | None ->
          prerr_endline ("unknown workload " ^ !workload);
          exit 2
    in
    if !soctest = "" || !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "need --soctest, --seed >= 0, --seconds >= 1 and --trace 0|1";
      exit 2
    end;
    (* the checker and the replay own their engines' stores explicitly *)
    Unix.putenv "SOCTEST_STORE" "";
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let correct =
      List.map (fun kind -> run ~soctest:!soctest ~kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)) kinds
    in
    if List.mem false correct then exit 1
  end
