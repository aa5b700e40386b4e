(* Tests for the solver service layer: the deduplicating evaluation
   cache (including under concurrent domains), budget degradation, digest
   stability, and the cached-equals-uncached contract the engine is built
   on. *)

module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow
module O = Soctest_core.Optimizer
module Budget = Soctest_core.Budget
module C = Soctest_constraints.Constraint_def
module Soc_def = Soctest_soc.Soc_def
module IO = Soctest_tam.Schedule_io
module Obs = Soctest_obs.Obs

let runs_counter = Obs.counter "optimizer.runs"
let pareto_counter = Obs.counter "pareto.computes"

let un soc = C.unconstrained ~core_count:(Soc_def.core_count soc)

(* ---------------- digests ---------------- *)

let test_soc_digest_roundtrip_stable () =
  let soc = Test_helpers.d695 () in
  let reparsed =
    Soctest_soc.Soc_parser.parse_string (Soctest_soc.Soc_writer.to_string soc)
  in
  Alcotest.(check string)
    "digest survives writer/parser round-trip" (Engine.soc_digest soc)
    (Engine.soc_digest reparsed);
  Alcotest.(check bool)
    "different SOCs get different digests" false
    (Engine.soc_digest soc = Engine.soc_digest (Test_helpers.mini4 ()))

let test_constraints_digest_structural () =
  let a = C.make ~core_count:4 ~precedence:[ (1, 2) ] ~power_limit:100 () in
  let b = C.make ~core_count:4 ~precedence:[ (1, 2) ] ~power_limit:100 () in
  Alcotest.(check string)
    "structurally equal constraints, equal digest"
    (Engine.constraints_digest a)
    (Engine.constraints_digest b);
  Alcotest.(check bool)
    "power limit changes the digest" false
    (Engine.constraints_digest a
    = Engine.constraints_digest (C.with_power_limit a (Some 99)))

(* ---------------- cache behaviour ---------------- *)

let test_solve_twice_hits_cache () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let req = Engine.request soc ~tam_width:8 ~constraints:(un soc) () in
  let cold = Engine.solve engine req in
  let warm = Engine.solve engine req in
  Alcotest.(check int) "same testing time"
    cold.Engine.result.O.testing_time warm.Engine.result.O.testing_time;
  Alcotest.(check string) "bit-for-bit same schedule"
    (IO.to_string cold.Engine.result.O.schedule)
    (IO.to_string warm.Engine.result.O.schedule);
  Alcotest.(check int) "cold computed" 1 cold.Engine.stats.Engine.eval_computed;
  Alcotest.(check int) "warm cached" 1 warm.Engine.stats.Engine.eval_cached;
  Alcotest.(check int) "warm computed nothing" 0
    warm.Engine.stats.Engine.eval_computed;
  let hits, misses = Engine.eval_cache_stats engine in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits

let test_cached_equals_uncached () =
  let soc = Test_helpers.mini4 () in
  let constraints = C.of_soc soc () in
  let engine = Engine.create () in
  let grid = { Engine.default_grid with percents = [ 1; 3; 5 ] } in
  let via_engine =
    Engine.solve engine (Engine.request ~grid soc ~tam_width:8 ~constraints ())
  in
  let direct =
    O.best_over_params (O.prepare soc) ~tam_width:8 ~constraints
      ~percents:[ 1; 3; 5 ] ()
  in
  Alcotest.(check int) "engine = plain best_over_params"
    direct.O.testing_time via_engine.Engine.result.O.testing_time;
  Alcotest.(check string) "same schedule"
    (IO.to_string direct.O.schedule)
    (IO.to_string via_engine.Engine.result.O.schedule)

let test_prepare_shares_pareto () =
  Obs.enable ();
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let before = Obs.counter_value pareto_counter in
  let _ = Engine.prepare engine soc in
  let after_first = Obs.counter_value pareto_counter in
  let _ = Engine.prepare engine soc in
  let after_second = Obs.counter_value pareto_counter in
  Alcotest.(check int) "first prepare computes every core" 4
    (after_first - before);
  Alcotest.(check int) "second prepare computes nothing" 0
    (after_second - after_first)

let test_evaluator_dedups () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let eval = Engine.evaluator engine in
  let prepared = Engine.prepare engine soc in
  let req = O.request ~tam_width:8 ~constraints:(un soc) () in
  let a = eval prepared req in
  let b = eval prepared req in
  Alcotest.(check int) "same result" a.O.testing_time b.O.testing_time;
  let hits, _ = Engine.eval_cache_stats engine in
  Alcotest.(check int) "second evaluation was a hit" 1 hits

(* ---------------- concurrent dedup ---------------- *)

let test_dedup_under_domains () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let grid =
    { Engine.percents = [ 1; 2 ]; deltas = [ 0; 1 ]; slacks = [ 3 ];
      widens = [ true ] }
  in
  let req = Engine.request ~grid soc ~tam_width:8 ~constraints:(un soc) () in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Engine.solve engine req))
  in
  let outcomes = List.map Domain.join domains in
  let first = List.hd outcomes in
  List.iter
    (fun o ->
      Alcotest.(check int) "every domain sees the same best"
        first.Engine.result.O.testing_time o.Engine.result.O.testing_time;
      Alcotest.(check string) "and the same schedule"
        (IO.to_string first.Engine.result.O.schedule)
        (IO.to_string o.Engine.result.O.schedule);
      Alcotest.(check int) "every domain evaluated the whole grid" 4
        o.Engine.evaluations)
    outcomes;
  let total field = List.fold_left (fun acc o -> acc + field o) 0 outcomes in
  Alcotest.(check int) "each unique grid point computed exactly once" 4
    (total (fun o -> o.Engine.stats.Engine.eval_computed));
  Alcotest.(check int) "everything else served by cache or dedup" 12
    (total (fun o ->
         o.Engine.stats.Engine.eval_cached
         + o.Engine.stats.Engine.eval_deduped))

(* ---------------- budgets ---------------- *)

let test_expired_budget_returns_incumbent () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let o =
    Engine.solve engine
      (Engine.request ~grid:Engine.default_grid
         ~budget:(Budget.create ~deadline_ms:0. ())
         soc ~tam_width:8 ~constraints:(un soc) ())
  in
  (match o.Engine.status with
  | Engine.Deadline -> ()
  | Engine.Complete -> Alcotest.fail "expected Deadline status");
  Alcotest.(check int) "exactly the guaranteed first evaluation" 1
    o.Engine.evaluations;
  Test_helpers.check_complete soc o.Engine.result.O.schedule

let test_max_evals_budget_stops_early () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let grid = { Engine.default_grid with percents = [ 1; 2; 3; 4 ];
               deltas = [ 0 ] } in
  let o =
    Engine.solve engine
      (Engine.request ~grid
         ~budget:(Budget.create ~max_evals:2 ())
         soc ~tam_width:8 ~constraints:(un soc) ())
  in
  (match o.Engine.status with
  | Engine.Deadline -> ()
  | Engine.Complete -> Alcotest.fail "expected Deadline status");
  Alcotest.(check int) "stopped after the budgeted evaluations" 2
    o.Engine.evaluations;
  Test_helpers.check_complete soc o.Engine.result.O.schedule

let test_budget_ticks_per_request_not_per_compute () =
  (* budget accounting must not depend on cache state: a warm cache
     serves the evaluations, but the budget still sees every request *)
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let grid =
    { Engine.percents = [ 1; 2 ]; deltas = [ 0 ]; slacks = [ 3 ];
      widens = [ true ] }
  in
  let mk budget =
    Engine.request ~grid ~budget soc ~tam_width:8 ~constraints:(un soc) ()
  in
  let b1 = Budget.create () in
  let _ = Engine.solve engine (mk b1) in
  Alcotest.(check int) "cold solve ticks per grid point" 2 (Budget.evals b1);
  let b2 = Budget.create () in
  let _ = Engine.solve engine (mk b2) in
  Alcotest.(check int) "warm solve ticks identically" 2 (Budget.evals b2)

(* Deadlines are on the monotonic clock: polled until it runs out, the
   remaining time never rises and never exceeds the deadline it started
   from. (Stepping the wall clock would change the machine's clock, so
   the test pins these two properties instead.) *)
let test_budget_remaining_monotonic () =
  let deadline_ms = 20. in
  let b = Budget.create ~deadline_ms () in
  let rec poll prev =
    match Budget.remaining_ms b with
    | None -> Alcotest.fail "a deadline budget reports its remaining time"
    | Some r ->
      if r > prev then Alcotest.failf "remaining_ms rose from %g to %g" prev r;
      if r > deadline_ms then
        Alcotest.failf "remaining_ms %g exceeds the %g ms deadline" r
          deadline_ms;
      if r > 0. then poll r
  in
  poll deadline_ms;
  Alcotest.(check bool) "exhausted once nothing remains" true
    (Budget.exhausted b);
  Alcotest.(check bool) "no deadline, no remaining time" true
    (Budget.remaining_ms (Budget.create ~max_evals:1 ()) = None)

(* ---------------- the verdict kept on a cache entry ---------------- *)

module Audit = Soctest_check.Audit

let audits_counter = Obs.counter "check.audits"

(* [f ()] with metrics recording on and the debug post-condition off
   (it would add an audit per solve), and the audits it ran *)
let counting_audits f =
  let debug = Audit.enabled () in
  Audit.set_enabled false;
  Obs.enable ~events:false ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Audit.set_enabled debug)
    (fun () ->
      let v = f () in
      (v, Obs.counter_value audits_counter))

let grid_request soc ~tam_width constraints =
  Engine.request soc ~tam_width ~constraints ~grid:Engine.default_grid ()

(* A synthetic SOC solved under a power cap and a preemption budget, so
   the verdict covers the power and si+so restart accounting too. *)
let capped_synth () =
  let soc =
    Soctest_soc.Synth.generate
      {
        Soctest_soc.Synth.name = "verdict9";
        seed = 77L;
        core_count = 9;
        target_data_bits = 80_000;
        big_core_fraction = 0.25;
        combinational_fraction = 0.1;
        hierarchy_pairs = 2;
        bist_engines = 2;
      }
  in
  ( soc,
    C.of_soc soc
      ~power_limit:(2 * Soc_def.max_power soc)
      ~max_preemptions:(Flow.preemption_budget soc ~limit:2)
      () )

(* A warm solve serves the report its entry keeps: equal to a fresh
   [Audit.run] of the served schedule under the serving spec, and to
   the reference auditor's. *)
let test_verdict_matches_fresh_audit () =
  let cases =
    List.concat_map
      (fun name ->
        let soc = Option.get (Soctest_soc.Benchmarks.by_name name) in
        List.map
          (fun w -> (soc, C.of_soc soc (), w))
          [ 8; 16; 32; 64 ])
      [ "mini4"; "d695"; "p22810"; "p34392"; "p93791" ]
    @
    let soc, constraints = capped_synth () in
    [ (soc, constraints, 12) ]
  in
  List.iter
    (fun (soc, constraints, w) ->
      let engine = Engine.create () in
      let req = grid_request soc ~tam_width:w constraints in
      ignore (Engine.solve engine req);
      let warm = Engine.solve engine req in
      let label = Printf.sprintf "%s W=%d" soc.Soc_def.name w in
      Alcotest.(check int) (label ^ ": served from memory") 0
        warm.Engine.stats.Engine.eval_computed;
      let sched = warm.Engine.result.O.schedule in
      let spec =
        Engine.audit_spec engine
          ~prepared:(Engine.prepare engine ~wmax:64 soc)
          ~wmax:64 ~expect_tam_width:w constraints
      in
      let served = warm.Engine.verdict () in
      Alcotest.(check bool) (label ^ ": clean") true (Audit.ok served);
      Alcotest.(check bool) (label ^ ": equals a fresh Audit.run") true
        (served = Audit.run soc spec sched);
      Alcotest.(check bool) (label ^ ": equals the reference audit") true
        (served = Test_helpers.reference_audit soc spec sched))
    cases

(* The kept report belongs to the entry the winner came from: after a
   grid solve has kept its winner's report, a point solve at every grid
   point serves the report of its own schedule. *)
let test_verdict_kept_on_winning_entry () =
  let soc = Test_helpers.d695 () in
  let constraints = C.of_soc soc () in
  let engine = Engine.create () in
  let spec =
    Engine.audit_spec engine
      ~prepared:(Engine.prepare engine ~wmax:64 soc)
      ~wmax:64 ~expect_tam_width:16 constraints
  in
  ignore
    ((Engine.solve engine (grid_request soc ~tam_width:16 constraints))
       .Engine.verdict ());
  List.iter
    (fun params ->
      let o =
        Engine.solve engine
          (Engine.request soc ~tam_width:16 ~constraints
             ~grid:(Engine.point_grid ~params ()) ())
      in
      Alcotest.(check bool) "the point's own report" true
        (o.Engine.verdict ()
        = Audit.run soc spec o.Engine.result.O.schedule))
    (O.grid_points ~wmax:64 ())

(* One key, one audit: k warm solves of a key share the first verdict,
   and a solve alone audits nothing. A different W, power limit or
   preemption limit is another key with its own audit. *)
let test_verdict_audited_once_per_key () =
  let soc = Test_helpers.d695 () in
  let constraints ?power_limit ?(limit = 1) () =
    C.of_soc soc ?power_limit
      ~max_preemptions:(Flow.preemption_budget soc ~limit)
      ()
  in
  let engine = Engine.create () in
  let serve req =
    let o = Engine.solve engine req in
    o.Engine.verdict ()
  in
  let req = grid_request soc ~tam_width:16 (constraints ()) in
  let first, audits = counting_audits (fun () -> serve req) in
  Alcotest.(check int) "the first answer audits" 1 audits;
  let again, audits =
    counting_audits (fun () -> List.init 5 (fun _ -> serve req))
  in
  Alcotest.(check int) "five more answers audit nothing" 0 audits;
  List.iter
    (fun r -> Alcotest.(check bool) "the kept report" true (r = first))
    again;
  let _, audits =
    counting_audits (fun () -> ignore (Engine.solve engine req))
  in
  Alcotest.(check int) "a solve alone audits nothing" 0 audits;
  List.iter
    (fun (label, req) ->
      let _, audits =
        counting_audits (fun () -> ignore (serve req); ignore (serve req))
      in
      Alcotest.(check int) (label ^ ": its own audit, once") 1 audits)
    [
      ("W", grid_request soc ~tam_width:24 (constraints ()));
      ( "power limit",
        grid_request soc ~tam_width:16
          (constraints ~power_limit:(2 * Soc_def.max_power soc) ()) );
      ("preemption limit", grid_request soc ~tam_width:16 (constraints ~limit:2 ()));
    ]

(* ---------------- the acceptance sweep ---------------- *)

let test_solve_many_sweep_cached_vs_uncached () =
  (* The ISSUE acceptance check: a p3-style width sweep over d695 through
     a shared engine, re-solved warm, is identical to the cold pass and
     provably does strictly less work — counted by the obs counters that
     only tick on real Pareto.compute / Optimizer.run executions. *)
  Obs.enable ();
  let soc = Test_helpers.d695 () in
  let constraints = un soc in
  let widths = [ 4; 8; 16; 24; 32 ] in
  let reqs () =
    List.map (fun w -> Engine.request soc ~tam_width:w ~constraints ()) widths
  in
  let engine = Engine.create () in
  let runs0 = Obs.counter_value runs_counter
  and pareto0 = Obs.counter_value pareto_counter in
  let cold = Engine.solve_many engine (reqs ()) in
  let runs_cold = Obs.counter_value runs_counter - runs0
  and pareto_cold = Obs.counter_value pareto_counter - pareto0 in
  let warm = Engine.solve_many engine (reqs ()) in
  let runs_warm = Obs.counter_value runs_counter - runs0 - runs_cold
  and pareto_warm = Obs.counter_value pareto_counter - pareto0 - pareto_cold in
  (* identical answers, bit for bit *)
  List.iter2
    (fun (c : Engine.outcome) (w : Engine.outcome) ->
      Alcotest.(check int) "same testing time" c.Engine.result.O.testing_time
        w.Engine.result.O.testing_time;
      Alcotest.(check string) "same schedule"
        (IO.to_string c.Engine.result.O.schedule)
        (IO.to_string w.Engine.result.O.schedule))
    cold warm;
  (* cold pass: one scheduler run per width, one staircase per core *)
  Alcotest.(check int) "cold: one Optimizer.run per width"
    (List.length widths) runs_cold;
  Alcotest.(check int) "cold: one Pareto.compute per core"
    (Soc_def.core_count soc) pareto_cold;
  (* warm pass: strictly fewer of both — in fact none at all *)
  Alcotest.(check bool) "warm: strictly fewer scheduler runs" true
    (runs_warm < runs_cold);
  Alcotest.(check bool) "warm: strictly fewer Pareto computes" true
    (pareto_warm < pareto_cold);
  Alcotest.(check int) "warm: zero scheduler runs" 0 runs_warm;
  Alcotest.(check int) "warm: zero Pareto computes" 0 pareto_warm;
  (* and the sweep agrees with the uncached direct path *)
  let prep = O.prepare soc in
  List.iter2
    (fun w (c : Engine.outcome) ->
      let direct = O.run_request prep (O.request ~tam_width:w ~constraints ()) in
      Alcotest.(check int)
        (Printf.sprintf "W=%d matches uncached optimizer" w)
        direct.O.testing_time c.Engine.result.O.testing_time)
    widths cold

(* ---------------- flow over a shared engine ---------------- *)

let test_flow_shares_engine () =
  let soc = Test_helpers.mini4 () in
  let engine = Engine.create () in
  let r1 = Flow.solve ~engine (Flow.spec soc ~tam_width:8) in
  let r2 = Flow.solve ~engine (Flow.spec soc ~tam_width:8) in
  Alcotest.(check int) "same answer" r1.O.testing_time r2.O.testing_time;
  let hits, _ = Engine.eval_cache_stats engine in
  Alcotest.(check bool) "second flow call hit the cache" true (hits >= 1)

let () =
  Alcotest.run "engine"
    [
      ( "digests",
        [
          Alcotest.test_case "soc digest round-trip" `Quick
            test_soc_digest_roundtrip_stable;
          Alcotest.test_case "constraints digest" `Quick
            test_constraints_digest_structural;
        ] );
      ( "cache",
        [
          Alcotest.test_case "solve twice" `Quick test_solve_twice_hits_cache;
          Alcotest.test_case "cached = uncached" `Quick
            test_cached_equals_uncached;
          Alcotest.test_case "prepare shares pareto" `Quick
            test_prepare_shares_pareto;
          Alcotest.test_case "evaluator dedups" `Quick test_evaluator_dedups;
          Alcotest.test_case "dedup under 4 domains" `Quick
            test_dedup_under_domains;
        ] );
      ( "budget",
        [
          Alcotest.test_case "remaining_ms is monotonic" `Quick
            test_budget_remaining_monotonic;
          Alcotest.test_case "expired budget -> incumbent" `Quick
            test_expired_budget_returns_incumbent;
          Alcotest.test_case "max_evals stops early" `Quick
            test_max_evals_budget_stops_early;
          Alcotest.test_case "ticks per request" `Quick
            test_budget_ticks_per_request_not_per_compute;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "equals a fresh audit" `Quick
            test_verdict_matches_fresh_audit;
          Alcotest.test_case "audited once per key" `Quick
            test_verdict_audited_once_per_key;
          Alcotest.test_case "kept on the winning entry" `Quick
            test_verdict_kept_on_winning_entry;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "solve_many cached vs uncached" `Quick
            test_solve_many_sweep_cached_vs_uncached;
          Alcotest.test_case "flow shares engine" `Quick
            test_flow_shares_engine;
        ] );
    ]
