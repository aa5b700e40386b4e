(* Bechamel micro-benchmarks.

   One benchmark per paper artefact (Table 1 cells, Table 2 sweep, Figs.
   1/2/9) plus the baselines and key substrates, so the Sec. 6 CPU-time
   claim ("< 5 s per SOC on a 333 MHz Ultra 10, orders of magnitude below
   the enumerative method") can be re-verified on today's hardware.
   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit

module Soc_def = Soctest_soc.Soc_def
module Benchmarks = Soctest_soc.Benchmarks
module Constraint_def = Soctest_constraints.Constraint_def
module O = Soctest_core.Optimizer
module Engine = Soctest_engine.Engine
module Flow = Soctest_engine.Flow

let unconstrained soc =
  Constraint_def.unconstrained ~core_count:(Soc_def.core_count soc)

(* Pre-build inputs once; the benchmarks measure the algorithms, not the
   benchmark-SOC construction. *)
let d695 = Benchmarks.d695 ()
let p22810 = Benchmarks.p22810 ()
let p34392 = Benchmarks.p34392 ()
let p93791 = Benchmarks.p93791 ()
let prep_d695 = O.prepare d695
let prep_p22810 = O.prepare p22810
let prep_p34392 = O.prepare p34392
let prep_p93791 = O.prepare p93791

let run_once prepared soc tam_width =
  Staged.stage (fun () ->
      ignore
        (O.run prepared ~tam_width ~constraints:(unconstrained soc)
           ~params:O.default_params))

let table1_benches =
  [
    Test.make ~name:"table1/optimizer_d695_w32" (run_once prep_d695 d695 32);
    Test.make ~name:"table1/optimizer_p22810_w32"
      (run_once prep_p22810 p22810 32);
    Test.make ~name:"table1/optimizer_p34392_w32"
      (run_once prep_p34392 p34392 32);
    Test.make ~name:"table1/optimizer_p93791_w32"
      (run_once prep_p93791 p93791 32);
    Test.make ~name:"table1/param_grid_cell_d695_w32"
      (Staged.stage (fun () ->
           ignore
             (O.best_over_params prep_d695 ~tam_width:32
                ~constraints:(unconstrained d695) ())));
    Test.make ~name:"table1/power_preemptive_p22810_w32"
      (Staged.stage
         (let constraints =
            Constraint_def.make
              ~core_count:(Soc_def.core_count p22810)
              ~power_limit:(Flow.default_power_limit p22810)
              ~max_preemptions:(Flow.preemption_budget p22810 ~limit:2)
              ()
          in
          fun () ->
            ignore
              (O.run prep_p22810 ~tam_width:32 ~constraints
                 ~params:O.default_params)));
  ]

let table2_benches =
  [
    Test.make ~name:"table2/volume_sweep_d695_w1-32"
      (Staged.stage (fun () ->
           ignore
             (Soctest_core.Volume.sweep prep_d695
                ~widths:(List.init 32 (fun k -> k + 1))
                ~constraints:(unconstrained d695)
                ())));
    Test.make ~name:"table2/cost_evaluation"
      (Staged.stage
         (let points =
            Soctest_core.Volume.sweep prep_d695
              ~widths:(List.init 32 (fun k -> k + 1))
              ~constraints:(unconstrained d695)
              ()
          in
          fun () ->
            ignore
              (Soctest_core.Cost.evaluate_many
                 ~alphas:[ 0.1; 0.3; 0.5; 0.7; 0.9 ]
                 points)));
  ]

let figure_benches =
  [
    Test.make ~name:"fig1/pareto_staircase_core6_p93791"
      (Staged.stage (fun () ->
           ignore
             (Soctest_wrapper.Pareto.compute (Soc_def.core p93791 6)
                ~wmax:64)));
    Test.make ~name:"fig2/schedule_and_gantt_d695_w16"
      (Staged.stage (fun () ->
           let r =
             O.run prep_d695 ~tam_width:16 ~constraints:(unconstrained d695)
               ~params:O.default_params
           in
           ignore (Soctest_tam.Gantt.render ~columns:72 r.O.schedule)));
    Test.make ~name:"fig9/sweep_with_cost_curves_p22810_w1-24"
      (Staged.stage (fun () ->
           let points =
             Soctest_core.Volume.sweep prep_p22810
               ~widths:(List.init 24 (fun k -> k + 1))
               ~constraints:(unconstrained p22810)
               ()
           in
           ignore (Soctest_core.Cost.curve ~alpha:0.5 points)));
  ]

let baseline_benches =
  [
    Test.make ~name:"baseline/serial_d695_w32"
      (Staged.stage (fun () ->
           ignore (Soctest_baselines.Serial.testing_time prep_d695 ~tam_width:32)));
    Test.make ~name:"baseline/shelf_ffdh_d695_w32"
      (Staged.stage (fun () ->
           ignore
             (Soctest_baselines.Shelf.testing_time prep_d695 ~tam_width:32
                ~discipline:Soctest_baselines.Shelf.Ffdh ())));
    Test.make ~name:"baseline/fixed_width_3bus_d695_w32"
      (Staged.stage (fun () ->
           ignore
             (Soctest_baselines.Fixed_width.design_with_buses prep_d695
                ~tam_width:32 ~buses:3)));
  ]

let substrate_benches =
  [
    Test.make ~name:"substrate/wrapper_design_s38417_w32"
      (Staged.stage (fun () ->
           ignore
             (Soctest_wrapper.Wrapper_design.design (Soc_def.core d695 10)
                ~width:32)));
    Test.make ~name:"substrate/prepare_pareto_p93791"
      (Staged.stage (fun () -> ignore (O.prepare p93791)));
    Test.make ~name:"substrate/lower_bound_p93791_w64"
      (Staged.stage (fun () ->
           ignore (Soctest_core.Lower_bound.compute prep_p93791 ~tam_width:64)));
    Test.make ~name:"substrate/parser_roundtrip_p93791"
      (Staged.stage
         (let text = Soctest_soc.Soc_writer.to_string p93791 in
          fun () -> ignore (Soctest_soc.Soc_parser.parse_string text)));
    Test.make ~name:"substrate/schedule_validate_p93791_w64"
      (Staged.stage
         (let r =
            O.run prep_p93791 ~tam_width:64
              ~constraints:(unconstrained p93791)
              ~params:O.default_params
          in
          let constraints = unconstrained p93791 in
          fun () ->
            ignore
              (Soctest_constraints.Conflict.validate p93791 constraints
                 r.O.schedule)));
  ]

let ablation_benches =
  [
    Test.make ~name:"ablation/no_widen_d695_w32"
      (Staged.stage (fun () ->
           ignore
             (O.run prep_d695 ~tam_width:32 ~constraints:(unconstrained d695)
                ~params:{ O.default_params with O.widen = false })));
    Test.make ~name:"ablation/wide_percent_d695_w32"
      (Staged.stage (fun () ->
           ignore
             (O.run prep_d695 ~tam_width:32 ~constraints:(unconstrained d695)
                ~params:{ O.default_params with O.percent = 40 })));
  ]

let extension_benches =
  [
    (* the paper's "[12] is intractable" comparison: exact B&B on a
       5-core prefix vs the heuristic's microseconds above *)
    Test.make ~name:"extension/exact_bnb_d695_5cores_w16"
      (Staged.stage
         (let sub = Soctest_experiments.Exact_gap.prefix d695 5 in
          let prep = O.prepare sub in
          let constraints = unconstrained sub in
          fun () ->
            ignore
              (Soctest_pack.Bnb.solve ~node_limit:2_000_000 prep
                 ~tam_width:16 ~constraints)));
    Test.make ~name:"extension/polish_d695_w48"
      (Staged.stage (fun () ->
           let seed =
             O.run prep_d695 ~tam_width:48 ~constraints:(unconstrained d695)
               ~params:O.default_params
           in
           ignore
             (Soctest_core.Improve.polish prep_d695 ~tam_width:48
                ~constraints:(unconstrained d695) seed)));
    Test.make ~name:"extension/golomb_compress_d695"
      (Staged.stage (fun () ->
           ignore (Soctest_tester.Tester_image.compress_soc d695)));
    Test.make ~name:"extension/test_program_d695_w16"
      (Staged.stage
         (let r =
            O.run prep_d695 ~tam_width:16 ~constraints:(unconstrained d695)
              ~params:O.default_params
          in
          fun () ->
            ignore (Soctest_tester.Test_program.build prep_d695 r.O.schedule)));
    Test.make ~name:"extension/verilog_netlist_d695"
      (Staged.stage
         (let r =
            O.run prep_d695 ~tam_width:32 ~constraints:(unconstrained d695)
              ~params:O.default_params
          in
          fun () ->
            ignore
              (Soctest_hardware.Verilog.soc_testbench prep_d695
                 ~widths:r.O.widths)));
  ]

let portfolio_benches =
  (* portfolio-vs-sequential: the same strategy set raced on 1 worker
     domain (sequential) vs several, plus the plain best_over_params cell
     it must never lose to.  Strategy lists are built once; their thunks
     are pure, so re-running them per measurement is sound. *)
  let module Strategy = Soctest_portfolio.Strategy in
  let module Portfolio = Soctest_portfolio.Portfolio in
  let strats prep soc =
    Strategy.default prep ~tam_width:32 ~constraints:(unconstrained soc)
  in
  let strats_d695 = strats prep_d695 d695 in
  let strats_p93791 = strats prep_p93791 p93791 in
  let race name strategies jobs =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Portfolio.run ~jobs strategies)))
  in
  [
    Test.make ~name:"portfolio/sequential_grid_d695_w32"
      (Staged.stage (fun () ->
           ignore
             (O.best_over_params prep_d695 ~tam_width:32
                ~constraints:(unconstrained d695) ())));
    race "portfolio/race_jobs1_d695_w32" strats_d695 1;
    race "portfolio/race_jobs2_d695_w32" strats_d695 2;
    race "portfolio/race_jobs4_d695_w32" strats_d695 4;
    Test.make ~name:"portfolio/sequential_grid_p93791_w32"
      (Staged.stage (fun () ->
           ignore
             (O.best_over_params prep_p93791 ~tam_width:32
                ~constraints:(unconstrained p93791) ())));
    race "portfolio/race_jobs1_p93791_w32" strats_p93791 1;
    race "portfolio/race_jobs4_p93791_w32" strats_p93791 4;
  ]

let engine_benches =
  (* the engine's reason to exist: re-solving a Table-2 style width sweep
     against a fresh cache (every Pareto analysis and grid cell computed)
     vs a pre-warmed one (everything answered from the cache) *)
  let constraints = unconstrained d695 in
  let reqs () =
    List.map
      (fun w -> Engine.request d695 ~tam_width:w ~constraints ())
      (List.init 16 (fun k -> k + 1))
  in
  let warm = Engine.create () in
  ignore (Engine.solve_many warm (reqs ()));
  (* the daemon's memory hit: a Table-1 grid solve answered from the
     cache, plus the audit verdict its cache entry keeps *)
  let grid_req () =
    Engine.request p93791 ~tam_width:32 ~constraints:(unconstrained p93791)
      ~grid:Engine.default_grid ()
  in
  ignore ((Engine.solve warm (grid_req ())).Engine.verdict ());
  [
    Test.make ~name:"engine/solve_many_cold_d695_w1-16"
      (Staged.stage (fun () ->
           ignore (Engine.solve_many (Engine.create ()) (reqs ()))));
    Test.make ~name:"engine/solve_many_warm_d695_w1-16"
      (Staged.stage (fun () -> ignore (Engine.solve_many warm (reqs ()))));
    Test.make ~name:"engine/warm_grid_hit_p93791_w32"
      (Staged.stage (fun () ->
           ignore ((Engine.solve warm (grid_req ())).Engine.verdict ())));
  ]

let check_benches =
  (* the audit kernel on the Table-1 grid winner (staircases looked up in
     the prepared SOC, as the engine's audits do), and a store hit's
     load path: a fresh engine over a store seeded with every grid point
     of a d695 W=32 solve reads each back, decodes it, audits each
     distinct schedule once and cross-checks every entry *)
  let module Audit = Soctest_check.Audit in
  let module Store = Soctest_store.Store in
  let winner =
    O.best_over_params prep_p93791 ~tam_width:32
      ~constraints:(unconstrained p93791) ()
  in
  let spec =
    Engine.audit_spec (Engine.create ()) ~prepared:prep_p93791 ~wmax:64
      ~expect_tam_width:32 (unconstrained p93791)
  in
  let path = Filename.temp_file "soctest-bench" ".store" in
  Sys.remove path;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let store = Store.open_ path in
  let grid_req =
    Engine.request d695 ~tam_width:32 ~constraints:(unconstrained d695)
      ~grid:Engine.default_grid ()
  in
  ignore (Engine.solve (Engine.create ~store ()) grid_req);
  [
    Test.make ~name:"check/audit_p93791_w32"
      (Staged.stage (fun () ->
           ignore (Audit.run p93791 spec winner.O.schedule)));
    Test.make ~name:"check/store_validate_d695_w32"
      (Staged.stage (fun () ->
           ignore (Engine.solve (Engine.create ~store ()) grid_req)));
  ]

let all_tests =
  table1_benches @ table2_benches @ figure_benches @ baseline_benches
  @ substrate_benches @ ablation_benches @ extension_benches
  @ portfolio_benches @ engine_benches @ check_benches

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"soctest" ~fmt:"%s %s" all_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

let () =
  Printf.printf
    "soctest benchmarks (one per table/figure + baselines/substrates)\n\
     %-55s %14s\n%s\n"
    "benchmark" "time/run" (String.make 71 '-');
  let results = benchmark () in
  let rows = ref [] in
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ e ] -> e
            | _ -> Float.nan
          in
          rows := (name, estimate) :: !rows)
        tbl)
    results;
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns >= 1e9 then Printf.sprintf "%8.3f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.1f ns" ns
      in
      Printf.printf "%-55s %14s\n" name pretty)
    (List.sort compare !rows);
  print_newline ();
  print_endline
    "Paper Sec. 6 claim: full co-optimization per SOC well under 5 s; the\n\
     optimizer rows above are single (percent, delta) runs, param_grid is\n\
     a full Table-1 cell.";
  exit 0
