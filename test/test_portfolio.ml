(* Tests for the parallel portfolio racer: determinism across worker
   counts, never-worse-than-sequential, failure isolation, and the
   deterministic tie-break. *)

module O = Soctest_core.Optimizer
module Schedule = Soctest_tam.Schedule
module Conflict = Soctest_constraints.Conflict
module Strategy = Soctest_portfolio.Strategy
module Portfolio = Soctest_portfolio.Portfolio
module Telemetry = Soctest_portfolio.Telemetry

let mini4 = lazy (Test_helpers.mini4 ())
let d695 = lazy (Test_helpers.d695 ())
let prep_mini4 = lazy (O.prepare (Lazy.force mini4))
let prep_d695 = lazy (O.prepare (Lazy.force d695))

let unconstrained soc = Test_helpers.unconstrained soc

let default_strategies prepared soc ~tam_width =
  Strategy.default prepared ~tam_width ~constraints:(unconstrained soc)

(* A hand-made strategy around a fixed schedule, for harness tests. *)
let fake_schedule time =
  Schedule.make ~tam_width:4
    ~slices:[ { Schedule.core = 1; width = 2; start = 0; stop = time } ]

let fake_strategy ?(kind = Strategy.Polish) name time =
  {
    Strategy.name;
    kind;
    run =
      (fun () ->
        let schedule = fake_schedule time in
        {
          Strategy.solution =
            {
              Strategy.schedule;
              testing_time = Schedule.makespan schedule;
              widths = [ (1, 2) ];
            };
          iterations = 1;
        });
  }

let failing_strategy name =
  {
    Strategy.name;
    kind = Strategy.Grid;
    run = (fun () -> failwith "deliberate");
  }

let test_deterministic_across_jobs () =
  let strategies =
    default_strategies (Lazy.force prep_mini4) (Lazy.force mini4)
      ~tam_width:24
  in
  let runs =
    List.map (fun jobs -> Portfolio.run ~jobs strategies) [ 1; 2; 8 ]
  in
  match runs with
  | first :: rest ->
    List.iter
      (fun (r : Portfolio.t) ->
        Alcotest.(check string)
          "winner name independent of jobs" first.Portfolio.winner_name
          r.Portfolio.winner_name;
        Alcotest.(check int)
          "winner index independent of jobs" first.Portfolio.winner_index
          r.Portfolio.winner_index;
        Alcotest.(check int)
          "makespan independent of jobs"
          first.Portfolio.winner.Strategy.testing_time
          r.Portfolio.winner.Strategy.testing_time;
        Alcotest.(check bool)
          "schedule structurally identical" true
          (first.Portfolio.winner.Strategy.schedule
          = r.Portfolio.winner.Strategy.schedule))
      rest
  | [] -> assert false

let test_never_worse_than_sequential () =
  List.iter
    (fun (prepared, soc, tam_width) ->
      let prepared = Lazy.force prepared and soc = Lazy.force soc in
      let constraints = unconstrained soc in
      let sequential =
        (O.best_over_params prepared ~tam_width ~constraints ())
          .O.testing_time
      in
      let r =
        Portfolio.run ~jobs:2
          (Strategy.default prepared ~tam_width ~constraints)
      in
      Alcotest.(check bool)
        (Printf.sprintf "portfolio <= best_over_params on %s"
           (Soctest_soc.Soc_def.core_count soc |> string_of_int))
        true
        (r.Portfolio.winner.Strategy.testing_time <= sequential);
      Test_helpers.check_valid_schedule soc constraints
        r.Portfolio.winner.Strategy.schedule;
      Test_helpers.check_complete soc r.Portfolio.winner.Strategy.schedule)
    [
      (prep_mini4, mini4, 16);
      (prep_mini4, mini4, 32);
      (prep_d695, d695, 24);
    ]

let test_failed_strategies_are_isolated () =
  let r =
    Portfolio.run ~jobs:2
      [
        failing_strategy "bad1"; fake_strategy "good" 100;
        failing_strategy "bad2";
      ]
  in
  Alcotest.(check string) "survivor wins" "good" r.Portfolio.winner_name;
  let statuses =
    List.map (fun (rep : Portfolio.report) -> rep.Portfolio.status) r.Portfolio.reports
  in
  (match statuses with
  | [ Portfolio.Failed m1; Portfolio.Done { testing_time = 100 };
      Portfolio.Failed m2 ] ->
    Alcotest.(check string) "failure message" "deliberate" m1;
    Alcotest.(check string) "failure message" "deliberate" m2
  | _ -> Alcotest.fail "unexpected statuses");
  Alcotest.check_raises "all failing -> No_solution"
    (Portfolio.No_solution
       "no strategy produced a schedule (2 failed, 0 skipped of 2)")
    (fun () ->
      ignore
        (Portfolio.run ~jobs:1 [ failing_strategy "a"; failing_strategy "b" ]))

let test_ties_break_by_registration_order () =
  let r =
    Portfolio.run ~jobs:8
      [
        fake_strategy "slowest" 300; fake_strategy "tie-first" 200;
        fake_strategy "tie-second" 200;
      ]
  in
  Alcotest.(check string) "earliest registered tie wins" "tie-first"
    r.Portfolio.winner_name;
  Alcotest.(check int) "winner index" 1 r.Portfolio.winner_index

let test_constraint_violating_baselines_rejected () =
  (* A tight power limit every multi-core overlap violates: baseline
     schedules must be rejected, and the winner must still be valid. *)
  let soc = Lazy.force mini4 in
  let prepared = Lazy.force prep_mini4 in
  let constraints =
    Soctest_constraints.Constraint_def.of_soc soc
      ~power_limit:(Soctest_engine.Flow.default_power_limit soc) ()
  in
  let r =
    Portfolio.run ~jobs:2
      (Strategy.default prepared ~tam_width:16 ~constraints)
  in
  Test_helpers.check_valid_schedule soc constraints
    r.Portfolio.winner.Strategy.schedule;
  let baseline_reports =
    List.filter
      (fun (rep : Portfolio.report) -> rep.Portfolio.kind = Strategy.Baseline)
      r.Portfolio.reports
  in
  Alcotest.(check bool) "baselines present" true (baseline_reports <> []);
  List.iter
    (fun (rep : Portfolio.report) ->
      match rep.Portfolio.status with
      | Portfolio.Done { testing_time } ->
        (* a baseline may only win the race with a valid schedule *)
        Alcotest.(check bool) "done baseline is feasible" true
          (testing_time >= r.Portfolio.winner.Strategy.testing_time)
      | Portfolio.Failed _ | Portfolio.Skipped -> ())
    baseline_reports

let test_zero_deadline_skips_everything () =
  Alcotest.check_raises "deadline 0 -> all skipped"
    (Portfolio.No_solution
       "no strategy produced a schedule (0 failed, 2 skipped of 2)")
    (fun () ->
      ignore
        (Portfolio.run ~jobs:1 ~deadline_ms:0.
           [ fake_strategy "a" 10; fake_strategy "b" 20 ]))

let test_exact_gating () =
  let big = Soctest_soc.Benchmarks.p22810 () in
  Alcotest.(check int) "exact-bnb gated out above 12 cores" 0
    (List.length
       (Strategy.exact_bnb (O.prepare big) ~tam_width:16
          ~constraints:(unconstrained big)));
  let mini_prep = Lazy.force prep_mini4 in
  let mini_constraints = unconstrained (Lazy.force mini4) in
  Alcotest.(check int) "exact-bnb allowed on 4 cores" 1
    (List.length
       (Strategy.exact_bnb mini_prep ~tam_width:16
          ~constraints:mini_constraints))

let test_telemetry_outputs () =
  let r =
    Portfolio.run ~jobs:2
      (default_strategies (Lazy.force prep_mini4) (Lazy.force mini4)
         ~tam_width:16)
  in
  let csv = Telemetry.csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv: one row per strategy + header"
    (List.length r.Portfolio.reports + 1)
    (List.length lines);
  Alcotest.(check bool) "csv header" true
    (Test_helpers.contains_substring (List.hd lines) "incumbent_after");
  let json = Telemetry.json r in
  Alcotest.(check bool) "json mentions winner" true
    (Test_helpers.contains_substring json
       (Printf.sprintf "\"winner\":\"%s\"" r.Portfolio.winner_name));
  let table = Telemetry.summary_table r in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "summary mentions %s" (Strategy.kind_name kind))
        true
        (Test_helpers.contains_substring table (Strategy.kind_name kind)))
    [ Strategy.Grid; Strategy.Anneal; Strategy.Polish; Strategy.Baseline ]

let test_validation () =
  Alcotest.check_raises "jobs < 1"
    (Invalid_argument "Portfolio.run: jobs < 1") (fun () ->
      ignore (Portfolio.run ~jobs:0 [ fake_strategy "a" 1 ]));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Portfolio.run: deadline_ms < 0") (fun () ->
      ignore (Portfolio.run ~jobs:1 ~deadline_ms:(-1.) [ fake_strategy "a" 1 ]));
  Alcotest.check_raises "empty portfolio"
    (Portfolio.No_solution
       "no strategy produced a schedule (0 failed, 0 skipped of 0)")
    (fun () -> ignore (Portfolio.run ~jobs:1 []))

let () =
  Alcotest.run "portfolio"
    [
      ( "portfolio",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_deterministic_across_jobs;
          Alcotest.test_case "never worse than sequential" `Quick
            test_never_worse_than_sequential;
          Alcotest.test_case "failures isolated" `Quick
            test_failed_strategies_are_isolated;
          Alcotest.test_case "ties by registration order" `Quick
            test_ties_break_by_registration_order;
          Alcotest.test_case "constraint-violating baselines rejected" `Quick
            test_constraint_violating_baselines_rejected;
          Alcotest.test_case "zero deadline skips all" `Quick
            test_zero_deadline_skips_everything;
          Alcotest.test_case "exact gating" `Quick test_exact_gating;
          Alcotest.test_case "telemetry outputs" `Quick test_telemetry_outputs;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
