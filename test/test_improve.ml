(* Tests for width overrides and the local-search polish pass. *)

module O = Soctest_core.Optimizer
module I = Soctest_core.Improve
module LB = Soctest_core.Lower_bound
module C = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module S = Soctest_tam.Schedule

let d695 = lazy (Test_helpers.d695 ())
let prepared = lazy (O.prepare (Lazy.force d695))
let constraints = lazy (Test_helpers.unconstrained (Lazy.force d695))

let test_overrides_respected () =
  let prepared = Lazy.force prepared in
  (* force core 5 (s38584) to a narrow pareto width *)
  let r =
    O.run ~overrides:[ (5, 4) ] prepared ~tam_width:32
      ~constraints:(Lazy.force constraints) ~params:O.default_params
  in
  Alcotest.(check (option int)) "core 5 narrow" (Some 4)
    (S.width_of_core r.O.schedule 5)

let test_overrides_snap_to_pareto () =
  let prepared = Lazy.force prepared in
  (* width 31 is unlikely to be pareto for core 3 (s838, 1 chain) *)
  let r =
    O.run ~overrides:[ (3, 31) ] prepared ~tam_width:32
      ~constraints:(Lazy.force constraints) ~params:O.default_params
  in
  let w = Option.get (S.width_of_core r.O.schedule 3) in
  Alcotest.(check bool) "snapped down" true (w <= 31);
  Alcotest.(check bool) "is pareto" true
    (List.mem w
       (Soctest_wrapper.Pareto.pareto_widths (O.pareto_of prepared 3)))

let test_overrides_validation () =
  let prepared = Lazy.force prepared in
  let expect overrides =
    match
      O.run ~overrides prepared ~tam_width:16
        ~constraints:(Lazy.force constraints) ~params:O.default_params
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected override rejection"
  in
  expect [ (0, 4) ];
  expect [ (11, 4) ];
  expect [ (1, 0) ];
  expect [ (1, 17) ]

let test_polish_never_worse () =
  let prepared = Lazy.force prepared in
  let constraints = Lazy.force constraints in
  List.iter
    (fun w ->
      let seed =
        O.run prepared ~tam_width:w ~constraints ~params:O.default_params
      in
      let report = I.polish prepared ~tam_width:w ~constraints seed in
      Alcotest.(check bool) "not worse" true
        (report.I.result.O.testing_time <= seed.O.testing_time);
      Alcotest.(check int) "initial recorded" seed.O.testing_time
        report.I.initial_time;
      Alcotest.(check bool) "valid result" true
        (Conflict.validate (Lazy.force d695) constraints
           report.I.result.O.schedule
        = []))
    [ 16; 32; 48 ]

let test_polish_improves_somewhere () =
  (* regression guard: polish finds a strict improvement on d695 W=48 *)
  let prepared = Lazy.force prepared in
  let constraints = Lazy.force constraints in
  let report =
    I.best_with_polish prepared ~tam_width:48 ~constraints ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "improved: %d -> %d" report.I.initial_time
       report.I.result.O.testing_time)
    true
    (report.I.result.O.testing_time < report.I.initial_time)

(* [eval] reaches both halves: every grid point and every polish re-run
   goes through it, and routing them changes nothing. *)
let test_best_with_polish_eval () =
  let prepared = Lazy.force prepared in
  let constraints = Lazy.force constraints in
  let calls = ref 0 in
  let eval ?overrides prepared req =
    incr calls;
    O.run_request ?overrides prepared req
  in
  let report =
    I.best_with_polish ~eval prepared ~tam_width:32 ~constraints ()
  in
  let grid = List.length (O.grid_points ~wmax:(O.wmax_of prepared) ()) in
  Alcotest.(check int) "grid points + polish re-runs"
    (grid + report.I.evaluations) !calls;
  Alcotest.(check int) "same result as the direct evaluator"
    (I.best_with_polish prepared ~tam_width:32 ~constraints ())
      .I.result.O.testing_time
    report.I.result.O.testing_time

let test_polish_respects_constraints () =
  let soc = Test_helpers.mini4 () in
  let prepared = O.prepare soc in
  let constraints = C.of_soc soc ~precedence:[ (4, 1) ] () in
  let seed =
    O.run prepared ~tam_width:8 ~constraints ~params:O.default_params
  in
  let report = I.polish prepared ~tam_width:8 ~constraints seed in
  Test_helpers.check_valid_schedule soc constraints
    report.I.result.O.schedule

let test_polish_deterministic () =
  let prepared = Lazy.force prepared in
  let constraints = Lazy.force constraints in
  let run () =
    (I.best_with_polish prepared ~tam_width:32 ~constraints ())
      .I.result.O.testing_time
  in
  Alcotest.(check int) "deterministic" (run ()) (run ())

let test_polish_validation () =
  let prepared = Lazy.force prepared in
  let constraints = Lazy.force constraints in
  let seed =
    O.run prepared ~tam_width:16 ~constraints ~params:O.default_params
  in
  match I.polish ~max_rounds:(-1) prepared ~tam_width:16 ~constraints seed with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rounds rejection"

let test_polish_zero_rounds_is_identity () =
  let prepared = Lazy.force prepared in
  let constraints = Lazy.force constraints in
  let seed =
    O.run prepared ~tam_width:16 ~constraints ~params:O.default_params
  in
  let report = I.polish ~max_rounds:0 prepared ~tam_width:16 ~constraints seed in
  Alcotest.(check int) "unchanged" seed.O.testing_time
    report.I.result.O.testing_time;
  Alcotest.(check int) "no evaluations" 0 report.I.evaluations

let prop_polish_valid_on_random =
  Test_helpers.qtest "polish keeps schedules valid and never worse"
    ~count:30 Test_helpers.arb_soc_with_constraints
    (fun (soc, constraints, tam_width) ->
      let prepared = O.prepare soc in
      let seed =
        O.run prepared ~tam_width ~constraints ~params:O.default_params
      in
      let report =
        I.polish ~max_rounds:3 prepared ~tam_width ~constraints seed
      in
      report.I.result.O.testing_time <= seed.O.testing_time
      && Conflict.validate soc constraints report.I.result.O.schedule = [])

let () =
  Alcotest.run "improve"
    [
      ( "overrides",
        [
          Alcotest.test_case "respected" `Quick test_overrides_respected;
          Alcotest.test_case "snap to pareto" `Quick
            test_overrides_snap_to_pareto;
          Alcotest.test_case "validation" `Quick test_overrides_validation;
        ] );
      ( "polish",
        [
          Alcotest.test_case "never worse" `Quick test_polish_never_worse;
          Alcotest.test_case "improves somewhere" `Quick
            test_polish_improves_somewhere;
          Alcotest.test_case "eval reaches the grid" `Quick
            test_best_with_polish_eval;
          Alcotest.test_case "respects constraints" `Quick
            test_polish_respects_constraints;
          Alcotest.test_case "deterministic" `Quick
            test_polish_deterministic;
          Alcotest.test_case "validation" `Quick test_polish_validation;
          Alcotest.test_case "zero rounds" `Quick
            test_polish_zero_rounds_is_identity;
          prop_polish_valid_on_random;
        ] );
    ]
