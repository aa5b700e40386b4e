(* Tests for the exact branch-and-bound, Pack.Bnb. *)

module O = Soctest_core.Optimizer
module E = Soctest_pack.Bnb
module S = Soctest_tam.Schedule
module LB = Soctest_core.Lower_bound
module Soc_def = Soctest_soc.Soc_def
module Pareto = Soctest_wrapper.Pareto
module Constraint_def = Soctest_constraints.Constraint_def

let mk = Test_helpers.core

let soc_of cores = Soc_def.make ~name:"x" ~cores ()

let unconstrained = Test_helpers.unconstrained

let test_single_core_optimum () =
  let soc = soc_of [ mk 1 "a" ] in
  let prepared = O.prepare soc in
  let e = E.solve prepared ~tam_width:8 ~constraints:(unconstrained soc) in
  Alcotest.(check bool) "optimal" true e.E.optimal;
  Alcotest.(check int) "equals core time at width 8"
    (Pareto.time (O.pareto_of prepared 1) ~width:8)
    e.E.testing_time

let test_two_identical_cores_parallel () =
  (* two identical cores, TAM wide enough for both at full useful width:
     the optimum runs them in parallel, makespan = single-core time *)
  let c id = mk ~scan:[ 10; 10 ] ~inputs:4 ~outputs:4 ~patterns:10 id (Printf.sprintf "c%d" id) in
  let soc = soc_of [ c 1; c 2 ] in
  let prepared = O.prepare soc in
  let single = Pareto.min_time (O.pareto_of prepared 1) in
  let wide = 2 * Pareto.highest_pareto (O.pareto_of prepared 1) in
  let e = E.solve prepared ~tam_width:wide ~constraints:(unconstrained soc) in
  Alcotest.(check bool) "optimal" true e.E.optimal;
  Alcotest.(check int) "parallel optimum" single e.E.testing_time

let test_optimum_bounds () =
  (* mini4 under its own BIST and hierarchy exclusions *)
  let soc = Test_helpers.mini4 () in
  let prepared = O.prepare soc in
  let constraints = Constraint_def.of_soc soc () in
  List.iter
    (fun w ->
      let e = E.solve prepared ~tam_width:w ~constraints in
      Alcotest.(check bool) "optimal" true e.E.optimal;
      let lb = LB.compute_constrained prepared ~tam_width:w ~constraints in
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: LB %d <= exact %d" w lb e.E.testing_time)
        true
        (lb <= e.E.testing_time);
      let h =
        O.run prepared ~tam_width:w ~constraints ~params:O.default_params
      in
      Alcotest.(check bool) "exact <= constrained heuristic" true
        (e.E.testing_time <= h.O.testing_time);
      (* the exact schedule itself is capacity-clean, legal and complete *)
      Alcotest.(check int) "capacity clean" 0
        (List.length (S.check_capacity e.E.schedule));
      Test_helpers.check_valid_schedule soc constraints e.E.schedule;
      Test_helpers.check_complete soc e.E.schedule)
    [ 2; 4; 8; 16 ]

let test_exact_beats_or_ties_heuristic_unconstrained () =
  let cores =
    [
      mk ~scan:[ 30; 20 ] ~patterns:25 1 "a";
      mk ~scan:[ 15 ] ~patterns:40 2 "b";
      mk ~scan:[] ~inputs:30 ~outputs:20 ~patterns:18 3 "c";
      mk ~scan:[ 25; 25; 10 ] ~patterns:12 4 "d";
    ]
  in
  let soc = soc_of cores in
  let prepared = O.prepare soc in
  let constraints = unconstrained soc in
  List.iter
    (fun w ->
      let h =
        (O.best_over_params prepared ~tam_width:w ~constraints ())
          .O.testing_time
      in
      let e = E.solve prepared ~tam_width:w ~constraints in
      Alcotest.(check bool) "optimal" true e.E.optimal;
      Alcotest.(check bool)
        (Printf.sprintf "W=%d: exact %d <= heuristic %d" w e.E.testing_time h)
        true
        (e.E.testing_time <= h))
    [ 3; 6; 12; 24 ]

let test_node_budget () =
  let soc = Test_helpers.d695 () in
  let prepared = O.prepare soc in
  let e =
    E.solve ~node_limit:1000 prepared ~tam_width:16
      ~constraints:(unconstrained soc)
  in
  Alcotest.(check bool) "budget exhausted" false e.E.optimal;
  Alcotest.(check int) "nodes stop at the limit" 1000 e.E.nodes;
  Alcotest.(check bool) "still returns a valid schedule" true
    (S.check_capacity e.E.schedule = []);
  Test_helpers.check_complete soc e.E.schedule

let test_validation () =
  let soc = Test_helpers.mini4 () in
  let prepared = O.prepare soc in
  let constraints = unconstrained soc in
  (match E.solve prepared ~tam_width:0 ~constraints with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected width rejection");
  match E.solve ~node_limit:0 prepared ~tam_width:4 ~constraints with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected node-limit rejection"

let prop_exact_at_most_heuristic =
  Test_helpers.qtest "exact never exceeds the heuristic" ~count:25
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 4 in
         let* cores =
           flatten_l (List.init n (fun k -> Test_helpers.gen_core (k + 1)))
         in
         let* w = int_range 2 16 in
         return (Soc_def.make ~name:"g" ~cores (), w)))
    (fun (soc, tam_width) ->
      let prepared = O.prepare soc in
      let constraints = unconstrained soc in
      let h =
        (O.run prepared ~tam_width ~constraints ~params:O.default_params)
          .O.testing_time
      in
      let e = E.solve ~node_limit:400_000 prepared ~tam_width ~constraints in
      e.E.testing_time <= h
      && e.E.testing_time >= LB.compute prepared ~tam_width
      && S.check_capacity e.E.schedule = [])

let () =
  Alcotest.run "exact"
    [
      ( "optima",
        [
          Alcotest.test_case "single core" `Quick test_single_core_optimum;
          Alcotest.test_case "two identical in parallel" `Quick
            test_two_identical_cores_parallel;
          Alcotest.test_case "bounds on mini4" `Quick test_optimum_bounds;
          Alcotest.test_case "beats or ties heuristic" `Quick
            test_exact_beats_or_ties_heuristic_unconstrained;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "validation" `Quick test_validation;
          prop_exact_at_most_heuristic;
        ] );
    ]
