(* lib/pack unit and property tests: the rectangle model, the skyline
   (including the QCheck no-overlap property), both rectangle packers
   and the constraint-aware branch-and-bound. *)

module Benchmarks = Soctest_soc.Benchmarks
module Soc_def = Soctest_soc.Soc_def
module Constraint_def = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module Schedule = Soctest_tam.Schedule
module O = Soctest_core.Optimizer
module LB = Soctest_core.Lower_bound
module Budget = Soctest_core.Budget
module Audit = Soctest_check.Audit
module Model = Soctest_pack.Model
module Skyline = Soctest_pack.Skyline
module Rectpack = Soctest_pack.Rectpack
module Bnb = Soctest_pack.Bnb

let mini4 () =
  match Benchmarks.by_name "mini4" with
  | Some soc -> soc
  | None -> Alcotest.fail "mini4 benchmark missing"

(* ---------------- skyline ---------------- *)

let test_skyline_basics () =
  let sky = Skyline.create ~tam_width:8 in
  Alcotest.(check (list (triple int int int)))
    "fresh profile" [ (0, 8, 0) ] (Skyline.segments sky);
  Alcotest.(check (list (pair int int)))
    "one candidate initially"
    [ (0, 0) ]
    (Skyline.candidates sky ~width:3);
  Skyline.place sky ~wire:0 ~width:3 ~start:0 ~stop:100;
  Alcotest.(check (list (triple int int int)))
    "split profile"
    [ (0, 3, 100); (3, 8, 0) ]
    (Skyline.segments sky);
  (* width 6 only fits anchored at wire 0 (3..8 is too narrow) and must
     wait for the busy wires; width 5 fits fresh at wire 3 *)
  Alcotest.(check (list (pair int int)))
    "wide span waits"
    [ (0, 100) ]
    (Skyline.candidates sky ~width:6);
  Alcotest.(check (list (pair int int)))
    "narrow span has both anchors"
    [ (0, 100); (3, 0) ]
    (Skyline.candidates sky ~width:5);
  Skyline.place sky ~wire:3 ~width:5 ~start:0 ~stop:40;
  Alcotest.(check int) "makespan" 100 (Skyline.makespan sky);
  Alcotest.(check int) "no waste yet" 0 (Skyline.waste sky);
  (* a delayed start traps area: wires 3..8 free from 40, start at 60 *)
  Skyline.place sky ~wire:3 ~width:5 ~start:60 ~stop:70;
  Alcotest.(check int) "trapped area" (5 * 20) (Skyline.waste sky);
  (* merging: level the whole profile and the segments coalesce *)
  let sky2 = Skyline.create ~tam_width:4 in
  Skyline.place sky2 ~wire:0 ~width:2 ~start:0 ~stop:10;
  Skyline.place sky2 ~wire:2 ~width:2 ~start:0 ~stop:10;
  Alcotest.(check (list (triple int int int)))
    "levelled profile merges" [ (0, 4, 10) ] (Skyline.segments sky2)

let test_skyline_rejects () =
  let sky = Skyline.create ~tam_width:4 in
  Alcotest.check_raises "width beyond bin"
    (Invalid_argument "Skyline.candidates: width 5 outside [1, 4]")
    (fun () -> ignore (Skyline.candidates sky ~width:5));
  Skyline.place sky ~wire:0 ~width:4 ~start:0 ~stop:10;
  Alcotest.check_raises "start under the profile"
    (Invalid_argument
       "Skyline.place: start 5 precedes free_from 10 on wires [0, 4)")
    (fun () -> Skyline.place sky ~wire:0 ~width:4 ~start:5 ~stop:20)

(* The tentpole property: rectangles placed through candidates/place
   never overlap — in wires x time, checked pairwise from the raw
   placement log, not from the skyline's own bookkeeping. *)
let prop_skyline_no_overlap =
  let gen =
    QCheck.Gen.(
      let* w = int_range 1 16 in
      let* ops =
        list_size (int_range 1 30)
          (triple (int_range 0 1000) (int_range 1 50) (int_range 0 1000))
      in
      let* delays = list_size (return (List.length ops)) (int_range 0 5) in
      return (w, List.map2 (fun (a, b, c) d -> (a, b, c, d)) ops delays))
  in
  Test_helpers.qtest "skyline placements never overlap" ~count:300
    (QCheck.make gen) (fun (w, ops) ->
      let sky = Skyline.create ~tam_width:w in
      let placed =
        List.map
          (fun (wpick, time, cpick, delay) ->
            let width = 1 + (wpick mod w) in
            let cands = Skyline.candidates sky ~width in
            let wire, earliest =
              List.nth cands (cpick mod List.length cands)
            in
            let start = earliest + delay in
            let stop = start + time in
            Skyline.place sky ~wire ~width ~start ~stop;
            (wire, width, start, stop))
          ops
      in
      let a = Array.of_list placed in
      let disjoint (w1, ww1, s1, e1) (w2, ww2, s2, e2) =
        w1 + ww1 <= w2 || w2 + ww2 <= w1 || e1 <= s2 || e2 <= s1
      in
      let ok = ref true in
      Array.iteri
        (fun i r ->
          Array.iteri (fun j r' -> if i < j then ok := !ok && disjoint r r') a)
        a;
      let max_stop =
        Array.fold_left (fun m (_, _, _, e) -> max m e) 0 a
      in
      !ok && Skyline.makespan sky = max_stop)

(* ---------------- rectangle model ---------------- *)

let test_model () =
  let soc = mini4 () in
  let prepared = O.prepare ~wmax:16 soc in
  let m = Model.build prepared ~tam_width:8 in
  Alcotest.(check int) "one menu per core" (Soc_def.core_count soc)
    (Model.core_count m);
  for id = 1 to Model.core_count m do
    let menu = Model.menu m id in
    Alcotest.(check bool) "menu non-empty" true
      (Array.length menu.Model.rects > 0);
    Array.iter
      (fun (r : Model.rect) ->
        Alcotest.(check bool) "width within bin" true
          (r.Model.width >= 1 && r.Model.width <= 8))
      menu.Model.rects;
    (* widest first, strictly decreasing width along the menu *)
    for k = 1 to Array.length menu.Model.rects - 1 do
      Alcotest.(check bool) "widest first" true
        (menu.Model.rects.(k - 1).Model.width
        > menu.Model.rects.(k).Model.width)
    done;
    Alcotest.(check int) "area is preferred w*t"
      (menu.Model.preferred.Model.width * menu.Model.preferred.Model.time)
      menu.Model.area;
    Alcotest.(check bool) "diagonal normalized" true
      (menu.Model.diagonal > 0. && menu.Model.diagonal <= sqrt 2. +. 1e-9)
  done

(* ---------------- rectangle packers ---------------- *)

let rectpack_case ~order ~constraints soc ~tam_width ~wmax =
  let prepared = O.prepare ~wmax soc in
  let o = Rectpack.schedule ~order prepared ~tam_width ~constraints in
  Test_helpers.check_valid_schedule soc constraints o.Rectpack.schedule;
  Test_helpers.check_complete soc o.Rectpack.schedule;
  let spec = Audit.spec ~wmax ~expect_tam_width:tam_width constraints in
  let report = Audit.run soc spec o.Rectpack.schedule in
  if not (Audit.ok report) then
    Alcotest.failf "rectpack audit: %a" Audit.pp_report report;
  Alcotest.(check bool) "above lower bound" true
    (o.Rectpack.testing_time
    >= LB.compute_constrained prepared ~tam_width ~constraints);
  o

let test_rectpack_plain () =
  let soc = mini4 () in
  let constraints = Constraint_def.of_soc soc () in
  let o =
    rectpack_case ~order:Rectpack.Plain ~constraints soc ~tam_width:8
      ~wmax:16
  in
  (* deterministic: same inputs, same schedule *)
  let o2 =
    rectpack_case ~order:Rectpack.Plain ~constraints soc ~tam_width:8
      ~wmax:16
  in
  Alcotest.(check int) "deterministic" o.Rectpack.testing_time
    o2.Rectpack.testing_time

let test_rectpack_diagonal () =
  let soc = mini4 () in
  let constraints = Constraint_def.of_soc soc () in
  ignore
    (rectpack_case ~order:Rectpack.Diagonal ~constraints soc ~tam_width:8
       ~wmax:16)

let test_rectpack_precedence_and_power () =
  let soc = mini4 () in
  let constraints =
    Constraint_def.of_soc soc ~precedence:[ (1, 2) ]
      ~power_limit:(Soc_def.max_power soc)
      ()
  in
  let o =
    rectpack_case ~order:Rectpack.Plain ~constraints soc ~tam_width:8
      ~wmax:16
  in
  let sched = o.Rectpack.schedule in
  let finish1 = Option.get (Schedule.core_finish sched 1) in
  let start2 = Option.get (Schedule.core_start sched 2) in
  Alcotest.(check bool) "core 1 completes before core 2 starts" true
    (finish1 <= start2)

let test_rectpack_infeasible_power () =
  let soc = mini4 () in
  let prepared = O.prepare ~wmax:16 soc in
  let constraints = Constraint_def.of_soc soc ~power_limit:1 () in
  match
    Rectpack.schedule ~order:Rectpack.Plain prepared ~tam_width:8
      ~constraints
  with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception O.Infeasible _ -> ()

(* ---------------- branch and bound ---------------- *)

let test_bnb_optimal_mini4 () =
  let soc = mini4 () in
  let wmax = 16 and tam_width = 8 in
  let prepared = O.prepare ~wmax soc in
  (* NB: even the unconstrained set is not constraint-blind — mini4's
     cores 2 and 3 share BIST engine 1, and [Conflict.admissible]
     enforces BIST exclusion from the SOC itself. So the B&B optimum
     here (288) is legitimately above the constraint-blind optimum
     (270, [Test_helpers.reference_exact]), which overlaps the two BIST
     cores. *)
  let constraints = Constraint_def.unconstrained ~core_count:4 in
  let o = Bnb.solve prepared ~tam_width ~constraints in
  Alcotest.(check bool) "proved optimal" true o.Bnb.optimal;
  (* never lose to the heuristic *)
  let r = O.run prepared ~tam_width ~constraints ~params:O.default_params in
  Alcotest.(check bool) "<= heuristic" true
    (o.Bnb.testing_time <= r.O.testing_time);
  Alcotest.(check bool) ">= lower bound" true
    (o.Bnb.testing_time >= o.Bnb.lower_bound);
  let spec = Audit.spec ~wmax ~expect_tam_width:tam_width constraints in
  let report = Audit.run soc spec o.Bnb.schedule in
  if not (Audit.ok report) then
    Alcotest.failf "bnb audit: %a" Audit.pp_report report

(* On a BIST-free, hierarchy-free SOC the unconstrained B&B and the
   constraint-blind reference search the same space and must agree on
   the optimum. *)
let prop_bnb_matches_blind_exact =
  Test_helpers.qtest "matches blind exact" ~count:100
    (QCheck.make
       ~print:(fun (soc, w) -> Format.asprintf "%a@.W=%d" Soc_def.pp soc w)
       QCheck.Gen.(
         let* n = int_range 1 4 in
         let* cores =
           flatten_l (List.init n (fun k -> Test_helpers.gen_core (k + 1)))
         in
         let* w = int_range 2 16 in
         return (Soc_def.make ~name:"flat" ~cores (), w)))
    (fun (soc, tam_width) ->
      let prepared = O.prepare ~wmax:16 soc in
      let constraints = Test_helpers.unconstrained soc in
      let o = Bnb.solve prepared ~tam_width ~constraints in
      o.Bnb.optimal
      && o.Bnb.testing_time = Test_helpers.reference_exact prepared ~tam_width)

let test_bnb_constrained () =
  let soc = mini4 () in
  let wmax = 16 and tam_width = 8 in
  let prepared = O.prepare ~wmax soc in
  let constraints =
    Constraint_def.of_soc soc ~precedence:[ (1, 3) ]
      ~power_limit:(2 * Soc_def.max_power soc)
      ()
  in
  let o = Bnb.solve prepared ~tam_width ~constraints in
  Test_helpers.check_valid_schedule soc constraints o.Bnb.schedule;
  Test_helpers.check_complete soc o.Bnb.schedule;
  Alcotest.(check bool) "proved optimal" true o.Bnb.optimal;
  let r = O.run prepared ~tam_width ~constraints ~params:O.default_params in
  Alcotest.(check bool) "<= heuristic under constraints" true
    (o.Bnb.testing_time <= r.O.testing_time)

let test_bnb_budget_degrades () =
  let soc = mini4 () in
  let prepared = O.prepare ~wmax:16 soc in
  let constraints = Constraint_def.unconstrained ~core_count:4 in
  (* a 1-node limit can prove nothing; the seeded incumbent must come
     back as a valid, heuristic-quality schedule *)
  let o = Bnb.solve ~node_limit:1 prepared ~tam_width:8 ~constraints in
  Alcotest.(check bool) "not proved optimal" false o.Bnb.optimal;
  Alcotest.(check int) "nodes stop at the limit" 1 o.Bnb.nodes;
  Test_helpers.check_valid_schedule soc constraints o.Bnb.schedule;
  let r = O.run prepared ~tam_width:8 ~constraints ~params:O.default_params in
  Alcotest.(check int) "falls back to the heuristic" r.O.testing_time
    o.Bnb.testing_time;
  (* an exhausted cooperative budget degrades the same way *)
  let b = Budget.create () in
  Budget.cancel b;
  let nodes_counter = Soctest_obs.Obs.counter "pack.bnb_nodes" in
  Soctest_obs.Obs.enable ~events:false ();
  let o2 = Bnb.solve ~budget:b prepared ~tam_width:8 ~constraints in
  let counted = Soctest_obs.Obs.counter_value nodes_counter in
  Soctest_obs.Obs.disable ();
  Test_helpers.check_valid_schedule soc constraints o2.Bnb.schedule;
  Alcotest.(check bool) "cancelled: not proved optimal" false
    o2.Bnb.optimal;
  Alcotest.(check int) "cancelled: stops at the first node" 1 o2.Bnb.nodes;
  Alcotest.(check int) "pack.bnb_nodes sums to nodes" o2.Bnb.nodes counted

let () =
  Alcotest.run "pack"
    [
      ( "skyline",
        [
          Alcotest.test_case "basics" `Quick test_skyline_basics;
          Alcotest.test_case "rejects" `Quick test_skyline_rejects;
          prop_skyline_no_overlap;
        ] );
      ("model", [ Alcotest.test_case "menus" `Quick test_model ]);
      ( "rectpack",
        [
          Alcotest.test_case "plain" `Quick test_rectpack_plain;
          Alcotest.test_case "diagonal" `Quick test_rectpack_diagonal;
          Alcotest.test_case "precedence+power" `Quick
            test_rectpack_precedence_and_power;
          Alcotest.test_case "infeasible power" `Quick
            test_rectpack_infeasible_power;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "optimal on mini4" `Quick
            test_bnb_optimal_mini4;
          prop_bnb_matches_blind_exact;
          Alcotest.test_case "constrained" `Quick test_bnb_constrained;
          Alcotest.test_case "budget degrades" `Quick
            test_bnb_budget_degrades;
        ] );
    ]
