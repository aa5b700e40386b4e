(* The wire-exact schedule auditor: a clean bill of health for real
   solver output, and a named check catching every deliberate
   corruption. *)

module Audit = Soctest_check.Audit
module S = Soctest_tam.Schedule
module Soc_def = Soctest_soc.Soc_def
module Constraint_def = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module O = Soctest_core.Optimizer
module Pareto = Soctest_wrapper.Pareto

let slice core width start stop = { S.core; width; start; stop }

let mini4 = Test_helpers.mini4 ()

let mini4_constraints = Constraint_def.of_soc mini4 ()

(* One real solver schedule to corrupt: mini4 at W=8, wmax 16. *)
let wmax = 16

let solved =
  O.run_request
    (O.prepare ~wmax mini4)
    (O.request ~tam_width:8 ~constraints:mini4_constraints ())

let base_spec = Audit.spec ~wmax mini4_constraints

(* every audit in this suite also runs the reference and must match it *)
let run soc spec sched =
  match Test_helpers.audit_vs_reference soc spec sched with
  | Ok report -> report
  | Error diff -> Alcotest.fail diff

let audit ?(spec = base_spec) ?(soc = mini4) sched = run soc spec sched

let caught check report =
  List.exists (fun (v : Audit.violation) -> v.Audit.check = check)
    report.Audit.violations

let assert_caught name check report =
  Alcotest.(check bool)
    (Printf.sprintf "%s caught by %s" name (Audit.check_name check))
    true (caught check report)

let rebuild ?(tam_width = 8) slices = S.make ~tam_width ~slices

let test_clean_solver_schedule () =
  let report = audit solved.O.schedule in
  if not (Audit.ok report) then
    Alcotest.failf "expected clean audit: %a" Audit.pp_report report;
  Alcotest.(check int) "all checks ran" 16 report.Audit.checks_run;
  Alcotest.(check int) "makespan re-derived" solved.O.testing_time
    report.Audit.makespan;
  Alcotest.(check int) "cores audited" 4 report.Audit.cores_audited

let corrupt f = rebuild (f solved.O.schedule.S.slices)

let test_overlap_caught () =
  (* duplicate one slice: its core runs twice at once *)
  let report = audit (corrupt (fun ss -> List.hd ss :: ss)) in
  assert_caught "duplicated slice" Audit.Overlap report

let test_width_change_caught () =
  (* split the first slice into back-to-back halves of different widths:
     no preemption, but the core no longer keeps one width *)
  let report =
    audit
      (corrupt (fun ss ->
           let s = List.hd ss in
           let mid = (s.S.start + s.S.stop) / 2 in
           { s with S.stop = mid }
           :: { s with S.start = mid; S.width = s.S.width + 1 }
           :: List.tl ss))
  in
  assert_caught "width change" Audit.Width_constant report

let test_capacity_caught () =
  (* widen every slice of core 3 beyond the free wires *)
  let report =
    audit
      (corrupt
         (List.map (fun (s : S.slice) ->
              if s.S.core = 3 then { s with S.width = s.S.width + 3 }
              else s)))
  in
  assert_caught "capacity overflow" Audit.Capacity report;
  assert_caught "capacity overflow" Audit.Wire_occupancy report

let test_time_accounting_caught () =
  (* stretch the last slice: busy time no longer matches the Pareto
     staircase at the core's width *)
  let last =
    List.fold_left
      (fun (a : S.slice) (b : S.slice) -> if b.S.stop > a.S.stop then b else a)
      (List.hd solved.O.schedule.S.slices)
      solved.O.schedule.S.slices
  in
  let report =
    audit
      (corrupt
         (List.map (fun (s : S.slice) ->
              if s = last then { s with S.stop = s.S.stop + 7 } else s)))
  in
  assert_caught "stretched slice" Audit.Time_accounting report

let test_unknown_core_caught () =
  let report = audit (corrupt (fun ss -> slice 99 1 0 5 :: ss)) in
  assert_caught "rogue core id" Audit.Unknown_core report

let test_completeness_caught () =
  let dropped =
    corrupt (List.filter (fun (s : S.slice) -> s.S.core <> 2))
  in
  assert_caught "missing core" Audit.Completeness (audit dropped);
  (* the same schedule passes a partial-schedule audit *)
  let partial_spec =
    Audit.spec ~wmax ~require_complete:false mini4_constraints
  in
  let report = audit ~spec:partial_spec dropped in
  if not (Audit.ok report) then
    Alcotest.failf "partial audit should pass: %a" Audit.pp_report report

let test_tam_width_caught () =
  let spec =
    Audit.spec ~wmax ~expect_tam_width:16 mini4_constraints
  in
  let report = audit ~spec solved.O.schedule in
  assert_caught "W mismatch" Audit.Tam_width report

(* A flat-staircase core accepts any width at the same time, so width 4
   is time-consistent but not Pareto-effective: 3 wires are wasted. *)
let test_pareto_width_caught () =
  let flat =
    Soc_def.make ~name:"flat"
      ~cores:
        [
          Soctest_soc.Core_def.make ~id:1 ~name:"c" ~inputs:1 ~outputs:1
            ~bidirs:0 ~scan_chains:[] ~patterns:5 ();
        ]
      ()
  in
  let t =
    Pareto.time (Pareto.compute (Soc_def.core flat 1) ~wmax:8) ~width:1
  in
  let constraints = Constraint_def.unconstrained ~core_count:1 in
  let spec = Audit.spec ~wmax:8 constraints in
  let report =
    run flat spec (rebuild ~tam_width:8 [ slice 1 4 0 t ])
  in
  assert_caught "ineffective width" Audit.Pareto_width report;
  Alcotest.(check bool) "time accounting unaffected" false
    (caught Audit.Time_accounting report)

(* Constraint corruption on a purpose-built two-core SOC where the slice
   arithmetic is easy to keep honest: two identical cores, width 2 each,
   T(2) known from the staircase. *)
let two_core_soc =
  Soc_def.make ~name:"duo"
    ~cores:
      [
        Test_helpers.core ~power:10 1 "a";
        Test_helpers.core ~power:10 2 "b";
      ]
    ()

let duo_time =
  Pareto.time (Pareto.compute (Soc_def.core two_core_soc 1) ~wmax:8) ~width:2

let duo_parallel =
  (* both cores at width 2, simultaneously, each exactly T(2) long *)
  rebuild ~tam_width:8
    [ slice 1 2 0 duo_time; slice 2 2 0 duo_time ]

let test_power_caught () =
  let constraints =
    Constraint_def.make ~core_count:2 ~power_limit:15 ()
  in
  let report =
    run two_core_soc (Audit.spec ~wmax:8 constraints) duo_parallel
  in
  assert_caught "power cap" Audit.Power report

let test_precedence_caught () =
  let constraints =
    Constraint_def.make ~core_count:2 ~precedence:[ (1, 2) ] ()
  in
  let report =
    run two_core_soc (Audit.spec ~wmax:8 constraints) duo_parallel
  in
  assert_caught "precedence" Audit.Precedence report

let test_concurrency_caught () =
  let constraints =
    Constraint_def.make ~core_count:2 ~concurrency:[ (1, 2) ] ()
  in
  let report =
    run two_core_soc (Audit.spec ~wmax:8 constraints) duo_parallel
  in
  assert_caught "concurrency exclusion" Audit.Concurrency report

let test_bist_caught () =
  let soc =
    Soc_def.make ~name:"bist2"
      ~cores:
        [ Test_helpers.core ~bist:1 1 "a"; Test_helpers.core ~bist:1 2 "b" ]
      ()
  in
  let t = Pareto.time (Pareto.compute (Soc_def.core soc 1) ~wmax:8) ~width:2 in
  let constraints = Constraint_def.unconstrained ~core_count:2 in
  let report =
    run soc
      (Audit.spec ~wmax:8 constraints)
      (rebuild ~tam_width:8 [ slice 1 2 0 t; slice 2 2 0 t ])
  in
  assert_caught "shared BIST engine" Audit.Bist report

let test_preemption_budget_caught () =
  (* split core 1 with a real gap: one preemption against a zero budget;
     the missing si+so charge also breaks time accounting *)
  let constraints = Constraint_def.unconstrained ~core_count:2 in
  let split =
    rebuild ~tam_width:8
      [
        slice 1 2 0 50;
        slice 1 2 60 (duo_time + 10);
        slice 2 2 0 duo_time;
      ]
  in
  let report = run two_core_soc (Audit.spec ~wmax:8 constraints) split in
  assert_caught "budget exceeded" Audit.Preemption_budget report;
  assert_caught "uncharged restart cost" Audit.Time_accounting report

let test_enforce_gate () =
  let was = Audit.enabled () in
  Fun.protect
    ~finally:(fun () -> Audit.set_enabled was)
    (fun () ->
      let corrupt = corrupt (fun ss -> List.hd ss :: ss) in
      Audit.set_enabled false;
      (* disabled: no-op even on a corrupt schedule *)
      Audit.enforce ~source:"test" mini4 base_spec corrupt;
      Audit.set_enabled true;
      Audit.enforce ~source:"test" mini4 base_spec solved.O.schedule;
      match Audit.enforce ~source:"test" mini4 base_spec corrupt with
      | () -> Alcotest.fail "expected Audit.Failed"
      | exception Audit.Failed ("test", report) ->
        Alcotest.(check bool) "report carries violations" false
          (Audit.ok report))

(* ---------------- differential properties ---------------- *)

(* Anything the auditor passes, the conflict validator must also pass:
   the audit is a strict superset of [Conflict.validate]. Random slice
   soups almost always violate something, so also check the converse
   implication that a Conflict violation never escapes the audit. *)
let gen_slice_soup =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* tam_width = int_range 2 10 in
    let* count = int_range 1 10 in
    let* raw =
      list_repeat count
        (let* core = int_range 1 n in
         let* width = int_range 1 tam_width in
         let* start = int_range 0 60 in
         let* len = int_range 1 40 in
         return (slice core width start (start + len)))
    in
    return (n, S.make ~tam_width ~slices:raw))

let prop_audit_superset_of_validate =
  Test_helpers.qtest "audit-clean implies Conflict-clean" ~count:300
    (QCheck.make gen_slice_soup ~print:(fun (n, s) ->
         Format.asprintf "n=%d@.%a" n S.pp s))
    (fun (n, sched) ->
      let soc =
        Soc_def.make ~name:"soup"
          ~cores:
            (List.init n (fun k ->
                 Test_helpers.core (k + 1) (Printf.sprintf "c%d" (k + 1))))
          ()
      in
      let constraints = Constraint_def.make ~core_count:n () in
      let report =
        run soc
          (Audit.spec ~wmax:8 ~require_complete:false constraints)
          sched
      in
      let conflict = Conflict.validate soc constraints sched in
      (* audit-clean => validate-clean (equivalently: no Conflict
         violation escapes the audit) *)
      (not (Audit.ok report)) || conflict = [])

let prop_solver_schedules_audit_clean =
  Test_helpers.qtest "optimizer schedules audit clean" ~count:40
    Test_helpers.arb_soc_with_constraints
    (fun (soc, constraints, tam_width) ->
      let prepared = O.prepare soc in
      let r =
        O.run_request prepared (O.request ~tam_width ~constraints ())
      in
      let spec =
        Audit.spec ~wmax:(O.wmax_of prepared) ~expect_tam_width:tam_width
          constraints
      in
      Audit.ok (run soc spec r.O.schedule))

(* ---------------- the reference oracle ---------------- *)

(* Real solver schedules to mutate: mini4 (a shared BIST engine and a
   hierarchy exclusion), d695, p22810 and a BIST-heavy synthetic SOC, at
   a few widths, half of them solved under a power cap with preemption
   allowed so the si+so restart path is exercised too. *)
let mutation_bases =
  let synth =
    Soctest_soc.Synth.generate
      {
        Soctest_soc.Synth.name = "bist8";
        seed = 2024L;
        core_count = 8;
        target_data_bits = 60_000;
        big_core_fraction = 0.25;
        combinational_fraction = 0.1;
        hierarchy_pairs = 2;
        bist_engines = 2;
      }
  in
  List.concat_map
    (fun soc ->
      let prepared = O.prepare ~wmax soc in
      let n = Soc_def.core_count soc in
      List.concat_map
        (fun tam_width ->
          List.filter_map
            (fun preemptive ->
              let constraints =
                if preemptive then
                  Constraint_def.of_soc soc
                    ~power_limit:(2 * Soc_def.max_power soc)
                    ~max_preemptions:(List.init n (fun k -> (k + 1, 2)))
                    ()
                else Constraint_def.of_soc soc ()
              in
              match
                O.run_request prepared (O.request ~tam_width ~constraints ())
              with
              | r -> Some (soc, r.O.schedule)
              | exception O.Infeasible _ -> None)
            [ false; true ])
        [ 5; 8; 13; 24 ])
    [ mini4; Test_helpers.d695 (); Soctest_soc.Benchmarks.p22810 (); synth ]
  |> Array.of_list

(* One mutation of a slice list, drawn from [rand]: a shifted, stretched
   or widened slice, a rogue core id, an overlapping duplicate, a slice
   split around an idle gap, or a core dropped. *)
let mutate_slices rand ~tam_width ~cores slices =
  let arr = Array.of_list slices in
  if arr = [||] then slices
  else
    let k = rand (Array.length arr) in
    let s = arr.(k) in
    let len = s.S.stop - s.S.start in
    let others = List.filteri (fun i _ -> i <> k) slices in
    match rand 7 with
    | 0 ->
      let start = max 0 (s.S.start + rand 41 - 20) in
      { s with S.start; stop = start + len } :: others
    | 1 ->
      { s with S.stop = max (s.S.start + 1) (s.S.stop + rand 41 - 20) }
      :: others
    | 2 -> { s with S.width = max 1 (s.S.width + rand 6 - 2) } :: others
    | 3 ->
      let start = rand (s.S.stop + 1) in
      slice (cores + 1 + rand 3) (1 + rand tam_width) start
        (start + 1 + rand 50)
      :: slices
    | 4 ->
      let shift = rand len in
      { s with S.start = s.S.start + shift; stop = s.S.stop + shift }
      :: slices
    | 5 when len >= 2 ->
      let mid = s.S.start + 1 + rand (len - 1) and gap = 1 + rand 30 in
      { s with S.stop = mid }
      :: { s with S.start = mid + gap; stop = s.S.stop + gap }
      :: others
    | 5 -> slices
    | _ -> List.filter (fun (x : S.slice) -> x.S.core <> s.S.core) slices

let prop_matches_reference =
  Test_helpers.qtest "mutated solver schedules: audit = reference" ~count:600
    QCheck.(
      quad (int_range 0 (Array.length mutation_bases - 1)) small_nat
        (int_range 0 4) (int_range 0 7))
    (fun (base, seed, rounds, spec_pick) ->
      let soc, sched = mutation_bases.(base) in
      let st = Random.State.make [| seed; base; rounds |] in
      let rand n = Random.State.int st n in
      let n = Soc_def.core_count soc in
      let slices = ref sched.S.slices in
      for _ = 1 to rounds do
        slices :=
          mutate_slices rand ~tam_width:sched.S.tam_width ~cores:n !slices
      done;
      (* a wrong W, a power cap, preemption limits, a precedence edge or
         a partial audit *)
      let tam_width =
        if spec_pick = 1 then max 1 (sched.S.tam_width + rand 7 - 3)
        else sched.S.tam_width
      in
      let constraints =
        match spec_pick with
        | 2 ->
          Constraint_def.of_soc soc
            ~power_limit:(max 1 (Soc_def.max_power soc * (1 + rand 3)))
            ()
        | 3 ->
          Constraint_def.of_soc soc
            ~max_preemptions:(List.init n (fun k -> (k + 1, rand 3)))
            ()
        | 4 -> Constraint_def.of_soc soc ~precedence:[ (1, n) ] ()
        | 5 -> Constraint_def.unconstrained ~core_count:n
        | _ -> Constraint_def.of_soc soc ()
      in
      let spec =
        Audit.spec ~wmax ~expect_tam_width:sched.S.tam_width
          ~require_complete:(spec_pick <> 6) constraints
      in
      match
        Test_helpers.audit_vs_reference soc spec
          (S.make ~tam_width ~slices:!slices)
      with
      | Ok _ -> true
      | Error diff -> QCheck.Test.fail_report diff)

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "solver schedule" `Quick
            test_clean_solver_schedule;
        ] );
      ( "corruptions",
        [
          Alcotest.test_case "overlap" `Quick test_overlap_caught;
          Alcotest.test_case "width change" `Quick test_width_change_caught;
          Alcotest.test_case "capacity" `Quick test_capacity_caught;
          Alcotest.test_case "time accounting" `Quick
            test_time_accounting_caught;
          Alcotest.test_case "unknown core" `Quick test_unknown_core_caught;
          Alcotest.test_case "completeness" `Quick test_completeness_caught;
          Alcotest.test_case "tam width" `Quick test_tam_width_caught;
          Alcotest.test_case "pareto width" `Quick test_pareto_width_caught;
          Alcotest.test_case "power" `Quick test_power_caught;
          Alcotest.test_case "precedence" `Quick test_precedence_caught;
          Alcotest.test_case "concurrency" `Quick test_concurrency_caught;
          Alcotest.test_case "bist" `Quick test_bist_caught;
          Alcotest.test_case "preemption budget" `Quick
            test_preemption_budget_caught;
          Alcotest.test_case "enforce gate" `Quick test_enforce_gate;
        ] );
      ( "differential",
        [
          prop_audit_superset_of_validate;
          prop_solver_schedules_audit_clean;
          prop_matches_reference;
        ] );
    ]
