(* Differential fuzz harness: synthesize hundreds of SOCs, run every
   strategy family on each, audit every schedule from first principles
   (and again with the reference auditor, which must agree), and
   cross-check makespans between strategies and against the lower
   bound.

   Deterministic by construction: SOC parameters are drawn from the
   Synth splitmix64 stream seeded by the case index, so a failure
   reproduces exactly (the case seed is printed in the failure). No
   QCheck here — the >= 200-SOC coverage target is a guarantee, not an
   expectation over shrink luck. *)

module Audit = Soctest_check.Audit
module Synth = Soctest_soc.Synth
module Soc_def = Soctest_soc.Soc_def
module Constraint_def = Soctest_constraints.Constraint_def
module O = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Strategy = Soctest_portfolio.Strategy
module Schedule = Soctest_tam.Schedule
module Bnb = Soctest_pack.Bnb

let cases = 220

type drawn = {
  case : int;
  soc : Soc_def.t;
  tam_width : int;
  wmax : int;
  constraints : Constraint_def.t;
}

let draw case =
  let rng = Synth.rng_of_seed (Int64.of_int ((case * 2654435761) + 97)) in
  let core_count = 2 + Synth.next_int rng 5 in
  let hierarchy_pairs =
    if core_count >= 3 then Synth.next_int rng 2 else 0
  in
  let bist_engines = Synth.next_int rng 2 in
  let soc =
    Synth.generate
      {
        Synth.name = Printf.sprintf "fuzz%d" case;
        seed = Int64.of_int ((case * 48271) + 13);
        core_count;
        target_data_bits = 20_000 + Synth.next_int rng 120_000;
        big_core_fraction = float_of_int (Synth.next_int rng 3) /. 4.;
        combinational_fraction = float_of_int (Synth.next_int rng 3) /. 10.;
        hierarchy_pairs;
        bist_engines;
      }
  in
  let tam_width = 3 + Synth.next_int rng 10 in
  let wmax = [| 8; 12; 16 |].(Synth.next_int rng 3) in
  let variant = Synth.next_int rng 4 in
  let constraints =
    match variant with
    | 0 -> Constraint_def.of_soc soc ()
    | 1 ->
      Constraint_def.of_soc soc
        ~power_limit:(2 * Soc_def.max_power soc)
        ()
    | 2 -> Constraint_def.of_soc soc ~precedence:[ (1, 2) ] ()
    | _ ->
      Constraint_def.of_soc soc
        ~max_preemptions:
          (List.init (Soc_def.core_count soc) (fun k -> (k + 1, 2)))
        ()
  in
  { case; soc; tam_width; wmax; constraints }

(* The reduced strategy set: every family, sized for thousands of runs. *)
let strategies d prepared =
  List.concat
    [
      Strategy.grid ~percents:[ 1; 5; 25 ] ~deltas:[ 0; 2 ] ~slacks:[ 3 ]
        prepared ~tam_width:d.tam_width ~constraints:d.constraints;
      Strategy.anneal_restarts ~restarts:1 ~iterations:30 prepared
        ~tam_width:d.tam_width ~constraints:d.constraints;
      [
        Strategy.polish prepared ~tam_width:d.tam_width
          ~constraints:d.constraints;
      ];
      Strategy.baselines prepared ~tam_width:d.tam_width
        ~constraints:d.constraints;
      Strategy.exact_bnb ~max_cores:4 ~node_limit:20_000 prepared
        ~tam_width:d.tam_width ~constraints:d.constraints;
    ]

let test_fuzz () =
  let socs_audited = ref 0 in
  let schedules_audited = ref 0 in
  let rejected = ref 0 in
  let exact_checked = ref 0 in
  for case = 0 to cases - 1 do
    let d = draw case in
    let prepared = O.prepare ~wmax:d.wmax d.soc in
    let spec =
      Audit.spec ~wmax:d.wmax ~expect_tam_width:d.tam_width d.constraints
    in
    let lb =
      Lower_bound.compute_constrained prepared ~tam_width:d.tam_width
        ~constraints:d.constraints
    in
    let outcomes =
      List.filter_map
        (fun (s : Strategy.t) ->
          match s.Strategy.run () with
          | outcome -> Some (s, outcome)
          | exception Strategy.Rejected _ ->
            (* baselines schedule constraint-blind; a rejected schedule
               never reaches the race, so nothing to audit *)
            incr rejected;
            None
          | exception O.Infeasible _ ->
            (* a typed property of (SOC, W, constraints) — e.g. a
               preemption-budget deadlock — not a solver bug *)
            incr rejected;
            None)
        (strategies d prepared)
    in
    if outcomes = [] then
      Alcotest.failf "case %d (%s): every strategy failed" case
        d.soc.Soc_def.name;
    incr socs_audited;
    List.iter
      (fun ((s : Strategy.t), (o : Strategy.outcome)) ->
        let sched = o.Strategy.solution.Strategy.schedule in
        (* every schedule is also audited by the reference, and the
           two reports must agree *)
        let report =
          match Test_helpers.audit_vs_reference d.soc spec sched with
          | Ok report -> report
          | Error diff ->
            Alcotest.failf "case %d, strategy %s: %s" case s.Strategy.name
              diff
        in
        incr schedules_audited;
        if not (Audit.ok report) then
          Alcotest.failf "case %d (%s, W=%d, wmax=%d), strategy %s: %a"
            case d.soc.Soc_def.name d.tam_width d.wmax s.Strategy.name
            Audit.pp_report report;
        let span = o.Strategy.solution.Strategy.testing_time in
        Alcotest.(check bool)
          (Printf.sprintf "case %d %s: makespan %d >= LB %d" case
             s.Strategy.name span lb)
          true (span >= lb);
        Alcotest.(check int)
          (Printf.sprintf "case %d %s: reported time is the makespan" case
             s.Strategy.name)
          (Schedule.makespan sched) span)
      outcomes;
    (* cross-check strategies against each other: wherever the B&B
       proves its optimum under the case's own constraints, that optimum
       dominates every legal schedule *)
    (match
       Bnb.solve ~node_limit:20_000 prepared ~tam_width:d.tam_width
         ~constraints:d.constraints
     with
    | exact when exact.Bnb.optimal ->
      incr exact_checked;
      let opt = exact.Bnb.testing_time in
      List.iter
        (fun ((s : Strategy.t), (o : Strategy.outcome)) ->
          Alcotest.(check bool)
            (Printf.sprintf "case %d: exact %d <= %s %d" case opt
               s.Strategy.name o.Strategy.solution.Strategy.testing_time)
            true
            (opt <= o.Strategy.solution.Strategy.testing_time))
        outcomes
    | _ | (exception O.Infeasible _) -> ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "audited %d SOCs (>= 200)" !socs_audited)
    true
    (!socs_audited >= 200);
  Printf.printf
    "fuzz: %d SOCs, %d schedules audited clean, %d rejected/infeasible \
     runs skipped, %d exact-vs-heuristic cross-checks\n"
    !socs_audited !schedules_audited !rejected !exact_checked

let () =
  Alcotest.run "audit_fuzz"
    [ ("fuzz", [ Alcotest.test_case "all strategies, 220 SOCs" `Quick test_fuzz ]) ]
