(* Check smoke: audit real solver output on every benchmark SOC.

   Each scenario solves through the same entry points the examples and
   experiments use (Flow.solve over the Engine; Strategy for baselines
   and the exact solver) and then re-derives every schedule invariant
   with Audit.run. Exercised by `dune build @check-smoke` (pulled into
   @bench alongside @obs-smoke and @engine-smoke). *)

module Audit = Soctest_check.Audit
module Soc_def = Soctest_soc.Soc_def
module Benchmarks = Soctest_soc.Benchmarks
module C = Soctest_constraints.Constraint_def
module O = Soctest_core.Optimizer
module Flow = Soctest_engine.Flow
module Strategy = Soctest_portfolio.Strategy
module Schedule = Soctest_tam.Schedule

let failures = ref 0
let audited = ref 0

let audit ~label soc ~wmax ~tam_width ~constraints schedule =
  let spec = Audit.spec ~wmax ~expect_tam_width:tam_width constraints in
  let report = Audit.run soc spec schedule in
  incr audited;
  if Audit.ok report then
    Printf.printf "check smoke ok: %-28s makespan %6d, %2d checks, %3d slices\n"
      label report.Audit.makespan report.Audit.checks_run
      report.Audit.slices_audited
  else begin
    incr failures;
    Format.printf "check smoke FAILED: %s@.%a@." label Audit.pp_report report
  end

(* Flow.solve scenarios: the shapes examples/ and the experiment
   drivers use (wmax is Optimizer.default_params.wmax = 64). *)
let flow_scenarios () =
  let wmax = O.default_params.O.wmax in
  let engine = Soctest_engine.Engine.create () in
  let run ~label soc ~tam_width ~constraints =
    let r =
      Flow.solve ~engine (Flow.spec soc ~tam_width ~constraints)
    in
    audit ~label soc ~wmax ~tam_width ~constraints r.O.schedule
  in
  let bench name = Option.get (Benchmarks.by_name name) in
  List.iter
    (fun (name, tam_width) ->
      let soc = bench name in
      run
        ~label:(Printf.sprintf "%s W=%d" name tam_width)
        soc ~tam_width ~constraints:(C.of_soc soc ()))
    [
      ("mini4", 8);
      ("d695", 16);
      ("d695", 32);
      ("p22810", 16);
      ("p34392", 24);
      ("p93791", 32);
    ];
  (* the power-constrained and preemption-budget settings mirrored by
     examples/power_constrained.ml and examples/preemption_study.ml *)
  let d695 = bench "d695" in
  run ~label:"d695 W=16 power-limited" d695 ~tam_width:16
    ~constraints:
      (C.of_soc d695 ~power_limit:(Flow.default_power_limit d695) ());
  run ~label:"d695 W=24 preempt<=2" d695 ~tam_width:24
    ~constraints:
      (C.of_soc d695 ~max_preemptions:(Flow.preemption_budget d695 ~limit:2) ());
  (* a width sweep on mini4 with hierarchy + shared-BIST exclusions *)
  let mini4 = bench "mini4" in
  List.iter
    (fun w ->
      run
        ~label:(Printf.sprintf "mini4 sweep W=%d" w)
        mini4 ~tam_width:w ~constraints:(C.of_soc mini4 ()))
    [ 4; 6; 12 ]

(* Baselines and the exact branch-and-bound — once on mini4 under its
   own exclusions (constraint-blind baselines may be rejected: mini4's
   shared BIST engine excludes cores 2 and 3 regardless of the
   constraint set) and once on a BIST- and hierarchy-free synthesized
   SOC so every family produces a schedule that actually reaches the
   auditor. *)
let strategy_scenarios ~variant soc constraints =
  let wmax = 16 in
  let tam_width = 8 in
  let prepared = O.prepare ~wmax soc in
  let strategies =
    Strategy.baselines prepared ~tam_width ~constraints
    @ Strategy.exact_bnb ~max_cores:4 ~node_limit:100_000 prepared
        ~tam_width ~constraints
  in
  List.iter
    (fun (s : Strategy.t) ->
      match s.Strategy.run () with
      | outcome ->
        audit
          ~label:(Printf.sprintf "%s %s" variant s.Strategy.name)
          soc ~wmax ~tam_width ~constraints
          outcome.Strategy.solution.Strategy.schedule
      | exception Strategy.Rejected why ->
        (* a rejected run produces no schedule to audit *)
        Printf.printf "check smoke skip: %s %s (rejected: %s)\n" variant
          s.Strategy.name why)
    strategies

let () =
  let mini4 = Benchmarks.mini4 () in
  flow_scenarios ();
  strategy_scenarios ~variant:"mini4" mini4 (C.of_soc mini4 ());
  let free =
    Soctest_soc.Synth.generate
      {
        Soctest_soc.Synth.name = "smoke4";
        seed = 42L;
        core_count = 4;
        target_data_bits = 60_000;
        big_core_fraction = 0.25;
        combinational_fraction = 0.0;
        hierarchy_pairs = 0;
        bist_engines = 0;
      }
  in
  strategy_scenarios ~variant:"smoke4" free (C.of_soc free ());
  if !failures > 0 then begin
    Printf.eprintf "check smoke: %d of %d audits FAILED\n" !failures !audited;
    exit 1
  end;
  Printf.printf "check smoke: all %d audits clean\n" !audited
