module O = Soctest_core.Optimizer
module Schedule = Soctest_tam.Schedule
module Conflict = Soctest_constraints.Conflict
module Audit = Soctest_check.Audit

type solution = {
  schedule : Schedule.t;
  testing_time : int;
  widths : (int * int) list;
}

type outcome = { solution : solution; iterations : int }

type kind =
  | Grid
  | Anneal
  | Polish
  | Baseline
  | Rectpack
  | Rectpack_diag
  | Exact_bnb

let kind_name = function
  | Grid -> "grid"
  | Anneal -> "anneal"
  | Polish -> "polish"
  | Baseline -> "baseline"
  | Rectpack -> "rectpack"
  | Rectpack_diag -> "rectpack-diagonal"
  | Exact_bnb -> "exact-bnb"

let all_kinds =
  [ Grid; Anneal; Polish; Baseline; Rectpack; Rectpack_diag; Exact_bnb ]

let kind_of_string s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

type t = { name : string; kind : kind; run : unit -> outcome }

exception Rejected of string

let solution_of_result (r : O.result) =
  {
    schedule = r.O.schedule;
    testing_time = r.O.testing_time;
    widths = r.O.widths;
  }

let widths_of_schedule sched =
  List.filter_map
    (fun core ->
      Option.map (fun w -> (core, w)) (Schedule.width_of_core sched core))
    (Schedule.cores sched)

(* Baseline solvers schedule without looking at the constraint set;
   only constraint-clean schedules may enter the race. *)
let checked_solution prepared ~constraints sched =
  let soc = O.soc_of prepared in
  (match Conflict.validate soc constraints sched with
  | [] -> ()
  | violations ->
    raise
      (Rejected
         (Format.asprintf "%d constraint violation(s): %a"
            (List.length violations) Conflict.pp_violation
            (List.hd violations))));
  {
    schedule = sched;
    testing_time = Schedule.makespan sched;
    widths = widths_of_schedule sched;
  }

let grid ?percents ?deltas ?slacks ?widens
    ?(eval : O.evaluator = O.run_request) prepared ~tam_width ~constraints =
  let wmax = O.wmax_of prepared in
  List.map
    (fun (params : O.params) ->
      {
        name =
          Printf.sprintf "grid p=%d d=%d s=%d%s" params.O.percent
            params.O.delta params.O.insert_slack
            (if params.O.widen then "" else " nowiden");
        kind = Grid;
        run =
          (fun () ->
            let r =
              eval prepared (O.request ~params ~tam_width ~constraints ())
            in
            { solution = solution_of_result r; iterations = 1 });
      })
    (O.grid_points ~wmax ?percents ?deltas ?slacks ?widens ())

(* splitmix64-flavoured odd-constant mixing: distinct, reproducible
   seeds per restart index, never dependent on wall clock. *)
let restart_seed k =
  Int64.add 0x9E3779B97F4A7C15L
    (Int64.mul (Int64.of_int (k + 1)) 0xBF58476D1CE4E5B9L)

(* Every restart and the polish strategy start from the same greedy
   schedule; with a caching [eval] (the engine's) it is computed once
   per race instead of once per strategy. *)
let greedy_seed (eval : O.evaluator) prepared ~tam_width ~constraints =
  eval prepared (O.request ~params:O.default_params ~tam_width ~constraints ())

let anneal_restarts ?(restarts = 4) ?(iterations = 400) ?budget
    ?(eval : O.evaluator = O.run_request) prepared ~tam_width ~constraints =
  if restarts < 0 then invalid_arg "Strategy.anneal_restarts: restarts < 0";
  List.init restarts (fun k ->
      {
        name = Printf.sprintf "anneal r%d" (k + 1);
        kind = Anneal;
        run =
          (fun () ->
            let start = greedy_seed eval prepared ~tam_width ~constraints in
            let report =
              Soctest_core.Anneal.search ~seed:(restart_seed k) ~iterations
                ?budget ~eval prepared ~tam_width ~constraints start
            in
            {
              solution = solution_of_result report.Soctest_core.Anneal.result;
              iterations = report.Soctest_core.Anneal.iterations;
            });
      })

let polish ?max_rounds ?budget ?(eval : O.evaluator = O.run_request) prepared
    ~tam_width ~constraints =
  {
    name = "polish";
    kind = Polish;
    run =
      (fun () ->
        let start = greedy_seed eval prepared ~tam_width ~constraints in
        let report =
          Soctest_core.Improve.polish ?max_rounds ?budget ~eval prepared
            ~tam_width ~constraints start
        in
        {
          solution = solution_of_result report.Soctest_core.Improve.result;
          iterations = report.Soctest_core.Improve.evaluations;
        });
  }

let baselines ?(max_buses = 3) prepared ~tam_width ~constraints =
  let once name schedule_of =
    {
      name;
      kind = Baseline;
      run =
        (fun () ->
          {
            solution =
              checked_solution prepared ~constraints (schedule_of ());
            iterations = 1;
          });
    }
  in
  [
    once "serial" (fun () ->
        Soctest_baselines.Serial.schedule prepared ~tam_width);
    once "shelf-nfdh" (fun () ->
        Soctest_baselines.Shelf.schedule prepared ~tam_width
          ~discipline:Soctest_baselines.Shelf.Nfdh ());
    once "shelf-ffdh" (fun () ->
        Soctest_baselines.Shelf.schedule prepared ~tam_width
          ~discipline:Soctest_baselines.Shelf.Ffdh ());
    once
      (Printf.sprintf "fixed-width b<=%d" max_buses)
      (fun () ->
        (Soctest_baselines.Fixed_width.best_design prepared ~tam_width
           ~max_buses ())
          .Soctest_baselines.Fixed_width.schedule);
  ]

(* The rectangle-bin-packing family (arXiv 1008.4448 / 1008.4446):
   constraint-aware by construction, yet [checked_solution] re-validates
   like every non-optimizer producer — packers delay starts around
   constraints and must prove, not assume, that the delays sufficed. *)
let rectpack prepared ~tam_width ~constraints =
  List.map
    (fun (order, kind) ->
      {
        name = Soctest_pack.Rectpack.order_name order;
        kind;
        run =
          (fun () ->
            let o =
              Soctest_pack.Rectpack.schedule ~order prepared ~tam_width
                ~constraints
            in
            {
              solution =
                checked_solution prepared ~constraints
                  o.Soctest_pack.Rectpack.schedule;
              iterations = o.Soctest_pack.Rectpack.placements;
            });
      })
    [
      (Soctest_pack.Rectpack.Plain, Rectpack);
      (Soctest_pack.Rectpack.Diagonal, Rectpack_diag);
    ]

(* Constraint-aware B&B, gated to small SOCs: its admissibility pruning
   and seeded incumbent keep the tree tractable up to about 12 cores. *)
let exact_bnb ?(max_cores = 12) ?node_limit ?budget prepared ~tam_width
    ~constraints =
  let soc = O.soc_of prepared in
  if Soctest_soc.Soc_def.core_count soc > max_cores then []
  else
    [
      {
        name = "exact-bnb";
        kind = Exact_bnb;
        run =
          (fun () ->
            let o =
              Soctest_pack.Bnb.solve ?budget ?node_limit prepared ~tam_width
                ~constraints
            in
            {
              solution =
                checked_solution prepared ~constraints
                  o.Soctest_pack.Bnb.schedule;
              iterations = o.Soctest_pack.Bnb.nodes;
            });
      };
    ]

(* Debug-mode post-condition (see [Audit.enabled]): every schedule a
   strategy hands to the race is re-audited from first principles before
   it can become the incumbent. A violation surfaces as [Audit.Failed]
   with the strategy's name, which the portfolio reports as a failed
   strategy instead of crashing the domain. *)
let audited ?pareto prepared ~tam_width ~constraints (s : t) =
  if not (Audit.enabled ()) then s
  else
    let spec =
      Audit.spec ~wmax:(O.wmax_of prepared) ~expect_tam_width:tam_width
        ?pareto constraints
    in
    let soc = O.soc_of prepared in
    {
      s with
      run =
        (fun () ->
          let outcome = s.run () in
          Audit.enforce
            ~source:(Printf.sprintf "strategy %s" s.name)
            soc spec outcome.solution.schedule;
          outcome);
    }

let default ?(kinds = all_kinds) ?restarts ?anneal_iterations ?budget ?eval
    ?pareto prepared ~tam_width ~constraints =
  let has k = List.mem k kinds in
  List.concat
    [
      (if has Grid then grid ?eval prepared ~tam_width ~constraints else []);
      (if has Anneal then
         anneal_restarts ?restarts ?iterations:anneal_iterations ?budget
           ?eval prepared ~tam_width ~constraints
       else []);
      (if has Polish then
         [ polish ?budget ?eval prepared ~tam_width ~constraints ]
       else []);
      (if has Baseline then baselines prepared ~tam_width ~constraints
       else []);
      (if has Rectpack || has Rectpack_diag then
         List.filter
           (fun s -> has s.kind)
           (rectpack prepared ~tam_width ~constraints)
       else []);
      (if has Exact_bnb then
         exact_bnb ?budget prepared ~tam_width ~constraints
       else []);
    ]
  |> List.map (audited ?pareto prepared ~tam_width ~constraints)
