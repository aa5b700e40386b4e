(* Search strategies shoot-out on one scheduling instance.

   The paper's method is a greedy scheduler inside a small parameter
   grid. This library layers deeper searches on top — hill-climbing
   polish, simulated annealing — and, for small instances, an exact
   branch-and-bound that certifies how far from optimal each lands.

   Run with: dune exec examples/search_strategies.exe *)

open Soctest

let () =
  let soc = Benchmarks.d695 () in
  let tam_width = 48 in
  let prepared = Optimizer.prepare soc in
  let constraints =
    Constraint_def.unconstrained ~core_count:(Soc_def.core_count soc)
  in
  let lb = Lower_bound.compute prepared ~tam_width in
  Printf.printf "d695 at W=%d, lower bound %d cycles\n\n" tam_width lb;

  let report label time =
    Printf.printf "  %-34s %6d cycles  (%.3fx LB)\n" label time
      (float_of_int time /. float_of_int lb)
  in

  (* 1. a single default-parameter run of the paper's greedy scheduler *)
  let single =
    Optimizer.run prepared ~tam_width ~constraints
      ~params:Optimizer.default_params
  in
  report "greedy (default parameters)" single.Optimizer.testing_time;

  (* 2. the paper's best-of over the (percent, delta, ...) grid *)
  let grid = Optimizer.best_over_params prepared ~tam_width ~constraints () in
  report "greedy + parameter grid (paper)" grid.Optimizer.testing_time;

  (* 3. hill-climbing on the per-core width vector *)
  let polish = Improve.polish prepared ~tam_width ~constraints grid in
  report
    (Printf.sprintf "+ polish (%d re-runs)" polish.Improve.evaluations)
    polish.Improve.result.Optimizer.testing_time;

  (* 4. simulated annealing from the same seed *)
  let sa = Anneal.search ~iterations:600 prepared ~tam_width ~constraints grid in
  report
    (Printf.sprintf "+ annealing (%d accepted moves)" sa.Anneal.accepted)
    sa.Anneal.result.Optimizer.testing_time;

  (* 5. on a 5-core sub-SOC, certify optimality with branch-and-bound *)
  let sub = Experiments.Exact_gap.prefix soc 5 in
  let sub_prepared = Optimizer.prepare sub in
  let sub_constraints = Constraint_def.unconstrained ~core_count:5 in
  let sub_grid =
    Optimizer.best_over_params sub_prepared ~tam_width:16
      ~constraints:sub_constraints ()
  in
  let exact =
    Bnb.solve ~node_limit:2_000_000 sub_prepared ~tam_width:16
      ~constraints:sub_constraints
  in
  Printf.printf
    "\n5-core sub-SOC at W=16: heuristic %d vs exact %d (%s, %d B&B nodes)\n"
    sub_grid.Optimizer.testing_time exact.Bnb.testing_time
    (if exact.Bnb.optimal then "proved optimal" else "budget hit")
    exact.Bnb.nodes;
  Printf.printf
    "\nTakeaway: the paper's greedy+grid lands within a few %% of optimal;\n\
     width-vector search (polish/annealing) closes part of the rest at\n\
     millisecond cost; exact search certifies but explodes beyond ~6 cores.\n"
