module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module O = Soctest_core.Optimizer
module Bnb = Soctest_pack.Bnb
module Constraint_def = Soctest_constraints.Constraint_def

type row = {
  cores : int;
  tam_width : int;
  heuristic : int;
  exact : int;
  optimal : bool;
  nodes : int;
  gap_percent : float;
}

let prefix soc n =
  let cores =
    Array.to_list soc.Soc_def.cores
    |> List.filteri (fun k _ -> k < n)
    |> List.map (fun (c : Core_def.t) ->
           Core_def.make ~id:c.Core_def.id ~name:c.Core_def.name
             ~inputs:c.Core_def.inputs ~outputs:c.Core_def.outputs
             ~bidirs:c.Core_def.bidirs ~scan_chains:c.Core_def.scan_chains
             ~patterns:c.Core_def.patterns ())
  in
  Soc_def.make ~name:(Printf.sprintf "%s_%d" soc.Soc_def.name n) ~cores ()

let run ?soc ?(core_counts = [ 2; 3; 4; 5; 6 ]) ?(tam_width = 16)
    ?(node_limit = 3_000_000) () =
  let soc =
    match soc with Some s -> s | None -> Soctest_soc.Benchmarks.d695 ()
  in
  List.filter (fun n -> n <= Soc_def.core_count soc) core_counts
  |> List.map (fun n ->
         let prepared = O.prepare (prefix soc n) in
         let constraints = Constraint_def.unconstrained ~core_count:n in
         let heuristic =
           (O.best_over_params prepared ~tam_width ~constraints ())
             .O.testing_time
         in
         let e = Bnb.solve ~node_limit prepared ~tam_width ~constraints in
         let exact = min heuristic e.Bnb.testing_time in
         {
           cores = n;
           tam_width;
           heuristic;
           exact;
           optimal = e.Bnb.optimal;
           nodes = e.Bnb.nodes;
           gap_percent =
             100. *. float_of_int (heuristic - exact) /. float_of_int exact;
         })

let to_table ~soc_name rows =
  let open Soctest_report in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Heuristic vs exact branch-and-bound (%s prefixes): the exact \
            method's cost explodes, the heuristic's gap stays small"
           soc_name)
      ~columns:
        [
          ("cores", Table.Right);
          ("W", Table.Right);
          ("heuristic", Table.Right);
          ("exact", Table.Right);
          ("proved optimal", Table.Left);
          ("B&B nodes", Table.Right);
          ("gap", Table.Right);
        ]
      ()
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.cores;
          string_of_int r.tam_width;
          string_of_int r.heuristic;
          string_of_int r.exact;
          (if r.optimal then "yes" else "budget hit");
          string_of_int r.nodes;
          Printf.sprintf "%.1f%%" r.gap_percent;
        ])
    rows;
  Table.render table
