(* Integration tests for the extension experiments (exact gap, tester
   memory, compression, multisite, hardware). *)

module EG = Soctest_experiments.Exact_gap
module TE = Soctest_experiments.Tester_exp
module HE = Soctest_experiments.Hardware_exp
module TI = Soctest_tester.Tester_image
module MS = Soctest_tester.Multisite

let contains = Test_helpers.contains_substring

let test_exact_gap () =
  let rows =
    EG.run ~core_counts:[ 2; 3 ] ~tam_width:8 ~node_limit:200_000 ()
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "exact <= heuristic" true
        (r.EG.exact <= r.EG.heuristic);
      Alcotest.(check bool) "gap non-negative" true (r.EG.gap_percent >= 0.);
      Alcotest.(check bool) "nodes counted" true (r.EG.nodes > 0))
    rows;
  Alcotest.(check bool) "renders" true
    (contains (EG.to_table ~soc_name:"d695" rows) "d695 prefixes")

(* Core counts past the SOC's own are skipped, not truncated into a
   prefix that disagrees with its constraint set. *)
let test_exact_gap_small_soc () =
  let rows =
    EG.run ~soc:(Test_helpers.mini4 ()) ~tam_width:8 ~node_limit:200_000 ()
  in
  Alcotest.(check (list int)) "rows for 2..4 cores" [ 2; 3; 4 ]
    (List.map (fun r -> r.EG.cores) rows);
  Alcotest.(check bool) "title names the SOC" true
    (contains (EG.to_table ~soc_name:"mini4" rows) "mini4 prefixes")

let test_exact_gap_node_growth () =
  let rows =
    EG.run ~core_counts:[ 2; 4 ] ~tam_width:8 ~node_limit:500_000 ()
  in
  let n2 = (List.hd rows).EG.nodes and n4 = (List.nth rows 1).EG.nodes in
  Alcotest.(check bool)
    (Printf.sprintf "node count grows (%d -> %d)" n2 n4)
    true (n4 > n2)

let test_memory_table () =
  let rows = TE.memory_table ~soc:(Test_helpers.mini4 ()) ~widths:[ 2; 8 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "identity" (r.TE.width * r.TE.time) r.TE.volume;
      Alcotest.(check bool) "useful <= volume" true (r.TE.useful <= r.TE.volume);
      Alcotest.(check bool) "utilization sane" true
        (r.TE.utilization > 0. && r.TE.utilization <= 1.))
    rows;
  (* narrow TAMs are better utilized *)
  let narrow = List.hd rows and wide = List.nth rows 1 in
  Alcotest.(check bool) "narrow utilization >= wide" true
    (narrow.TE.utilization >= wide.TE.utilization);
  Alcotest.(check bool) "renders" true
    (contains (TE.memory_to_table ~soc_name:"mini4" rows) "mini4")

let test_compression_experiment () =
  let reports =
    TE.compression_table ~soc:(Test_helpers.mini4 ())
      ~densities:[ 0.02; 0.2 ] ()
  in
  Alcotest.(check int) "two reports" 2 (List.length reports);
  let sparse = List.hd reports and dense = List.nth reports 1 in
  Alcotest.(check bool) "sparser compresses better" true
    (sparse.TI.ratio > dense.TI.ratio);
  Alcotest.(check bool) "renders" true
    (contains
       (TE.compression_to_table ~soc_name:"mini4" reports)
       "care density")

let test_multisite_experiment () =
  let points =
    TE.multisite_table ~soc:(Test_helpers.mini4 ())
      ~widths:[ 1; 2; 4; 8; 16 ] ~batch_size:5000 ()
  in
  Alcotest.(check int) "five points" 5 (List.length points);
  let best = MS.best points in
  Alcotest.(check bool) "best within sweep" true
    (List.exists (fun p -> p.MS.width = best.MS.width) points);
  Alcotest.(check bool) "renders" true
    (contains
       (TE.multisite_to_table ~soc_name:"mini4" ~batch_size:5000 points)
       "mini4")

let test_hardware_experiment () =
  let r = HE.run ~soc:(Test_helpers.mini4 ()) ~tam_width:8 () in
  Alcotest.(check int) "row per core" 4 (List.length r.HE.rows);
  let sum =
    List.fold_left
      (fun a row ->
        a + row.HE.overhead.Soctest_hardware.Overhead.gates)
      0 r.HE.rows
  in
  Alcotest.(check int) "total gates = sum of rows" sum
    r.HE.total.Soctest_hardware.Overhead.gates;
  Alcotest.(check bool) "netlist non-trivial" true (r.HE.verilog_lines > 50);
  Alcotest.(check bool) "renders" true (contains (HE.to_table r) "alpha")

let () =
  Alcotest.run "extras_exp"
    [
      ( "exact gap",
        [
          Alcotest.test_case "rows" `Quick test_exact_gap;
          Alcotest.test_case "node growth" `Quick test_exact_gap_node_growth;
          Alcotest.test_case "small SOC" `Quick test_exact_gap_small_soc;
        ] );
      ( "tester",
        [
          Alcotest.test_case "memory table" `Quick test_memory_table;
          Alcotest.test_case "compression" `Quick
            test_compression_experiment;
          Alcotest.test_case "multisite" `Quick test_multisite_experiment;
        ] );
      ( "hardware",
        [ Alcotest.test_case "overhead + netlist" `Quick test_hardware_experiment ] );
    ]
