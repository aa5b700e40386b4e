(* Tests for tester memory accounting, SOC-level compression and the
   multisite model. *)

module S = Soctest_tam.Schedule
module TI = Soctest_tester.Tester_image
module MS = Soctest_tester.Multisite
module O = Soctest_core.Optimizer

let slice core width start stop = { S.core; width; start; stop }

let test_image_accounting () =
  let sched =
    S.make ~tam_width:4
      ~slices:[ slice 1 2 0 10; slice 2 2 0 6; slice 3 4 10 12 ]
  in
  let image = TI.of_schedule sched in
  Alcotest.(check int) "depth = makespan" 12 image.TI.depth;
  Alcotest.(check int) "volume = W*depth" 48 image.TI.volume;
  Alcotest.(check int) "useful = busy area" (20 + 12 + 8) image.TI.useful;
  Alcotest.(check int) "padding" 8 image.TI.padding;
  Alcotest.(check int) "per-wire sums to useful" image.TI.useful
    (Array.fold_left ( + ) 0 image.TI.per_wire_busy);
  Alcotest.(check (float 1e-9)) "utilization" (40. /. 48.)
    (TI.utilization image)

let test_image_matches_volume_model () =
  let soc = Test_helpers.d695 () in
  let prepared = O.prepare soc in
  let r =
    O.run prepared ~tam_width:24
      ~constraints:(Test_helpers.unconstrained soc)
      ~params:O.default_params
  in
  let image = TI.of_schedule r.O.schedule in
  Alcotest.(check int) "V = W * T (the paper's identity)"
    (Soctest_core.Volume.of_schedule r.O.schedule)
    image.TI.volume;
  Alcotest.(check int) "useful = schedule busy area"
    (S.total_busy_area r.O.schedule)
    image.TI.useful

let test_empty_image () =
  let image = TI.of_schedule (S.empty ~tam_width:3) in
  Alcotest.(check int) "volume" 0 image.TI.volume;
  Alcotest.(check (float 1e-9)) "utilization" 0. (TI.utilization image)

let test_compress_soc () =
  let report = TI.compress_soc ~care_density:0.05 (Test_helpers.mini4 ()) in
  Alcotest.(check int) "per-core entries" 4
    (List.length report.TI.per_core);
  Alcotest.(check bool) "compression wins on sparse data" true
    (report.TI.ratio > 1.5);
  Alcotest.(check bool) "sizes consistent" true
    (report.TI.compressed_bits < report.TI.raw_stimulus_bits);
  (* denser care bits compress worse *)
  let dense = TI.compress_soc ~care_density:0.3 (Test_helpers.mini4 ()) in
  Alcotest.(check bool) "density hurts ratio" true
    (dense.TI.ratio < report.TI.ratio)

let test_compress_deterministic () =
  let a = TI.compress_soc (Test_helpers.mini4 ())
  and b = TI.compress_soc (Test_helpers.mini4 ()) in
  Alcotest.(check int) "same compressed size" a.TI.compressed_bits
    b.TI.compressed_bits

(* ---------------- multisite ---------------- *)

let tester = { MS.channels = 64; memory_depth = 1000; reload_cycles = 500 }

let test_multisite_points () =
  let points =
    MS.evaluate tester ~batch_size:100
      [ (8, 900); (16, 500); (32, 260); (64, 130); (128, 70) ]
  in
  (* width 128 > channels is dropped *)
  Alcotest.(check int) "four points" 4 (List.length points);
  let p8 = List.find (fun p -> p.MS.width = 8) points in
  Alcotest.(check int) "sites at w=8" 8 p8.MS.sites;
  Alcotest.(check int) "no reloads under depth" 0 p8.MS.reloads;
  Alcotest.(check int) "batch = rounds * session" (13 * 900)
    p8.MS.batch_time

let test_multisite_reloads () =
  let points = MS.evaluate tester ~batch_size:64 [ (8, 2500) ] in
  let p = List.hd points in
  (* ceil(2500/1000) - 1 = 2 reloads *)
  Alcotest.(check int) "reloads" 2 p.MS.reloads;
  Alcotest.(check int) "session includes reload cost"
    (8 * (2500 + (2 * 500)))
    p.MS.batch_time

let test_multisite_best () =
  let points =
    MS.evaluate tester ~batch_size:1000
      [ (8, 900); (16, 500); (32, 260); (64, 130) ]
  in
  let best = MS.best points in
  List.iter
    (fun p ->
      Alcotest.(check bool) "best minimal" true
        (best.MS.batch_time <= p.MS.batch_time))
    points

let test_multisite_narrow_wins_large_batches () =
  (* with a huge batch, parallel sites dominate per-die speed *)
  let sweep = [ (1, 4000); (64, 130) ] in
  let big = MS.evaluate tester ~batch_size:100_000 sweep in
  Alcotest.(check int) "narrow wins" 1 (MS.best big).MS.width;
  (* with a single die, per-die speed is everything *)
  let single = MS.evaluate tester ~batch_size:1 sweep in
  Alcotest.(check int) "wide wins" 64 (MS.best single).MS.width

let test_multisite_validation () =
  (match MS.evaluate tester ~batch_size:0 [ (8, 100) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected batch rejection");
  (match MS.evaluate tester ~batch_size:5 [ (128, 100) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected empty-sweep rejection");
  match MS.best [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected empty rejection"

(* The auditor builds the image from the wire assignment it already
   holds; that must be the image [of_schedule] derives on its own. *)
let prop_of_allocations =
  Test_helpers.qtest "of_allocations (allocate s) = of_schedule s" ~count:60
    Test_helpers.arb_soc_with_constraints
    (fun (soc, constraints, tam_width) ->
      let r =
        O.run_request (O.prepare soc) (O.request ~tam_width ~constraints ())
      in
      let s = r.O.schedule in
      TI.of_allocations s (Soctest_tam.Wire_alloc.allocate s)
      = TI.of_schedule s)

let () =
  Alcotest.run "tester_image"
    [
      ( "memory image",
        [
          Alcotest.test_case "accounting" `Quick test_image_accounting;
          Alcotest.test_case "matches volume model" `Quick
            test_image_matches_volume_model;
          Alcotest.test_case "empty" `Quick test_empty_image;
          prop_of_allocations;
        ] );
      ( "compression",
        [
          Alcotest.test_case "soc report" `Quick test_compress_soc;
          Alcotest.test_case "deterministic" `Quick
            test_compress_deterministic;
        ] );
      ( "multisite",
        [
          Alcotest.test_case "points" `Quick test_multisite_points;
          Alcotest.test_case "reloads" `Quick test_multisite_reloads;
          Alcotest.test_case "best" `Quick test_multisite_best;
          Alcotest.test_case "batch-size regimes" `Quick
            test_multisite_narrow_wins_large_batches;
          Alcotest.test_case "validation" `Quick test_multisite_validation;
        ] );
    ]
