(* Unit and property tests for the Pareto staircase analysis. *)

module Pareto = Soctest_wrapper.Pareto
module W = Soctest_wrapper.Wrapper_design
module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def
module Synth = Soctest_soc.Synth

let mk = Test_helpers.core

let sample () = Pareto.compute (mk ~scan:[ 30; 20; 20; 10 ] ~inputs:12 ~outputs:9 ~patterns:25 1 "p") ~wmax:16

let test_envelope_monotone () =
  let p = sample () in
  let prev = ref max_int in
  for w = 1 to Pareto.wmax p do
    let t = Pareto.time p ~width:w in
    Alcotest.(check bool) (Printf.sprintf "T(%d) <= T(%d)" w (w - 1)) true
      (t <= !prev);
    prev := t
  done

let test_pareto_strictly_decreasing () =
  let p = sample () in
  let widths = Pareto.pareto_widths p in
  Alcotest.(check bool) "starts at 1" true (List.hd widths = 1);
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "widths ascend" true (a < b);
      Alcotest.(check bool) "times strictly drop" true
        (Pareto.time p ~width:b < Pareto.time p ~width:a);
      check rest
    | _ -> ()
  in
  check widths

let test_time_clamps_above_wmax () =
  let p = sample () in
  Alcotest.(check int) "clamped"
    (Pareto.time p ~width:(Pareto.wmax p))
    (Pareto.time p ~width:1000)

let test_time_invalid () =
  let p = sample () in
  Alcotest.check_raises "width 0" (Invalid_argument "Pareto: width must be >= 1")
    (fun () -> ignore (Pareto.time p ~width:0))

let test_effective_width () =
  let p = sample () in
  for w = 1 to Pareto.wmax p do
    let e = Pareto.effective_width p ~width:w in
    Alcotest.(check bool) "effective <= requested" true (e <= w);
    Alcotest.(check int) "same time at effective width"
      (Pareto.time p ~width:w) (Pareto.time p ~width:e);
    Alcotest.(check bool) "effective is pareto" true
      (List.mem e (Pareto.pareto_widths p))
  done

let test_highest_pareto_and_min_time () =
  let p = sample () in
  let top = Pareto.highest_pareto p in
  Alcotest.(check int) "min time at top width" (Pareto.min_time p)
    (Pareto.time p ~width:top);
  Alcotest.(check int) "min time is envelope at wmax" (Pareto.min_time p)
    (Pareto.time p ~width:(Pareto.wmax p))

let test_rectangles_match () =
  let p = sample () in
  List.iter
    (fun (w, t) -> Alcotest.(check int) "rect time" (Pareto.time p ~width:w) t)
    (Pareto.rectangles p)

let test_preferred_width_bounds () =
  let p = sample () in
  List.iter
    (fun percent ->
      let pref = Pareto.preferred_width p ~percent ~delta:0 in
      Alcotest.(check bool) "preferred is pareto" true
        (List.mem pref (Pareto.pareto_widths p)))
    [ 0; 1; 5; 10; 50 ]

let test_preferred_zero_percent_is_top () =
  let p = sample () in
  (* percent = 0, delta = 0: target is exactly the minimum time *)
  Alcotest.(check int) "preferred at 0%" (Pareto.highest_pareto p)
    (Pareto.preferred_width p ~percent:0 ~delta:0)

let test_delta_bumps_to_top () =
  let p = sample () in
  let top = Pareto.highest_pareto p in
  (* a huge delta always bumps to the highest Pareto width *)
  Alcotest.(check int) "delta bump"
    top
    (Pareto.preferred_width p ~percent:50 ~delta:(Pareto.wmax p))

let test_preferred_invalid () =
  let p = sample () in
  Alcotest.check_raises "negative percent"
    (Invalid_argument "Pareto.preferred_width: percent < 0") (fun () ->
      ignore (Pareto.preferred_width p ~percent:(-1) ~delta:0));
  Alcotest.check_raises "negative delta"
    (Invalid_argument "Pareto.preferred_width: delta < 0") (fun () ->
      ignore (Pareto.preferred_width p ~percent:1 ~delta:(-1)))

let test_min_area_bounds () =
  let p = sample () in
  let area = Pareto.min_area p in
  Alcotest.(check bool) "area <= 1 * T(1)" true
    (area <= Pareto.time p ~width:1);
  List.iter
    (fun w ->
      Alcotest.(check bool) "area is a lower bound" true
        (area <= w * Pareto.time p ~width:w))
    (Pareto.pareto_widths p)

let test_known_staircase () =
  (* single chain of 32 FF + 35 in + 2 out, 75 patterns (s838-like):
     beyond width 3 = 1 chain + remaining inputs spread, improvements
     keep coming until terminals are singletons *)
  let core =
    Core_def.make ~id:1 ~name:"s838" ~inputs:35 ~outputs:2 ~bidirs:0
      ~scan_chains:[ 32 ] ~patterns:75 ()
  in
  let p = Pareto.compute core ~wmax:64 in
  Alcotest.(check int) "T(1) exact" ((1 + 67) * 75 + 34)
    (Pareto.time p ~width:1);
  Alcotest.(check bool) "staircase flattens" true
    (Pareto.highest_pareto p < 40)

let test_raw_vs_envelope () =
  let p = sample () in
  for w = 1 to Pareto.wmax p do
    Alcotest.(check bool) "envelope <= raw" true
      (Pareto.time p ~width:w <= Pareto.raw_time p ~width:w)
  done

(* Edge cases: the staircase must stay well-formed at the degenerate ends
   of its domain — a single-wire budget, cores whose time curve is flat,
   and the minimal pattern count (Core_def rejects 0 patterns outright). *)

let assert_well_formed name p =
  let widths = Pareto.pareto_widths p in
  Alcotest.(check bool)
    (name ^ ": pareto widths contain 1")
    true (List.mem 1 widths);
  let prev = ref max_int in
  for w = 1 to Pareto.wmax p do
    let t = Pareto.time p ~width:w in
    Alcotest.(check bool)
      (Printf.sprintf "%s: envelope non-increasing at w=%d" name w)
      true (t <= !prev);
    prev := t
  done

let test_wmax_one () =
  let p =
    Pareto.compute
      (mk ~scan:[ 30; 20 ] ~inputs:12 ~outputs:9 ~patterns:25 1 "w1")
      ~wmax:1
  in
  assert_well_formed "wmax=1" p;
  Alcotest.(check (list int)) "only width 1" [ 1 ] (Pareto.pareto_widths p);
  Alcotest.(check int) "highest pareto" 1 (Pareto.highest_pareto p);
  Alcotest.(check int) "min time = T(1)" (Pareto.time p ~width:1)
    (Pareto.min_time p);
  Alcotest.(check int) "effective width" 1
    (Pareto.effective_width p ~width:1);
  Alcotest.(check int) "clamped above wmax" (Pareto.time p ~width:1)
    (Pareto.time p ~width:500)

let test_flat_staircase () =
  (* a combinational core with one terminal per direction: the wrapper
     design is identical at every width, so the time curve is flat and
     width 1 dominates everything *)
  let core =
    Core_def.make ~id:1 ~name:"flat" ~inputs:1 ~outputs:1 ~bidirs:0
      ~scan_chains:[] ~patterns:5 ()
  in
  let p = Pareto.compute core ~wmax:16 in
  assert_well_formed "flat" p;
  Alcotest.(check (list int)) "flat staircase collapses to width 1" [ 1 ]
    (Pareto.pareto_widths p);
  for w = 1 to 16 do
    Alcotest.(check int)
      (Printf.sprintf "T(%d) = T(1)" w)
      (Pareto.time p ~width:1) (Pareto.time p ~width:w);
    Alcotest.(check int)
      (Printf.sprintf "effective_width at %d" w)
      1
      (Pareto.effective_width p ~width:w)
  done;
  Alcotest.(check int) "min_area = T(1)" (Pareto.time p ~width:1)
    (Pareto.min_area p)

let test_minimal_patterns () =
  (* zero patterns are unrepresentable by construction... *)
  (match
     Core_def.make ~id:1 ~name:"none" ~inputs:4 ~outputs:4 ~bidirs:0
       ~scan_chains:[ 8 ] ~patterns:0 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "patterns = 0 must be rejected by Core_def.make");
  (* ...so the smallest legal core has one pattern; the staircase must
     still be a well-formed non-increasing envelope rooted at width 1 *)
  let core =
    Core_def.make ~id:1 ~name:"one" ~inputs:4 ~outputs:4 ~bidirs:0
      ~scan_chains:[ 8; 3 ] ~patterns:1 ()
  in
  let p = Pareto.compute core ~wmax:12 in
  assert_well_formed "patterns=1" p;
  Alcotest.(check bool) "positive time" true (Pareto.min_time p > 0)

let prop_envelope_nonincreasing =
  Test_helpers.qtest "envelope is non-increasing for any core"
    (QCheck.make (Test_helpers.gen_core 1))
    (fun core ->
      let p = Pareto.compute core ~wmax:48 in
      let ok = ref true in
      for w = 2 to 48 do
        if Pareto.time p ~width:w > Pareto.time p ~width:(w - 1) then
          ok := false
      done;
      !ok)

let prop_pareto_corners_are_drops =
  Test_helpers.qtest "pareto widths are exactly the envelope drops"
    (QCheck.make (Test_helpers.gen_core 1))
    (fun core ->
      let p = Pareto.compute core ~wmax:48 in
      let corners = Pareto.pareto_widths p in
      List.for_all
        (fun w ->
          w = 1 || Pareto.time p ~width:w < Pareto.time p ~width:(w - 1))
        corners
      &&
      let all = List.init 47 (fun k -> k + 2) in
      List.for_all
        (fun w ->
          List.mem w corners
          || Pareto.time p ~width:w = Pareto.time p ~width:(w - 1))
        all)

let prop_envelope_matches_design_min =
  Test_helpers.qtest "envelope equals min of raw designs up to w" ~count:40
    (QCheck.make (Test_helpers.gen_core 1))
    (fun core ->
      let p = Pareto.compute core ~wmax:24 in
      let ok = ref true in
      for w = 1 to 24 do
        let best = ref max_int in
        for v = 1 to w do
          best := min !best (W.testing_time core ~width:v)
        done;
        if Pareto.time p ~width:w <> !best then ok := false
      done;
      !ok)

(* Bit-identity of the one-pass kernel with one full wrapper design per
   width (Test_helpers.reference_staircase). [raw_time] past [wmax]
   clamps to [wmax], where the oracle's last entry sits. *)

let raw_matches_reference core ~wmax =
  let p = Pareto.compute core ~wmax in
  let oracle = Test_helpers.reference_staircase core ~wmax in
  Pareto.wmax p = wmax
  && List.for_all
       (fun w -> Pareto.raw_time p ~width:w = oracle.(Int.min w wmax - 1))
       (List.init (wmax + 2) (fun k -> k + 1))

let check_raw_matches name core ~wmax =
  if not (raw_matches_reference core ~wmax) then
    Alcotest.failf
      "%s core %d (%s) wmax=%d: staircase differs from the per-width design"
      name core.Core_def.id core.Core_def.name wmax

let prop_raw_matches_reference =
  Test_helpers.qtest "raw staircase equals the per-width design" ~count:300
    (QCheck.make
       ~print:(fun (core, wmax) ->
         Format.asprintf "%a wmax=%d" Core_def.pp core wmax)
       QCheck.Gen.(pair (Test_helpers.gen_wide_core 1) (int_range 1 150)))
    (fun (core, wmax) -> raw_matches_reference core ~wmax)

let test_embedded_match_reference () =
  List.iter
    (fun (name, soc) ->
      Array.iter
        (fun core ->
          List.iter
            (fun wmax -> check_raw_matches name core ~wmax)
            [ 1; 2; 8; 64; 200 ])
        soc.Soc_def.cores)
    (Soctest_soc.Benchmarks.all ())

(* The SOC profile of the cold_solve benchmark workload: 19-32 cores
   spanning p22810 to p93791 in data volume, solved at the default
   wmax of 64. *)
let cold_profile_soc i =
  let rng = Synth.rng_of_seed (Int64.of_int (7919 * (i + 1))) in
  Synth.generate
    {
      Synth.name = Printf.sprintf "cold%d" i;
      seed = Int64.of_int (Synth.next_int rng 1_000_000_007);
      core_count = 19 + Synth.next_int rng 14;
      target_data_bits = 6_000_000 + Synth.next_int rng 22_000_001;
      big_core_fraction = 0.25;
      combinational_fraction = 0.2;
      hierarchy_pairs = 2;
      bist_engines = 2;
    }

let test_cold_profile_match_reference () =
  for i = 0 to 39 do
    let soc = cold_profile_soc i in
    Array.iter
      (fun core -> check_raw_matches soc.Soc_def.name core ~wmax:64)
      soc.Soc_def.cores
  done

(* A staircase stops at the core's saturation width whatever [wmax]
   asks for: an absurd [wmax] costs what the saturation width costs and
   answers every width the same. *)

let same_staircase ~upto a b =
  Pareto.pareto_widths a = Pareto.pareto_widths b
  && Pareto.min_time a = Pareto.min_time b
  && List.for_all
       (fun w ->
         Pareto.raw_time a ~width:w = Pareto.raw_time b ~width:w
         && Pareto.time a ~width:w = Pareto.time b ~width:w
         && Pareto.effective_width a ~width:w
            = Pareto.effective_width b ~width:w)
       (List.init upto (fun k -> k + 1))

let huge_wmax = 1 lsl 40

let test_embedded_saturation () =
  List.iter
    (fun (name, soc) ->
      Array.iter
        (fun core ->
          let huge = Pareto.compute core ~wmax:huge_wmax in
          Alcotest.(check int) "wmax reports the request" huge_wmax
            (Pareto.wmax huge);
          let capped = Pareto.compute core ~wmax:1024 in
          if not (same_staircase ~upto:1024 huge capped) then
            Alcotest.failf "%s core %d: wmax 2^40 differs from wmax 1024" name
              core.Core_def.id)
        soc.Soc_def.cores)
    (Soctest_soc.Benchmarks.all ())

let prop_saturation_bound =
  Test_helpers.qtest "wmax past the saturation width changes nothing"
    ~count:300
    (QCheck.make
       ~print:(Format.asprintf "%a" Core_def.pp)
       (Test_helpers.gen_wide_core 1))
    (fun core ->
      let sat = Core_def.max_useful_width core in
      same_staircase ~upto:(sat + 8)
        (Pareto.compute core ~wmax:huge_wmax)
        (Pareto.compute core ~wmax:sat))

let () =
  Alcotest.run "pareto"
    [
      ( "staircase",
        [
          Alcotest.test_case "envelope monotone" `Quick test_envelope_monotone;
          Alcotest.test_case "pareto strictly decreasing" `Quick
            test_pareto_strictly_decreasing;
          Alcotest.test_case "clamping above wmax" `Quick
            test_time_clamps_above_wmax;
          Alcotest.test_case "invalid width" `Quick test_time_invalid;
          Alcotest.test_case "effective width" `Quick test_effective_width;
          Alcotest.test_case "highest pareto / min time" `Quick
            test_highest_pareto_and_min_time;
          Alcotest.test_case "rectangles" `Quick test_rectangles_match;
          Alcotest.test_case "raw vs envelope" `Quick test_raw_vs_envelope;
          Alcotest.test_case "known staircase (s838)" `Quick
            test_known_staircase;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "wmax = 1" `Quick test_wmax_one;
          Alcotest.test_case "flat staircase" `Quick test_flat_staircase;
          Alcotest.test_case "minimal patterns" `Quick test_minimal_patterns;
        ] );
      ( "preferred width",
        [
          Alcotest.test_case "always pareto" `Quick
            test_preferred_width_bounds;
          Alcotest.test_case "0% means top width" `Quick
            test_preferred_zero_percent_is_top;
          Alcotest.test_case "delta bump" `Quick test_delta_bumps_to_top;
          Alcotest.test_case "invalid arguments" `Quick
            test_preferred_invalid;
          Alcotest.test_case "min area bounds" `Quick test_min_area_bounds;
        ] );
      ( "properties",
        [
          prop_envelope_nonincreasing;
          prop_pareto_corners_are_drops;
          prop_envelope_matches_design_min;
        ] );
      ( "kernel",
        [
          prop_raw_matches_reference;
          Alcotest.test_case "embedded SOCs match the per-width design" `Quick
            test_embedded_match_reference;
          Alcotest.test_case "cold-profile SOCs match the per-width design"
            `Quick test_cold_profile_match_reference;
          Alcotest.test_case "embedded staircases stop at saturation" `Quick
            test_embedded_saturation;
          prop_saturation_bound;
        ] );
    ]
