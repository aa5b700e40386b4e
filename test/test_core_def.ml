(* Unit tests for the core description record. *)

module Core_def = Soctest_soc.Core_def
module W = Soctest_wrapper.Wrapper_design

let mk = Test_helpers.core

let test_derived_metrics () =
  let c = mk ~inputs:5 ~outputs:7 ~bidirs:2 ~scan:[ 10; 20; 30 ] ~patterns:4 1 "c" in
  Alcotest.(check int) "flip flops" 60 (Core_def.flip_flops c);
  Alcotest.(check int) "chain count" 3 (Core_def.scan_chain_count c);
  Alcotest.(check int) "bits per pattern" (60 + 5 + 7 + 4)
    (Core_def.bits_per_pattern c);
  Alcotest.(check int) "total bits" ((60 + 5 + 7 + 4) * 4)
    (Core_def.test_data_bits c);
  Alcotest.(check bool) "not combinational" false (Core_def.is_combinational c)

let test_default_power_is_bits_per_pattern () =
  let c = mk ~inputs:5 ~outputs:7 ~bidirs:2 ~scan:[ 10 ] ~patterns:4 1 "c" in
  Alcotest.(check int) "default power" (Core_def.bits_per_pattern c)
    c.Core_def.power

let test_explicit_power () =
  let c = mk ~power:123 1 "c" in
  Alcotest.(check int) "explicit power" 123 c.Core_def.power

let test_combinational () =
  let c = mk ~scan:[] 1 "comb" in
  Alcotest.(check bool) "combinational" true (Core_def.is_combinational c);
  Alcotest.(check int) "no flip flops" 0 (Core_def.flip_flops c)

let test_max_useful_width () =
  let c = mk ~inputs:3 ~outputs:2 ~bidirs:0 ~scan:[ 4; 4 ] 1 "c" in
  Alcotest.(check bool) "at least chains" true (Core_def.max_useful_width c >= 2);
  let comb = mk ~inputs:2 ~outputs:1 ~scan:[] 2 "comb" in
  Alcotest.(check bool) "at least 1" true (Core_def.max_useful_width comb >= 1)

(* The saturation width is exact: no wider TAM changes the testing
   time. A combinational core with 200 inputs keeps improving well past
   64 wires and stops at 200. *)
let test_max_useful_width_many_terminals () =
  let c = mk ~inputs:200 ~outputs:5 ~scan:[] ~patterns:10 1 "wide" in
  Alcotest.(check int) "saturation width" 200 (Core_def.max_useful_width c);
  List.iter
    (fun (width, time) ->
      Alcotest.(check int)
        (Printf.sprintf "T(%d)" width)
        time (W.testing_time c ~width))
    [ (64, 51); (100, 31); (200, 21); (1000, 21) ]

let prop_saturation_is_final =
  Test_helpers.qtest "no width past max_useful_width changes the time"
    ~count:200
    (QCheck.make
       ~print:(fun (c, extra) -> Format.asprintf "%a +%d" Core_def.pp c extra)
       QCheck.Gen.(pair (Test_helpers.gen_wide_core 1) (int_range 1 5000)))
    (fun (c, extra) ->
      let sat = Core_def.max_useful_width c in
      W.testing_time c ~width:sat = W.testing_time c ~width:(sat + extra))

let check_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: expected Invalid_argument" name)

let test_equal () =
  let a = mk 1 "x" and b = mk 1 "x" in
  Alcotest.(check bool) "equal" true (Core_def.equal a b);
  let c = mk ~patterns:99 1 "x" in
  Alcotest.(check bool) "different patterns" false (Core_def.equal a c)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let test_pp_smoke () =
  let c = mk ~bist:2 1 "abc" in
  let s = Format.asprintf "%a" Core_def.pp c in
  Alcotest.(check bool) "mentions name" true (contains_substring s "abc");
  Alcotest.(check bool) "mentions bist" true (contains_substring s "bist=2")

let () =
  Alcotest.run "core_def"
    [
      ( "metrics",
        [
          Alcotest.test_case "derived metrics" `Quick test_derived_metrics;
          Alcotest.test_case "default power" `Quick
            test_default_power_is_bits_per_pattern;
          Alcotest.test_case "explicit power" `Quick test_explicit_power;
          Alcotest.test_case "combinational" `Quick test_combinational;
          Alcotest.test_case "max useful width" `Quick test_max_useful_width;
          Alcotest.test_case "max useful width, many terminals" `Quick
            test_max_useful_width_many_terminals;
          prop_saturation_is_final;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "validation",
        [
          check_invalid "id zero" (fun () -> mk 0 "c");
          check_invalid "negative inputs" (fun () -> mk ~inputs:(-1) 1 "c");
          check_invalid "negative outputs" (fun () -> mk ~outputs:(-2) 1 "c");
          check_invalid "zero patterns" (fun () -> mk ~patterns:0 1 "c");
          check_invalid "zero-length chain" (fun () -> mk ~scan:[ 4; 0 ] 1 "c");
          check_invalid "negative power" (fun () -> mk ~power:(-5) 1 "c");
          check_invalid "empty core" (fun () ->
              Core_def.make ~id:1 ~name:"e" ~inputs:0 ~outputs:0 ~bidirs:0
                ~scan_chains:[] ~patterns:1 ());
        ] );
    ]
