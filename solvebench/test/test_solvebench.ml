(* The benchmark's own checks: seeded inputs, order statistics and the
   sample counts the p90 metric relies on. *)

module Stats = Solvebench.Stats
module Workload = Solvebench.Workload

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let bodies (p : Workload.plan) = Array.append p.Workload.warmup p.Workload.timed

let () =
  List.iter
    (fun kind ->
      let name = Workload.name kind in
      let plan seed = Workload.plan kind ~seed ~budget:120 in
      let a = plan 7 and b = plan 7 and c = plan 8 in
      check (name ^ ": same seed, same bodies") (bodies a = bodies b);
      check (name ^ ": another seed, other bodies") (a.Workload.timed <> c.Workload.timed);
      check (name ^ ": enough timed inputs") (Array.length a.Workload.timed >= a.Workload.min_samples);
      check (name ^ ": 10 samples beyond p90") (Stats.beyond a.Workload.min_samples 0.90 >= 10);
      match kind with
      | Workload.Cold_solve | Workload.Width_sweep ->
        let timed = Array.to_list a.Workload.timed in
        check (name ^ ": warm-up disjoint from timed inputs")
          (Array.for_all (fun w -> not (List.mem w timed)) a.Workload.warmup);
        check (name ^ ": timed inputs never repeat")
          (List.length (List.sort_uniq compare timed) = List.length timed)
      | Workload.Warm_hit | Workload.Store_hit -> ())
    Workload.kinds;
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..10" (Stats.percentile ten 0.50 = 5.);
  check "p90 of 1..10" (Stats.percentile ten 0.90 = 9.);
  check "p90 of one sample" (Stats.percentile [ 4. ] 0.90 = 4.);
  check "beyond p90 of 100" (Stats.beyond 100 0.90 = 10);
  check "beyond p90 of 105" (Stats.beyond 105 0.90 = 10);
  check "median of 1..10" (Stats.median ten = 5.5);
  check "median of 3,1,2" (Stats.median [ 3.; 1.; 2. ] = 2.);
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let q xs (e1, e2, e3) =
    let a, b, c = Stats.quartiles xs in
    close a e1 && close b e2 && close c e3
  in
  check "quartiles of 1..10" (q ten (2.75, 5.5, 8.25));
  check "quartiles of 1..5" (q [ 1.; 2.; 3.; 4.; 5. ] (1.5, 3., 4.5));
  check "quartiles of 3,1,2" (q [ 3.; 1.; 2. ] (1., 2., 3.));
  check "quartiles of 10,40" (q [ 10.; 40. ] (2.5, 25., 47.5));
  check "spread of 1..10" (close (Stats.spread ten) ((8.25 -. 2.75) /. 5.5));
  if !failures > 0 then exit 1
