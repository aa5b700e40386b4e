module Json = Soctest_obs.Json
module Synth = Soctest_soc.Synth
module Soc_def = Soctest_soc.Soc_def

type kind = Cold_solve | Width_sweep | Warm_hit | Store_hit

let kinds = [ Cold_solve; Width_sweep; Warm_hit; Store_hit ]

let name = function
  | Cold_solve -> "cold_solve"
  | Width_sweep -> "width_sweep"
  | Warm_hit -> "warm_hit"
  | Store_hit -> "store_hit"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* Five SOCs in equal rotation: each forms its own latency cluster, so
   p50 lands inside the middle SOC's cluster and p90 inside the slowest
   one's instead of on an edge between two clusters. *)
let socs = [ "mini4"; "d695"; "p22810"; "p34392"; "p93791" ]
let soc_count = List.length socs

type plan = {
  warmup : string array;
  restart : bool;
  timed : string array;
  min_samples : int;
}

let body fields = Json.to_string (Json.Obj fields)
let rng_of ~seed salt = Synth.rng_of_seed (Int64.of_int ((seed * 1_000_003) + salt))

(* --- cold_solve ------------------------------------------------------ *)

(* [phase] keeps warm-up and timed SOCs disjoint: their Synth seeds and
   core names never coincide, so the timed phase computes every
   staircase. Sizes and data volumes span the p-series (p22810 to
   p93791). *)
let cold_request ~seed ~phase i =
  let rng = rng_of ~seed ((4 * i) + phase) in
  let core_count = 19 + Synth.next_int rng 14 in
  let target_data_bits = 6_000_000 + Synth.next_int rng 22_000_001 in
  let name = Printf.sprintf "cold%d%c%d" seed "tw".[phase] i in
  let soc =
    Synth.generate
      {
        Synth.name;
        seed = Int64.of_int (Synth.next_int rng 1_000_000_007);
        core_count;
        target_data_bits;
        big_core_fraction = 0.25;
        combinational_fraction = 0.2;
        hierarchy_pairs = 2;
        bist_engines = 2;
      }
  in
  body
    [
      ("soc_text", Json.String (Soctest_soc.Soc_writer.to_string soc));
      ("width", Json.Int 32);
      ("problem", Json.String (if i mod 2 = 0 then "p1" else "p2"));
    ]

(* --- width_sweep ----------------------------------------------------- *)

(* Power caps walk a seeded odd-stride permutation of [span] offsets
   above the SOC's largest core power, so caps never repeat within a
   run (every evaluation is new) and never fall below a core's power
   (no request is infeasible). Warm-up takes offsets from the top of
   the walk, timed requests from the bottom. *)
let cap_span = 4096
let sweep_widths = 64

let sweep_request ~seed ~soc k =
  let s = Option.get (Soctest_soc.Benchmarks.by_name soc) in
  let stride = (2 * (seed land 1023)) + 1 in
  let offset = (seed * 7919) land (cap_span - 1) in
  let cap = Soc_def.max_power s + (((k * stride) + offset) land (cap_span - 1)) in
  body
    [
      ("soc", Json.String soc);
      ("width", Json.Int sweep_widths);
      ("problem", Json.String "p3");
      ("max_width", Json.Int sweep_widths);
      ("power_limit", Json.Int cap);
      ("preempt", Json.Int 2);
    ]

let sweep_warmup_rounds = 8

(* --- warm_hit / store_hit ------------------------------------------- *)

let widths_per_soc = 21

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Synth.next_int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One seeded width from each of 21 equal strata of 8..64, so every
   seed covers the whole width range. *)
let key_set ~seed =
  let rng = rng_of ~seed 1 in
  let lo = 8 and n = 57 in
  List.concat_map
    (fun soc ->
      List.init widths_per_soc (fun k ->
          let a = k * n / widths_per_soc and b = (k + 1) * n / widths_per_soc in
          let width = lo + a + Synth.next_int rng (b - a) in
          body
            [
              ("soc", Json.String soc);
              ("width", Json.Int width);
              ("problem", Json.String "p2");
              ("strategy", Json.String "grid");
            ]))
    socs
  |> Array.of_list

(* Passes over the key set, each in a fresh seeded order. *)
let passes ~seed keys n =
  let rng = rng_of ~seed 2 in
  Array.concat
    (List.init n (fun _ ->
         let a = Array.copy keys in
         shuffle rng a;
         a))

(* ------------------------------------------------------------------- *)

(* The open-ended workloads' fixed prefix: 30 samples beyond p90. *)
let min_samples = 300

let plan kind ~seed ~budget =
  let budget = max budget min_samples in
  match kind with
  | Cold_solve ->
    {
      warmup = Array.init 48 (cold_request ~seed ~phase:1);
      restart = false;
      timed = Array.init budget (cold_request ~seed ~phase:0);
      min_samples;
    }
  | Width_sweep ->
    let nth k i = sweep_request ~seed ~soc:(List.nth socs (i mod soc_count)) k in
    {
      warmup =
        Array.init (sweep_warmup_rounds * soc_count) (fun i ->
            nth (cap_span - 1 - (i / soc_count)) i);
      restart = false;
      timed = Array.init budget (fun i -> nth (i / soc_count) i);
      min_samples;
    }
  | Warm_hit ->
    let keys = key_set ~seed in
    let n = Array.length keys in
    {
      warmup = keys;
      restart = false;
      timed = passes ~seed keys ((budget + n - 1) / n);
      (* whole passes, so every key weighs the same in the fixed work *)
      min_samples = n * ((min_samples + n - 1) / n);
    }
  | Store_hit ->
    let keys = key_set ~seed in
    (* a second answer to a key would come from memory *)
    { warmup = keys; restart = true; timed = passes ~seed keys 1; min_samples = Array.length keys }
