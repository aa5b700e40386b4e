module Obs = Soctest_obs.Obs

type assignment = { bins : int list array; loads : int array }

let packs_counter = Obs.counter "wrapper.bfd_packs"
let exact_nodes_counter = Obs.counter "wrapper.bfd_exact_nodes"

let least_loaded (loads : int array) =
  let best = ref 0 in
  for k = 1 to Array.length loads - 1 do
    if loads.(k) < loads.(!best) then best := k
  done;
  !best

let pack ~weights ~bins =
  if bins < 1 then invalid_arg "Bfd.pack: bins must be >= 1";
  Obs.incr packs_counter;
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Bfd.pack: negative weight";
  let order = Array.init (Array.length weights) Fun.id in
  Array.sort (fun a b -> Int.compare weights.(b) weights.(a)) order;
  let result = { bins = Array.make bins []; loads = Array.make bins 0 } in
  Array.iter
    (fun item ->
      let bin = least_loaded result.loads in
      result.bins.(bin) <- item :: result.bins.(bin);
      result.loads.(bin) <- result.loads.(bin) + weights.(item))
    order;
  result

let max_load a = Array.fold_left Int.max 0 a.loads

let min_load a =
  Array.fold_left Int.min max_int a.loads

(* Closed-form water-fill, replacing a unit-at-a-time loop that cost
   O(units x bins) and dominated Pareto preparation (two calls per
   candidate width per core, with [units] in the hundreds). The loop's
   outcome is fully determined: it raises the lowest bins to a common
   level, then hands the leftover units to level bins in ascending index
   order (ties in [least_loaded] resolve to the lowest index). So find
   the largest level whose fill cost stays within [units] by binary
   search and distribute directly — bit-identical to the loop, which
   test_bfd checks by property. *)
let spread_units ~loads ~units =
  if units < 0 then invalid_arg "Bfd.spread_units: negative units";
  let bins = Array.length loads in
  if bins = 0 then invalid_arg "Bfd.spread_units: no bins";
  let given = Array.make bins 0 in
  if units > 0 then begin
    let fill level =
      Array.fold_left (fun acc v -> acc + Int.max 0 (level - v)) 0 loads
    in
    let min_load = Array.fold_left Int.min loads.(0) loads in
    (* largest level with fill level <= units; fill is monotone *)
    let lo = ref min_load and hi = ref (min_load + units) in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo + 1) / 2) in
      if fill mid <= units then lo := mid else hi := mid - 1
    done;
    let level = !lo in
    let spare = ref (units - fill level) in
    Array.iteri
      (fun i v -> if v < level then given.(i) <- level - v)
      loads;
    Array.iteri
      (fun i v ->
        if !spare > 0 && v <= level then begin
          given.(i) <- given.(i) + 1;
          decr spare
        end)
      loads
  end;
  given

(* branch and bound: place items (largest first) into bins; prune when
   the current max load already reaches the incumbent; break bin
   symmetry by only allowing a new (empty) bin once per level *)
let exact_max_load ~weights ~bins =
  if bins < 1 then invalid_arg "Bfd.exact_max_load: bins must be >= 1";
  if Array.exists (fun w -> w < 0) weights then
    invalid_arg "Bfd.exact_max_load: negative weight";
  if Array.length weights > 20 then
    invalid_arg "Bfd.exact_max_load: too many items for exact search";
  let items = Array.copy weights in
  Array.sort (fun a b -> Int.compare b a) items;
  let n = Array.length items in
  let loads = Array.make bins 0 in
  (* seed the incumbent with the heuristic *)
  let best = ref (max_load (pack ~weights ~bins)) in
  let rec place k current_max =
    Obs.incr exact_nodes_counter;
    if current_max >= !best then ()
    else if k = n then best := current_max
    else begin
      let seen_empty = ref false in
      for b = 0 to bins - 1 do
        let empty = loads.(b) = 0 in
        if (not empty) || not !seen_empty then begin
          if empty then seen_empty := true;
          loads.(b) <- loads.(b) + items.(k);
          place (k + 1) (Int.max current_max loads.(b));
          loads.(b) <- loads.(b) - items.(k)
        end
      done
    end
  in
  place 0 0;
  !best
