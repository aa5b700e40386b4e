module Core_def = Soctest_soc.Core_def
module Obs = Soctest_obs.Obs

type t = {
  core_id : int;
  wmax : int;  (** requested; the arrays stop at the saturation width *)
  raw : int array;  (** raw.(w-1) = Design_wrapper time at width w *)
  envelope : int array;  (** prefix minimum of [raw] *)
  effective : int array;  (** smallest width achieving [envelope.(w-1)] *)
  pareto : int list;  (** ascending Pareto-optimal widths *)
}

let computes_counter = Obs.counter "pareto.computes"

(* The staircase kernel, equal to [Wrapper_design.design] at every width
   (test_pareto checks it). [design] packs the scan chains largest-first
   onto the least-loaded of [bins = min w saturation] wrapper chains,
   then water-fills the terminals onto the lightest ones. T(w) reads
   only the longest scan-in and scan-out, so only those are derived:
   - Packing onto any least-loaded chain leaves the same multiset of
     loads whatever the tie order, so a min-heap replaces the index
     scan; from [bins >= chains] on each chain gets its own wrapper
     chain and no packing runs.
   - The water-fill conserves cells and either stays below the longest
     load or levels every wrapper chain to within one cell, so the
     longest scan-in is max(longest load,
     ceil((inputs + bidirs + flip_flops) / bins)); likewise scan-out.
   - Past the saturation width [design] clamps, so the arrays stop. *)

(* Sift [x] down from slot [i] of the min-heap [heap.(0..size-1)]. *)
let rec sift_down (heap : int array) size x i =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- x
  else begin
    let c = if l + 1 < size && heap.(l + 1) < heap.(l) then l + 1 else l in
    if heap.(c) < x then begin
      heap.(i) <- heap.(c);
      sift_down heap size x c
    end
    else heap.(i) <- x
  end

(* The longest load when [chains] (descending) are packed largest-first
   onto the least-loaded of [bins] wrapper chains. *)
let longest_load heap ~chains ~bins =
  Array.fill heap 0 bins 0;
  let longest = ref 0 in
  for k = 0 to Array.length chains - 1 do
    let load = heap.(0) + chains.(k) in
    sift_down heap bins load 0;
    longest := Int.max !longest load
  done;
  !longest

(* The longest scan-in (or scan-out) once [units] terminal cells are
   water-filled onto [bins] wrapper chains whose longest load is
   [longest]. *)
let longest_cell ~longest ~flip_flops ~bins units =
  Int.max longest ((units + flip_flops + bins - 1) / bins)

let staircase core ~wmax =
  let chains = Array.of_list core.Core_def.scan_chains in
  Array.sort (fun a b -> Int.compare b a) chains;
  let n = Array.length chains in
  let heap = Array.make n 0 in
  let flip_flops = Core_def.flip_flops core in
  let ins = core.Core_def.inputs + core.Core_def.bidirs in
  let outs = core.Core_def.outputs + core.Core_def.bidirs in
  Array.init
    (Int.min wmax (Core_def.max_useful_width core))
    (fun k ->
      let bins = k + 1 in
      let longest =
        if bins < n then longest_load heap ~chains ~bins
        else if n > 0 then chains.(0)
        else 0
      in
      Wrapper_design.time_formula
        ~si:(longest_cell ~longest ~flip_flops ~bins ins)
        ~so:(longest_cell ~longest ~flip_flops ~bins outs)
        ~patterns:core.Core_def.patterns)

let compute core ~wmax =
  if wmax < 1 then invalid_arg "Pareto.compute: wmax must be >= 1";
  Obs.incr computes_counter;
  Obs.with_span ~cat:"wrapper" "pareto.compute"
    ~args:[ ("core", string_of_int core.Core_def.id) ]
  @@ fun () ->
  let raw = staircase core ~wmax in
  let len = Array.length raw in
  let envelope = Array.copy raw in
  let effective = Array.make len 1 in
  for w = 1 to len - 1 do
    if envelope.(w) < envelope.(w - 1) then effective.(w) <- w + 1
    else begin
      envelope.(w) <- envelope.(w - 1);
      effective.(w) <- effective.(w - 1)
    end
  done;
  let pareto = ref [] in
  for w = len downto 1 do
    if w = 1 || envelope.(w - 1) < envelope.(w - 2) then
      pareto := w :: !pareto
  done;
  { core_id = core.Core_def.id; wmax; raw; envelope; effective;
    pareto = !pareto }

let core_id t = t.core_id
let wmax t = t.wmax

(* Widths past the saturation width (or [wmax]) read the last entry. *)
let clamp t width =
  if width < 1 then invalid_arg "Pareto: width must be >= 1";
  Int.min width (Array.length t.raw)

let time t ~width = t.envelope.(clamp t width - 1)
let raw_time t ~width = t.raw.(clamp t width - 1)
let effective_width t ~width = t.effective.(clamp t width - 1)
let pareto_widths t = t.pareto

let highest_pareto t =
  match List.rev t.pareto with
  | w :: _ -> w
  | [] -> 1 (* unreachable: pareto always contains width 1 *)

let min_time t = t.envelope.(Array.length t.envelope - 1)

let rectangles t = List.map (fun w -> (w, time t ~width:w)) t.pareto

let preferred_width t ~percent ~delta =
  if percent < 0 then invalid_arg "Pareto.preferred_width: percent < 0";
  if delta < 0 then invalid_arg "Pareto.preferred_width: delta < 0";
  let target =
    min_time t + (min_time t * percent / 100)
  in
  let best =
    List.fold_left
      (fun best w ->
        let gap = abs (time t ~width:w - target) in
        match best with
        | Some (_, best_gap) when best_gap <= gap -> best
        | _ -> Some (w, gap))
      None t.pareto
  in
  let preferred = match best with Some (w, _) -> w | None -> 1 in
  let top = highest_pareto t in
  if top - preferred <= delta then top else preferred

let min_area t =
  List.fold_left
    (fun acc w -> min acc (w * time t ~width:w))
    max_int t.pareto

let pp ppf t =
  Format.fprintf ppf "@[<v>core %d Pareto staircase (wmax=%d):" t.core_id
    t.wmax;
  List.iter
    (fun w -> Format.fprintf ppf "@,w=%2d  T=%d" w (time t ~width:w))
    t.pareto;
  Format.fprintf ppf "@]"
