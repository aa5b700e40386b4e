module Core_def = Soctest_soc.Core_def

type t = {
  width : int;
  scan_in : int array;
  scan_out : int array;
  si : int;
  so : int;
  time : int;
}

let time_formula ~si ~so ~patterns =
  ((1 + Int.max si so) * patterns) + Int.min si so

let design (core : Core_def.t) ~width =
  if width < 1 then invalid_arg "Wrapper_design.design: width must be >= 1";
  let chains = Array.of_list core.Core_def.scan_chains in
  let in_terminals = core.Core_def.inputs + core.Core_def.bidirs in
  let out_terminals = core.Core_def.outputs + core.Core_def.bidirs in
  (* A wrapper chain carrying neither scan nor terminals is useless; clamp
     so every wrapper chain holds at least one cell. *)
  let bins = Int.min width (Core_def.max_useful_width core) in
  let packed = Bfd.pack ~weights:chains ~bins in
  let loads = packed.Bfd.loads in
  let input_cells = Bfd.spread_units ~loads ~units:in_terminals in
  let output_cells = Bfd.spread_units ~loads ~units:out_terminals in
  let scan_in = Array.mapi (fun k load -> load + input_cells.(k)) loads in
  let scan_out = Array.mapi (fun k load -> load + output_cells.(k)) loads in
  let si = Array.fold_left Int.max 0 scan_in in
  let so = Array.fold_left Int.max 0 scan_out in
  {
    width = bins;
    scan_in;
    scan_out;
    si;
    so;
    time = time_formula ~si ~so ~patterns:core.Core_def.patterns;
  }

let testing_time core ~width = (design core ~width).time

let pp ppf w =
  Format.fprintf ppf "wrapper width=%d si=%d so=%d time=%d" w.width w.si
    w.so w.time

(* exact variant: optimal scan partition, then the same greedy terminal
   spread (optimal for unit weights) *)
let design_exact (core : Core_def.t) ~width =
  if width < 1 then
    invalid_arg "Wrapper_design.design_exact: width must be >= 1";
  let chains = Array.of_list core.Core_def.scan_chains in
  if Array.length chains > 16 then design core ~width
  else begin
    let in_terminals = core.Core_def.inputs + core.Core_def.bidirs in
    let out_terminals = core.Core_def.outputs + core.Core_def.bidirs in
    let bins = Int.min width (Core_def.max_useful_width core) in
    (* recover an optimal assignment: rerun the B&B but keep loads *)
    let target = Bfd.exact_max_load ~weights:chains ~bins in
    (* greedy reconstruction: place items largest-first, never letting a
       bin exceed [target]; guaranteed feasible since target is optimal
       ... except greedy order may paint itself into a corner, so search
       with backtracking (small n) *)
    let order = Array.init (Array.length chains) Fun.id in
    Array.sort (fun a b -> Int.compare chains.(b) chains.(a)) order;
    let loads = Array.make bins 0 in
    let exception Found of int array in
    let rec place k =
      if k = Array.length order then raise (Found (Array.copy loads))
      else
        let item = chains.(order.(k)) in
        let seen_empty = ref false in
        for b = 0 to bins - 1 do
          let empty = loads.(b) = 0 in
          if ((not empty) || not !seen_empty) && loads.(b) + item <= target
          then begin
            if empty then seen_empty := true;
            loads.(b) <- loads.(b) + item;
            place (k + 1);
            loads.(b) <- loads.(b) - item
          end
        done
    in
    let loads = try place 0; Array.make bins 0 with Found l -> l in
    let input_cells = Bfd.spread_units ~loads ~units:in_terminals in
    let output_cells = Bfd.spread_units ~loads ~units:out_terminals in
    let scan_in = Array.mapi (fun k load -> load + input_cells.(k)) loads in
    let scan_out =
      Array.mapi (fun k load -> load + output_cells.(k)) loads
    in
    let si = Array.fold_left Int.max 0 scan_in in
    let so = Array.fold_left Int.max 0 scan_out in
    {
      width = bins;
      scan_in;
      scan_out;
      si;
      so;
      time = time_formula ~si ~so ~patterns:core.Core_def.patterns;
    }
  end
