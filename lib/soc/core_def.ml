type t = {
  id : int;
  name : string;
  inputs : int;
  outputs : int;
  bidirs : int;
  scan_chains : int list;
  patterns : int;
  power : int;
  bist_engine : int option;
}

let flip_flops c = List.fold_left ( + ) 0 c.scan_chains
let scan_chain_count c = List.length c.scan_chains

let bits_per_pattern c =
  flip_flops c + c.inputs + c.outputs + (2 * c.bidirs)

let test_data_bits c = bits_per_pattern c * c.patterns

let make ~id ~name ~inputs ~outputs ~bidirs ~scan_chains ~patterns ?power
    ?bist_engine () =
  if id < 1 then invalid_arg "Core_def.make: id must be >= 1";
  if inputs < 0 || outputs < 0 || bidirs < 0 then
    invalid_arg "Core_def.make: negative terminal count";
  if patterns < 1 then invalid_arg "Core_def.make: patterns must be >= 1";
  if List.exists (fun len -> len < 1) scan_chains then
    invalid_arg "Core_def.make: scan chain length must be >= 1";
  if inputs + outputs + bidirs + List.length scan_chains = 0 then
    invalid_arg "Core_def.make: core has no terminals and no scan chains";
  let core =
    { id; name; inputs; outputs; bidirs; scan_chains; patterns;
      power = 0; bist_engine }
  in
  let power =
    match power with
    | Some p ->
      if p < 0 then invalid_arg "Core_def.make: negative power";
      p
    | None -> bits_per_pattern core
  in
  { core with power }

let max_useful_width c =
  (* one wrapper chain per scan chain, plus one per terminal on the
     busier side: every extra chain would stay empty *)
  max 1 (scan_chain_count c + max (c.inputs + c.bidirs) (c.outputs + c.bidirs))

let is_combinational c = c.scan_chains = []

let equal a b =
  a.id = b.id && String.equal a.name b.name && a.inputs = b.inputs
  && a.outputs = b.outputs && a.bidirs = b.bidirs
  && a.scan_chains = b.scan_chains && a.patterns = b.patterns
  && a.power = b.power && a.bist_engine = b.bist_engine

let pp ppf c =
  Format.fprintf ppf
    "@[<h>core %d %s: in=%d out=%d bidir=%d chains=[%s] patterns=%d \
     power=%d%s@]"
    c.id c.name c.inputs c.outputs c.bidirs
    (String.concat ";" (List.map string_of_int c.scan_chains))
    c.patterns c.power
    (match c.bist_engine with
    | None -> ""
    | Some e -> Printf.sprintf " bist=%d" e)
