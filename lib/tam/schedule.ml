type slice = { core : int; width : int; start : int; stop : int }

type t = { tam_width : int; slices : slice list }

let compare_slice a b =
  match compare a.start b.start with
  | 0 -> compare a.core b.core
  | c -> c

let make ~tam_width ~slices =
  if tam_width < 1 then invalid_arg "Schedule.make: tam_width must be >= 1";
  List.iter
    (fun s ->
      if s.width < 1 || s.start < 0 || s.stop <= s.start || s.core < 1 then
        invalid_arg
          (Printf.sprintf
             "Schedule.make: malformed slice core=%d w=%d [%d,%d)" s.core
             s.width s.start s.stop))
    slices;
  { tam_width; slices = List.sort compare_slice slices }

let empty ~tam_width = make ~tam_width ~slices:[]

let makespan t = List.fold_left (fun acc s -> max acc s.stop) 0 t.slices

let total_busy_area t =
  List.fold_left (fun acc s -> acc + (s.width * (s.stop - s.start))) 0
    t.slices

let idle_area t = (t.tam_width * makespan t) - total_busy_area t

let utilization t =
  let span = makespan t in
  if span = 0 then 0.
  else
    float_of_int (total_busy_area t) /. float_of_int (t.tam_width * span)

let cores t =
  List.map (fun s -> s.core) t.slices
  |> List.sort_uniq compare

(* One pass over the (start, core)-sorted slice list groups each core's
   slices in start order; the result replaces the per-core
   [List.filter] that stats/audit/post-processing used to repeat once
   per core (O(cores × slices)). *)
let index t =
  let by_core : (int, slice list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_core s.core with
      | Some cell -> cell := s :: !cell
      | None ->
        Hashtbl.add by_core s.core (ref [ s ]);
        order := s.core :: !order)
    t.slices;
  List.rev_map
    (fun core ->
      let cell = Hashtbl.find by_core core in
      (core, Array.of_list (List.rev !cell)))
    !order
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* [t.slices] is sorted by (start, core) by [make], and [t] is private, so
   the filtered list is sorted by start. [preemptions] and [core_finish]
   depend on that order; re-verify it here so a future constructor that
   forgets to sort fails loudly instead of silently miscounting gaps. *)
let slices_of_core t core =
  let ss = List.filter (fun s -> s.core = core) t.slices in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if a.start > b.start then
        invalid_arg
          (Printf.sprintf
             "Schedule.slices_of_core: core %d slices unsorted ([%d,%d) \
              before [%d,%d))"
             core a.start a.stop b.start b.stop)
      else check rest
    | _ -> ()
  in
  check ss;
  ss

let core_start t core =
  match slices_of_core t core with [] -> None | s :: _ -> Some s.start

let core_finish t core =
  match slices_of_core t core with
  | [] -> None
  | ss -> Some (List.fold_left (fun acc s -> max acc s.stop) 0 ss)

(* A resumption that is back-to-back with the previous slice
   ([s.start = prev_stop]) is a merge artifact, not a real interruption:
   nothing stopped, so no preemption (and no si+so restart cost) is
   counted. Only a strict gap ([s.start > prev_stop]) counts. *)
let preemptions_in ss =
  let gaps = ref 0 in
  if Array.length ss > 0 then begin
    let prev_stop = ref ss.(0).stop in
    for k = 1 to Array.length ss - 1 do
      if ss.(k).start > !prev_stop then incr gaps;
      prev_stop := Int.max !prev_stop ss.(k).stop
    done
  end;
  !gaps

let preemptions t core =
  preemptions_in (Array.of_list (slices_of_core t core))

let width_of_core t core =
  match slices_of_core t core with
  | [] -> None
  | s :: rest ->
    if List.exists (fun s' -> s'.width <> s.width) rest then
      invalid_arg
        (Printf.sprintf "Schedule.width_of_core: core %d changes width" core)
    else Some s.width

(* Event sweep over slice boundaries. *)
let events t =
  List.concat_map
    (fun s -> [ (s.start, s.width, s.core); (s.stop, -s.width, s.core) ])
    t.slices
  |> List.sort compare

let peak_width t =
  let peak = ref 0 and used = ref 0 in
  (* process all events at the same timestamp together so that a slice
     ending exactly when another starts does not double-count *)
  let evs = events t in
  let rec sweep = function
    | [] -> ()
    | (time, _, _) :: _ as evs ->
      let now, later =
        List.partition (fun (tm, _, _) -> tm = time) evs
      in
      List.iter (fun (_, dw, _) -> used := !used + dw) now;
      peak := max !peak !used;
      sweep later
  in
  sweep evs;
  !peak

let active_at t time =
  List.filter (fun s -> s.start <= time && time < s.stop) t.slices

type violation =
  | Capacity_exceeded of { time : int; used : int }
  | Core_overlap of { core : int; time : int }

let check_capacity t =
  let violations = ref [] in
  let used = ref 0 in
  let running : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec sweep = function
    | [] -> ()
    | (time, _, _) :: _ as evs ->
      let now, later = List.partition (fun (tm, _, _) -> tm = time) evs in
      (* apply all ends first, then all starts, at identical timestamps *)
      let ends, starts = List.partition (fun (_, dw, _) -> dw < 0) now in
      List.iter
        (fun (_, dw, core) ->
          used := !used + dw;
          let n = Hashtbl.find running core in
          if n = 1 then Hashtbl.remove running core
          else Hashtbl.replace running core (n - 1))
        ends;
      List.iter
        (fun (_, dw, core) ->
          used := !used + dw;
          let n = try Hashtbl.find running core with Not_found -> 0 in
          if n > 0 then
            violations := Core_overlap { core; time } :: !violations;
          Hashtbl.replace running core (n + 1))
        starts;
      if !used > t.tam_width then
        violations := Capacity_exceeded { time; used = !used } :: !violations;
      sweep later
  in
  sweep (events t);
  List.rev !violations

let pp_violation ppf = function
  | Capacity_exceeded { time; used } ->
    Format.fprintf ppf "capacity exceeded at t=%d (%d wires in use)" time
      used
  | Core_overlap { core; time } ->
    Format.fprintf ppf "core %d scheduled twice at t=%d" core time

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule W=%d makespan=%d util=%.1f%%"
    t.tam_width (makespan t) (100. *. utilization t);
  List.iter
    (fun s ->
      Format.fprintf ppf "@,core %2d: w=%2d [%d, %d)" s.core s.width
        s.start s.stop)
    t.slices;
  Format.fprintf ppf "@]"
