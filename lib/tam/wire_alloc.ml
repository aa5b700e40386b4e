module Obs = Soctest_obs.Obs

type allocation = { slice : Schedule.slice; wires : int list }

exception
  Capacity_exceeded of { time : int; core : int; deficit : int }

let pp_capacity_exceeded ppf (time, core, deficit) =
  Format.fprintf ppf
    "wire allocation: core %d needs %d more wire(s) than free at t=%d" core
    deficit time

let () =
  Printexc.register_printer (function
    | Capacity_exceeded { time; core; deficit } ->
      Some
        (Format.asprintf "Wire_alloc.Capacity_exceeded (%a)"
           pp_capacity_exceeded (time, core, deficit))
    | _ -> None)

let slices_counter = Obs.counter "tam.wire_alloc_slices"

(* Start-time sweep order with an explicit tie-break: simultaneous starts
   are processed by ascending core id, then width. A bare [List.sort
   compare] on [(start, slice)] pairs would fall back to polymorphic
   comparison of the whole slice record on tied start times — an
   allocation order fixed only by the accident of record field layout. *)
let sweep_order (a : Schedule.slice) (b : Schedule.slice) =
  match compare a.Schedule.start b.Schedule.start with
  | 0 -> (
    match compare a.Schedule.core b.Schedule.core with
    | 0 -> compare a.Schedule.width b.Schedule.width
    | c -> c)
  | c -> c

(* The free set is a bitset over wire indices; the running slices live in
   a binary min-heap keyed by stop time so each sweep step releases only
   the slices that actually expire (the old Int_set implementation, kept
   as the auditor's independent reference in [Soctest_check.Ref_alloc],
   re-partitioned a live list on every step). Release order within a
   timestamp is irrelevant: returning wires to the free set commutes. *)
let allocate (sched : Schedule.t) =
  Obs.with_span ~cat:"tam" "wire_alloc.allocate" @@ fun () ->
  let slices = Array.of_list sched.Schedule.slices in
  let n = Array.length slices in
  Obs.add slices_counter n;
  Array.sort sweep_order slices;
  let free = Bitset.full sched.Schedule.tam_width in
  (* 1-based heap arrays; [heap_wires] keeps each live slice's wires to
     re-add on release *)
  let heap_stop = Array.make (n + 1) 0 in
  let heap_wires = Array.make (n + 1) [] in
  let heap_n = ref 0 in
  let heap_push stop wires =
    incr heap_n;
    let k = ref !heap_n in
    heap_stop.(!k) <- stop;
    heap_wires.(!k) <- wires;
    while !k > 1 && heap_stop.(!k / 2) > heap_stop.(!k) do
      let p = !k / 2 in
      let ts = heap_stop.(p) and tw = heap_wires.(p) in
      heap_stop.(p) <- heap_stop.(!k);
      heap_wires.(p) <- heap_wires.(!k);
      heap_stop.(!k) <- ts;
      heap_wires.(!k) <- tw;
      k := p
    done
  in
  let heap_pop () =
    heap_stop.(1) <- heap_stop.(!heap_n);
    heap_wires.(1) <- heap_wires.(!heap_n);
    heap_wires.(!heap_n) <- [];
    decr heap_n;
    let k = ref 1 in
    let continue = ref true in
    while !continue do
      let l = 2 * !k and r = (2 * !k) + 1 in
      let smallest = ref !k in
      if l <= !heap_n && heap_stop.(l) < heap_stop.(!smallest) then
        smallest := l;
      if r <= !heap_n && heap_stop.(r) < heap_stop.(!smallest) then
        smallest := r;
      if !smallest = !k then continue := false
      else begin
        let ts = heap_stop.(!smallest) and tw = heap_wires.(!smallest) in
        heap_stop.(!smallest) <- heap_stop.(!k);
        heap_wires.(!smallest) <- heap_wires.(!k);
        heap_stop.(!k) <- ts;
        heap_wires.(!k) <- tw;
        k := !smallest
      end
    done
  in
  (* ends release wires before starts claim them at identical timestamps *)
  let release_until time =
    while !heap_n > 0 && heap_stop.(1) <= time do
      List.iter (Bitset.add free) heap_wires.(1);
      heap_pop ()
    done
  in
  let take ~time ~core k =
    (* k lowest free wires, ascending — the greedy order the reference
       implementation realizes through [Int_set.min_elt_opt] *)
    let rec loop k acc =
      if k = 0 then List.rev acc
      else
        match Bitset.min_elt_opt free with
        | None -> raise (Capacity_exceeded { time; core; deficit = k })
        | Some w ->
          Bitset.remove free w;
          loop (k - 1) (w :: acc)
    in
    loop k []
  in
  List.init n (fun i ->
      let slice = slices.(i) in
      release_until slice.Schedule.start;
      let wires =
        take ~time:slice.Schedule.start ~core:slice.Schedule.core
          slice.Schedule.width
      in
      heap_push slice.Schedule.stop wires;
      { slice; wires })

let allocate_result sched =
  match allocate sched with
  | allocations -> Ok allocations
  | exception Capacity_exceeded { time; core; deficit } ->
    Error (time, core, deficit)

(* Event sweep over a running occupancy bitset: claims in start order,
   releases in stop order, merged so that every slice stopping at or
   before an instant releases its wires before any claim at that instant
   (slices are half-open, so touching intervals share wires legally);
   flag the first wire claimed while occupied. Both orders are index
   arrays sorted on plain int keys. Wires are offset by the minimum index
   so arbitrary hand-built allocations (negative or sparse wire ids, as
   property tests construct) stay in range. Replaces an O(n² · w²)
   [List.mem] pairwise scan that dominated audit time on large p3
   sweeps. *)
let is_disjoint allocations =
  (* empty slices ([stop <= start]) overlap nothing by definition *)
  let allocs =
    Array.of_list
      (List.filter
         (fun a -> a.slice.Schedule.start < a.slice.Schedule.stop)
         allocations)
  in
  let n = Array.length allocs in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun a ->
      List.iter
        (fun w ->
          if w < !lo then lo := w;
          if w > !hi then hi := w)
        a.wires)
    allocs;
  if !hi < !lo then true (* no wires anywhere *)
  else begin
    let base = !lo in
    let occupied = Bitset.create (!hi - base + 1) in
    let start = Array.map (fun a -> a.slice.Schedule.start) allocs in
    let stop = Array.map (fun a -> a.slice.Schedule.stop) allocs in
    let sorted_by key =
      let order = Array.init n Fun.id in
      Array.sort (fun i j -> Int.compare key.(i) key.(j)) order;
      order
    in
    let claims = sorted_by start and releases = sorted_by stop in
    let next_release = ref 0 and next_claim = ref 0 in
    let clash = ref false in
    while (not !clash) && !next_claim < n do
      let c = claims.(!next_claim) in
      if
        !next_release < n && stop.(releases.(!next_release)) <= start.(c)
      then begin
        List.iter
          (fun w -> Bitset.remove occupied (w - base))
          allocs.(releases.(!next_release)).wires;
        incr next_release
      end
      else begin
        (* check all, then claim all: a duplicate wire inside one
           slice's own list is not a cross-slice clash *)
        let wires = allocs.(c).wires in
        List.iter
          (fun w -> if Bitset.mem occupied (w - base) then clash := true)
          wires;
        if not !clash then
          List.iter (fun w -> Bitset.add occupied (w - base)) wires;
        incr next_claim
      end
    done;
    not !clash
  end
