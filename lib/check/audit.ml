module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Schedule = Soctest_tam.Schedule
module Wire_alloc = Soctest_tam.Wire_alloc
module Pareto = Soctest_wrapper.Pareto
module Wrapper_design = Soctest_wrapper.Wrapper_design
module Constraint_def = Soctest_constraints.Constraint_def
module Tester_image = Soctest_tester.Tester_image
module Volume = Soctest_core.Volume
module Obs = Soctest_obs.Obs

type spec = {
  constraints : Constraint_def.t;
  wmax : int;
  expect_tam_width : int option;
  require_complete : bool;
  pareto : Core_def.t -> Pareto.t;
}

let spec ?(wmax = 64) ?expect_tam_width ?(require_complete = true) ?pareto
    constraints =
  let pareto =
    match pareto with
    | Some lookup -> lookup
    | None -> fun core -> Pareto.compute core ~wmax
  in
  { constraints; wmax; expect_tam_width; require_complete; pareto }

type check =
  | Wire_occupancy
  | Width_constant
  | Pareto_width
  | Time_accounting
  | Capacity
  | Overlap
  | Precedence
  | Concurrency
  | Bist
  | Power
  | Preemption_budget
  | Completeness
  | Tam_width
  | Volume_totals
  | Tester_image
  | Unknown_core

let check_name = function
  | Wire_occupancy -> "wire-occupancy"
  | Width_constant -> "width-constant"
  | Pareto_width -> "pareto-width"
  | Time_accounting -> "time-accounting"
  | Capacity -> "capacity"
  | Overlap -> "overlap"
  | Precedence -> "precedence"
  | Concurrency -> "concurrency"
  | Bist -> "bist"
  | Power -> "power"
  | Preemption_budget -> "preemption-budget"
  | Completeness -> "completeness"
  | Tam_width -> "tam-width"
  | Volume_totals -> "volume-totals"
  | Tester_image -> "tester-image"
  | Unknown_core -> "unknown-core"

type violation = { check : check; detail : string }

type report = {
  violations : violation list;
  checks_run : int;
  cores_audited : int;
  slices_audited : int;
  makespan : int;
}

let ok r = r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" (check_name v.check) v.detail

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf
      "audit clean: %d check(s) over %d core(s), %d slice(s), makespan %d"
      r.checks_run r.cores_audited r.slices_audited r.makespan
  else begin
    Format.fprintf ppf "@[<v>audit found %d violation(s):"
      (List.length r.violations);
    List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v)
      r.violations;
    Format.fprintf ppf "@]"
  end

let audits_counter = Obs.counter "check.audits"
let violations_counter = Obs.counter "check.violations"

(* ------------------------------------------------------------------ *)

module Check_set = Set.Make (struct
  type t = check

  let compare = compare
end)

(* Accumulates violations in discovery order and remembers which checks
   actually ran, so a report can say "N checks passed" honestly even
   when some were skipped as unobservable (e.g. the tester image of a
   schedule that has no legal wire assignment). *)
type acc = {
  mutable found : violation list;
  mutable ran : Check_set.t;
}

let ran acc check = acc.ran <- Check_set.add check acc.ran

let fail acc check fmt =
  Format.kasprintf
    (fun detail ->
      ran acc check;
      acc.found <- { check; detail } :: acc.found)
    fmt

let run soc spec sched =
  Obs.with_span ~cat:"check" "audit.run"
    ~args:[ ("soc", soc.Soc_def.name) ]
  @@ fun () ->
  Obs.incr audits_counter;
  if spec.wmax < 1 then invalid_arg "Audit.run: wmax must be >= 1";
  let n = Soc_def.core_count soc in
  if spec.constraints.Constraint_def.core_count <> n then
    invalid_arg "Audit.run: constraints sized for a different SOC";
  let acc = { found = []; ran = Check_set.empty } in
  let slices = Array.of_list sched.Schedule.slices in
  let m = Array.length slices in
  let tam_width = sched.Schedule.tam_width in
  (* every derived quantity below is recomputed here, from the slice
     list alone — nothing is taken from solver bookkeeping *)
  let makespan =
    Array.fold_left
      (fun a (s : Schedule.slice) -> Int.max a s.Schedule.stop)
      0 slices
  in
  let busy_area =
    Array.fold_left
      (fun a (s : Schedule.slice) ->
        a + (s.Schedule.width * (s.Schedule.stop - s.Schedule.start)))
      0 slices
  in
  (* one grouping pass: every scheduled core's slices in start order,
     cores ascending *)
  let by_core = Schedule.index sched in
  let known c = c >= 1 && c <= n in
  let known_cores = List.filter (fun (c, _) -> known c) by_core in
  let unknown_cores =
    List.filter_map (fun (c, _) -> if known c then None else Some c) by_core
  in

  (* -- unknown-core: rogue ids are reported once and kept out of every
        check that dereferences the SOC -- *)
  ran acc Unknown_core;
  List.iter
    (fun c ->
      fail acc Unknown_core
        "slice refers to core %d; SOC %s defines cores 1..%d" c
        soc.Soc_def.name n)
    unknown_cores;

  (* -- tam-width: the schedule is for the TAM the caller asked for, and
        no single slice is wider than the whole TAM -- *)
  ran acc Tam_width;
  (match spec.expect_tam_width with
  | Some w when w <> tam_width ->
    fail acc Tam_width "schedule built for W=%d, expected W=%d" tam_width w
  | _ -> ());
  Array.iter
    (fun (s : Schedule.slice) ->
      if s.Schedule.width > tam_width then
        fail acc Tam_width "core %d slice width %d exceeds the TAM (W=%d)"
          s.Schedule.core s.Schedule.width tam_width)
    slices;

  (* -- interval sweep: the schedule is piecewise constant between slice
        boundaries, so checking each boundary instant checks every
        instant. Capacity, core overlap, power, concurrency and BIST
        exclusion all fall out of one merge of the start-sorted slices
        with their stop order: at each boundary every slice stopping
        there leaves before any slice starting there joins, and the
        used width, power and per-core active counts are kept
        incrementally. Capacity and power are re-checked at every
        boundary; an overlap or excluded pair can only begin where a
        slice starts, so those are checked against the joiners. -- *)
  ran acc Capacity;
  ran acc Overlap;
  ran acc Power;
  ran acc Concurrency;
  ran acc Bist;
  (* dense per-core slots: known core c at c-1, rogue ids after n in
     ascending order, so slot order is core-id order *)
  let rogue_slot = Hashtbl.create 8 in
  List.iteri (fun k c -> Hashtbl.replace rogue_slot c (n + k)) unknown_cores;
  let slot =
    Array.map
      (fun (s : Schedule.slice) ->
        let c = s.Schedule.core in
        if known c then c - 1 else Hashtbl.find rogue_slot c)
      slices
  in
  let core_of_slot k =
    if k < n then k + 1 else List.nth unknown_cores (k - n)
  in
  let power =
    Array.init n (fun k -> (Soc_def.core soc (k + 1)).Core_def.power)
  in
  let engine =
    Array.init n (fun k -> (Soc_def.core soc (k + 1)).Core_def.bist_engine)
  in
  let shares_engine a b =
    match (engine.(a), engine.(b)) with
    | Some e, Some e' -> e = e'
    | _ -> false
  in
  (* each core's concurrency-exclusion partners, by slot; memory stays
     linear in the cores and the constraint set's pair list *)
  let partners = Array.make n [] in
  List.iter
    (fun (a, b) ->
      partners.(a - 1) <- (b - 1) :: partners.(a - 1);
      partners.(b - 1) <- (a - 1) :: partners.(b - 1))
    spec.constraints.Constraint_def.concurrency;
  let excluded a b = List.mem b partners.(a) in
  let any_pair =
    spec.constraints.Constraint_def.concurrency <> []
    || Array.exists Option.is_some engine
  in
  (* a long illegal overlap is reported once, at the first instant the
     pair is caught *)
  let reported = Hashtbl.create 8 in
  let slots = n + List.length unknown_cores in
  let count = Array.make slots 0 in
  let overlap_seen = Array.make slots false in
  (* the known cores with at least one active slice, unordered *)
  let active = Array.make n 0 and active_pos = Array.make n 0 in
  let n_active = ref 0 in
  let by_stop = Array.init m Fun.id in
  Array.sort
    (fun i j ->
      Int.compare slices.(i).Schedule.stop slices.(j).Schedule.stop)
    by_stop;
  let next_start = ref 0 and next_stop = ref 0 in
  let used = ref 0 and power_used = ref 0 in
  while !next_stop < m do
    let stop_time = slices.(by_stop.(!next_stop)).Schedule.stop in
    let time =
      if !next_start < m then
        Int.min stop_time slices.(!next_start).Schedule.start
      else stop_time
    in
    while
      !next_stop < m && slices.(by_stop.(!next_stop)).Schedule.stop = time
    do
      let i = by_stop.(!next_stop) in
      let k = slot.(i) in
      used := !used - slices.(i).Schedule.width;
      count.(k) <- count.(k) - 1;
      if k < n then begin
        power_used := !power_used - power.(k);
        if count.(k) = 0 then begin
          decr n_active;
          let last = active.(!n_active) in
          active.(active_pos.(k)) <- last;
          active_pos.(last) <- active_pos.(k)
        end
      end;
      incr next_stop
    done;
    let joined = ref [] and doubled = ref [] in
    while !next_start < m && slices.(!next_start).Schedule.start = time do
      let i = !next_start in
      let k = slot.(i) in
      used := !used + slices.(i).Schedule.width;
      count.(k) <- count.(k) + 1;
      if count.(k) = 2 then doubled := k :: !doubled;
      if k < n then begin
        power_used := !power_used + power.(k);
        if count.(k) = 1 then begin
          active.(!n_active) <- k;
          active_pos.(k) <- !n_active;
          incr n_active;
          joined := k :: !joined
        end
      end;
      incr next_start
    done;
    if !used > tam_width then
      fail acc Capacity "%d wires in use at t=%d (W=%d)" !used time
        tam_width;
    List.iter
      (fun k ->
        if not overlap_seen.(k) then begin
          overlap_seen.(k) <- true;
          fail acc Overlap "core %d runs %d slices at once at t=%d"
            (core_of_slot k) count.(k) time
        end)
      (List.sort Int.compare !doubled);
    (match spec.constraints.Constraint_def.power_limit with
    | Some limit when !power_used > limit ->
      fail acc Power "power %d exceeds limit %d at t=%d" !power_used limit
        time
    | _ -> ());
    if any_pair && !joined <> [] then begin
      let found = ref [] in
      List.iter
        (fun a ->
          for j = 0 to !n_active - 1 do
            let b = active.(j) in
            if
              a <> b
              && (excluded a b || shares_engine a b)
              && not (Hashtbl.mem reported (Int.min a b, Int.max a b))
            then begin
              Hashtbl.add reported (Int.min a b, Int.max a b) ();
              found := (Int.min a b, Int.max a b) :: !found
            end
          done)
        !joined;
      List.iter
        (fun (a, b) ->
          if excluded a b then
            fail acc Concurrency "excluded cores %d and %d overlap at t=%d"
              (a + 1) (b + 1) time;
          if shares_engine a b then
            fail acc Bist "cores %d and %d share BIST engine %d at t=%d"
              (a + 1) (b + 1) (Option.get engine.(a)) time)
        (List.sort compare !found)
    end
  done;

  (* -- wire occupancy: an explicit fork/merge wire assignment must
        exist, and no wire may serve two overlapping slices -- *)
  ran acc Wire_occupancy;
  let allocations =
    match Wire_alloc.allocate sched with
    | allocations ->
      List.iter
        (fun { Wire_alloc.slice; wires } ->
          if List.length wires <> slice.Schedule.width then
            fail acc Wire_occupancy
              "core %d slice at t=%d got %d wires for width %d"
              slice.Schedule.core slice.Schedule.start (List.length wires)
              slice.Schedule.width;
          List.iter
            (fun w ->
              if w < 0 || w >= tam_width then
                fail acc Wire_occupancy
                  "core %d assigned wire %d outside 0..%d"
                  slice.Schedule.core w (tam_width - 1))
            wires)
        allocations;
      if not (Wire_alloc.is_disjoint allocations) then
        fail acc Wire_occupancy
          "two overlapping slices share a wire (allocator invariant \
           broken)";
      if not (Ref_alloc.is_disjoint allocations) then
        fail acc Wire_occupancy
          "reference pairwise check disagrees: overlapping slices share \
           a wire that the sweep-based check missed";
      (* differential: the independent set-based allocator must derive
         the exact same assignment, slice for slice, wire for wire *)
      (match Ref_alloc.allocate sched with
      | Error (time, core, deficit) ->
        fail acc Wire_occupancy
          "allocator divergence: bitset path found an assignment but the \
           reference allocator is short %d wire(s) for core %d at t=%d"
          deficit core time
      | Ok ref_allocations ->
        if
          not
            (List.equal
               (fun (a : Wire_alloc.allocation) (b : Wire_alloc.allocation) ->
                 a.Wire_alloc.slice = b.Wire_alloc.slice
                 && a.Wire_alloc.wires = b.Wire_alloc.wires)
               allocations ref_allocations)
        then
          fail acc Wire_occupancy
            "allocator divergence: bitset and reference paths assign \
             different wires to the same schedule");
      Some allocations
    | exception Wire_alloc.Capacity_exceeded { time; core; deficit } ->
      fail acc Wire_occupancy
        "no wire assignment exists: core %d short %d wire(s) at t=%d" core
        deficit time;
      (match Ref_alloc.allocate sched with
      | Error (rt, rc, rd) when (rt, rc, rd) = (time, core, deficit) -> ()
      | Error (rt, rc, rd) ->
        fail acc Wire_occupancy
          "allocator divergence: capacity errors disagree (bitset: core \
           %d short %d at t=%d; reference: core %d short %d at t=%d)"
          core deficit time rc rd rt
      | Ok _ ->
        fail acc Wire_occupancy
          "allocator divergence: reference allocator found an assignment \
           where the bitset path reported capacity exhaustion");
      None
  in

  (* -- per-core width discipline and cost accounting, over the one
        grouping pass -- *)
  ran acc Width_constant;
  let first_start = Array.make n 0 and finish = Array.make n 0 in
  let preemptions = Array.make n 0 in
  List.iter
    (fun (c, css) ->
      first_start.(c - 1) <- css.(0).Schedule.start;
      finish.(c - 1) <-
        Array.fold_left
          (fun a (s : Schedule.slice) -> Int.max a s.Schedule.stop)
          0 css;
      let preempts = Schedule.preemptions_in css in
      preemptions.(c - 1) <- preempts;
      let width = css.(0).Schedule.width in
      if
        Array.exists
          (fun (s : Schedule.slice) -> s.Schedule.width <> width)
          css
      then
        fail acc Width_constant "core %d changes width across slices (%s)" c
          (Array.to_list css
          |> List.map (fun (s : Schedule.slice) -> s.Schedule.width)
          |> List.sort_uniq compare
          |> List.map string_of_int
          |> String.concat ", ")
      else begin
        let core = Soc_def.core soc c in
        let p = spec.pareto core in
        ran acc Pareto_width;
        let effective = Pareto.effective_width p ~width in
        if effective <> width then
          fail acc Pareto_width
            "core %d uses width %d; effective Pareto width is %d (same \
             time, fewer wires)"
            c width effective;
        ran acc Time_accounting;
        let busy =
          Array.fold_left
            (fun a (s : Schedule.slice) ->
              a + (s.Schedule.stop - s.Schedule.start))
            0 css
        in
        let time = Pareto.time p ~width in
        (* the si+so restart cost only matters to a preempted core, or to
           word a violation *)
        if preempts > 0 || busy <> time then begin
          let d = Wrapper_design.design core ~width in
          let penalty = d.Wrapper_design.si + d.Wrapper_design.so in
          let expected = time + (preempts * penalty) in
          if busy <> expected then
            fail acc Time_accounting
              "core %d busy %d cycles; Pareto time %d + %d preemption(s) x \
               (si+so = %d) = %d"
              c busy time preempts penalty expected
        end
      end)
    known_cores;

  (* -- precedence: predecessor fully done before successor starts -- *)
  ran acc Precedence;
  let scheduled = Array.make n false in
  List.iter (fun (c, _) -> scheduled.(c - 1) <- true) known_cores;
  List.iter
    (fun (before, after) ->
      if scheduled.(after - 1) then begin
        let start = first_start.(after - 1) in
        if not scheduled.(before - 1) then
          fail acc Precedence
            "core %d starts at t=%d but predecessor %d is never scheduled"
            after start before
        else if start < finish.(before - 1) then
          fail acc Precedence
            "core %d starts at t=%d before predecessor %d finishes at t=%d"
            after start before finish.(before - 1)
      end)
    spec.constraints.Constraint_def.precedence;

  (* -- preemption budgets, with the si+so charge already verified by
        time accounting above -- *)
  ran acc Preemption_budget;
  List.iter
    (fun (c, _) ->
      let count = preemptions.(c - 1) in
      let limit = Constraint_def.max_preemptions_of spec.constraints c in
      if count > limit then
        fail acc Preemption_budget "core %d preempted %d time(s), limit %d"
          c count limit)
    known_cores;

  (* -- completeness -- *)
  if spec.require_complete then begin
    ran acc Completeness;
    for c = 1 to n do
      if not scheduled.(c - 1) then
        fail acc Completeness "core %d is never scheduled" c
    done
  end;

  (* -- tester data volume: the Volume and Tester_image modules must
        agree with totals re-derived from the slice list -- *)
  ran acc Volume_totals;
  let volume = Volume.of_schedule sched in
  if volume <> tam_width * makespan then
    fail acc Volume_totals "Volume.of_schedule = %d, expected W x makespan \
                            = %d x %d = %d"
      volume tam_width makespan (tam_width * makespan);
  if Schedule.total_busy_area sched <> busy_area then
    fail acc Volume_totals "Schedule.total_busy_area = %d, slice sum = %d"
      (Schedule.total_busy_area sched)
      busy_area;
  (match allocations with
  | None -> () (* no wire assignment: the image is not even defined *)
  | Some allocations ->
    ran acc Tester_image;
    let img = Tester_image.of_allocations sched allocations in
    if img.Tester_image.depth <> makespan then
      fail acc Tester_image "image depth %d <> makespan %d"
        img.Tester_image.depth makespan;
    if img.Tester_image.volume <> tam_width * makespan then
      fail acc Tester_image "image volume %d <> W x depth = %d"
        img.Tester_image.volume (tam_width * makespan);
    if img.Tester_image.useful <> busy_area then
      fail acc Tester_image "image useful bits %d <> schedule busy area %d"
        img.Tester_image.useful busy_area;
    if
      img.Tester_image.padding
      <> img.Tester_image.volume - img.Tester_image.useful
    then
      fail acc Tester_image "image padding %d <> volume - useful = %d"
        img.Tester_image.padding
        (img.Tester_image.volume - img.Tester_image.useful);
    if Array.length img.Tester_image.per_wire_busy <> tam_width then
      fail acc Tester_image "image has %d wire rows, TAM has %d"
        (Array.length img.Tester_image.per_wire_busy)
        tam_width;
    let per_wire_sum =
      Array.fold_left ( + ) 0 img.Tester_image.per_wire_busy
    in
    if per_wire_sum <> img.Tester_image.useful then
      fail acc Tester_image "per-wire busy sums to %d, useful is %d"
        per_wire_sum img.Tester_image.useful;
    Array.iteri
      (fun w busy ->
        if busy > makespan then
          fail acc Tester_image "wire %d busy %d cycles > makespan %d" w
            busy makespan)
      img.Tester_image.per_wire_busy);

  let violations = List.rev acc.found in
  Obs.add violations_counter (List.length violations);
  {
    violations;
    checks_run = Check_set.cardinal acc.ran;
    cores_audited = List.length known_cores;
    slices_audited = m;
    makespan;
  }

(* ------------------------------------------------------------------ *)

exception Failed of string * report

let () =
  Printexc.register_printer (function
    | Failed (source, report) ->
      Some (Format.asprintf "Audit.Failed in %s: %a" source pp_report report)
    | _ -> None)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "SOCTEST_AUDIT" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let enforce ~source soc spec sched =
  if enabled () then begin
    let report = run soc spec sched in
    if not (ok report) then begin
      Obs.instant ~cat:"check" "audit.failed"
        ~args:
          [
            ("source", source);
            ("violations", string_of_int (List.length report.violations));
          ];
      raise (Failed (source, report))
    end
  end
