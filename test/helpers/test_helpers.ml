(* Shared helpers for the test suites: tiny hand-checkable SOCs, QCheck
   generators for cores / SOCs / constraints, and common assertions. *)

module Core_def = Soctest_soc.Core_def
module Soc_def = Soctest_soc.Soc_def
module Schedule = Soctest_tam.Schedule
module Constraint_def = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module Optimizer = Soctest_core.Optimizer

let core ?(inputs = 8) ?(outputs = 8) ?(bidirs = 0) ?(scan = [ 10; 10 ])
    ?(patterns = 20) ?power ?bist id name =
  Core_def.make ~id ~name ~inputs ~outputs ~bidirs ~scan_chains:scan
    ~patterns ?power ?bist_engine:bist ()

let soc2 () =
  Soc_def.make ~name:"soc2"
    ~cores:[ core 1 "a"; core ~scan:[ 16 ] ~patterns:10 2 "b" ]
    ()

let mini4 () = Soctest_soc.Benchmarks.mini4 ()
let d695 () = Soctest_soc.Benchmarks.d695 ()

let unconstrained soc =
  Constraint_def.unconstrained ~core_count:(Soc_def.core_count soc)

(* ---------------- QCheck generators ---------------- *)

let gen_core id =
  let open QCheck.Gen in
  let* inputs = int_range 1 60 in
  let* outputs = int_range 1 60 in
  let* bidirs = int_range 0 8 in
  let* chain_count = int_range 0 8 in
  let* chains = list_repeat chain_count (int_range 1 80) in
  let* patterns = int_range 1 120 in
  return
    (Core_def.make ~id ~name:(Printf.sprintf "g%d" id) ~inputs ~outputs
       ~bidirs ~scan_chains:chains ~patterns ())

(* Cores past [gen_core]'s reach: enough chains that the wrapper packs
   several onto one wrapper chain, and enough terminals that the
   saturation width lies beyond typical TAM widths. *)
let gen_wide_core id =
  let open QCheck.Gen in
  let* chain_count = int_range 0 60 in
  let* chains = list_repeat chain_count (int_range 1 500) in
  let* inputs = int_range 0 400 in
  let* outputs = int_range 0 400 in
  let* bidirs = int_range 0 50 in
  let* patterns = int_range 1 500 in
  (* a core needs at least one terminal or scan chain *)
  let inputs =
    if chains = [] && inputs + outputs + bidirs = 0 then 1 else inputs
  in
  return
    (Core_def.make ~id ~name:(Printf.sprintf "w%d" id) ~inputs ~outputs
       ~bidirs ~scan_chains:chains ~patterns ())

let gen_soc =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* cores =
    flatten_l (List.init n (fun k -> gen_core (k + 1)))
  in
  return (Soc_def.make ~name:"gen" ~cores ())

let arb_soc =
  QCheck.make gen_soc ~print:(fun soc ->
      Format.asprintf "%a" Soc_def.pp soc)

(* A random precedence DAG (edges only from lower to higher id — always
   acyclic) plus a random preemption budget. *)
let gen_constraints soc =
  let open QCheck.Gen in
  let n = Soc_def.core_count soc in
  let* edges =
    if n < 2 then return []
    else
      let* count = int_range 0 (min 6 (n * (n - 1) / 2)) in
      list_repeat count
        (let* a = int_range 1 (n - 1) in
         let* b = int_range (a + 1) n in
         return (a, b))
  in
  let* budgets = list_repeat n (int_range 0 2) in
  let max_preemptions = List.mapi (fun k b -> (k + 1, b)) budgets in
  return (Constraint_def.make ~core_count:n ~precedence:edges ~max_preemptions ())

let gen_soc_with_constraints =
  let open QCheck.Gen in
  let* soc = gen_soc in
  let* constraints = gen_constraints soc in
  let* tam_width = int_range 1 48 in
  return (soc, constraints, tam_width)

let arb_soc_with_constraints =
  QCheck.make gen_soc_with_constraints ~print:(fun (soc, c, w) ->
      Format.asprintf "%a@.%a@.W=%d" Soc_def.pp soc Constraint_def.pp c w)

(* ---------------- oracles ---------------- *)

(* The raw testing-time staircase the slow way: one full wrapper design
   per width, as Pareto.compute built it before its one-pass kernel.
   The kernel must match it at every width. *)
let reference_staircase core ~wmax =
  Array.init wmax (fun k ->
      Soctest_wrapper.Wrapper_design.testing_time core ~width:(k + 1))

(* The constraint-blind exact optimum the slow way: the chronological,
   left-justified branch-and-bound of Pack.Bnb without its
   admissibility check, heuristic seed or lower-bound stop. Some optimal
   non-preemptive schedule starts every test at 0 or at a finish, so the
   search is exact; cores starting at one instant go in ascending id
   order. On a BIST- and hierarchy-free SOC under no constraints both
   searches cover the same schedules and must find the same makespan.
   No node limit: for SOCs of a handful of cores. *)
let reference_exact prepared ~tam_width =
  let module Pareto = Soctest_wrapper.Pareto in
  let n = Soc_def.core_count (Optimizer.soc_of prepared) in
  let pareto k = Optimizer.pareto_of prepared (k + 1) in
  let menus =
    Array.init n (fun k ->
        Pareto.rectangles (pareto k)
        |> List.filter (fun (w, _) -> w <= tam_width)
        |> List.sort (fun (a, _) (b, _) -> compare b a))
  in
  let min_area = Array.init n (fun k -> Pareto.min_area (pareto k)) in
  let min_time =
    Array.init n (fun k -> Pareto.time (pareto k) ~width:tam_width)
  in
  let unstarted = Array.make n true in
  let best = ref max_int in
  (* [placed]: (finish, width) of every started test *)
  let rec search t min_id placed =
    let running = List.filter (fun (f, _) -> f > t) placed in
    let used = List.fold_left (fun a (_, w) -> a + w) 0 running in
    let makespan = List.fold_left (fun a (f, _) -> max a f) 0 placed in
    let area =
      ref (List.fold_left (fun a (f, w) -> a + ((f - t) * w)) 0 running)
    in
    let slowest = ref 0 in
    Array.iteri
      (fun k u ->
        if u then begin
          area := !area + min_area.(k);
          slowest := max !slowest min_time.(k)
        end)
      unstarted;
    let lower =
      max makespan
        (max (t + ((!area + tam_width - 1) / tam_width)) (t + !slowest))
    in
    if lower < !best then
      if Array.for_all not unstarted then best := makespan
      else begin
        for k = min_id to n - 1 do
          if unstarted.(k) then
            List.iter
              (fun (w, time) ->
                if w <= tam_width - used then begin
                  unstarted.(k) <- false;
                  search t (k + 1) ((t + time, w) :: placed);
                  unstarted.(k) <- true
                end)
              menus.(k)
        done;
        match List.map fst running with
        | [] -> ()
        | f :: fs -> search (List.fold_left min f fs) 0 placed
      end
  in
  search 0 0 [];
  !best

(* The schedule auditor the slow way: [Audit.run] as it was before its
   one-sweep rewrite, kept verbatim (minus its Obs span and counters) as
   the differential oracle. Capacity, overlap, power, concurrency and
   BIST re-filter every slice at every boundary; each core's slices are
   rescanned per check. The rewrite must return an equal report, up to
   the order of [Overlap] violations found at one instant (this one
   lists them in Hashtbl order). *)
module Reference_audit = struct
  module Audit = Soctest_check.Audit
  module Ref_alloc = Soctest_check.Ref_alloc
  module Wire_alloc = Soctest_tam.Wire_alloc
  module Pareto = Soctest_wrapper.Pareto
  module Wrapper_design = Soctest_wrapper.Wrapper_design
  module Tester_image = Soctest_tester.Tester_image
  module Volume = Soctest_core.Volume
  open Audit

  module Check_set = Set.Make (struct
    type t = check

    let compare = compare
  end)

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

  let run soc (spec : Audit.spec) sched =
    if spec.wmax < 1 then invalid_arg "Audit.run: wmax must be >= 1";
    let n = Soc_def.core_count soc in
    if spec.constraints.Constraint_def.core_count <> n then
      invalid_arg "Audit.run: constraints sized for a different SOC";
    let acc = { found = []; ran = Check_set.empty } in
    let slices = sched.Schedule.slices in
    let tam_width = sched.Schedule.tam_width in
    (* every derived quantity below is recomputed here, from the slice
       list alone — nothing is taken from solver bookkeeping *)
    let makespan =
      List.fold_left (fun m (s : Schedule.slice) -> max m s.Schedule.stop) 0
        slices
    in
    let busy_area =
      List.fold_left
        (fun a (s : Schedule.slice) ->
          a + (s.Schedule.width * (s.Schedule.stop - s.Schedule.start)))
        0 slices
    in
    let scheduled_cores = Schedule.cores sched in
    let known c = c >= 1 && c <= n in
    let known_cores = List.filter known scheduled_cores in

    (* -- unknown-core: rogue ids are reported once and kept out of every
          check that dereferences the SOC -- *)
    ran acc Unknown_core;
    List.iter
      (fun c ->
        if not (known c) then
          fail acc Unknown_core
            "slice refers to core %d; SOC %s defines cores 1..%d" c
            soc.Soc_def.name n)
      scheduled_cores;

    (* -- tam-width: the schedule is for the TAM the caller asked for, and
          no single slice is wider than the whole TAM -- *)
    ran acc Tam_width;
    (match spec.expect_tam_width with
    | Some w when w <> tam_width ->
      fail acc Tam_width "schedule built for W=%d, expected W=%d" tam_width w
    | _ -> ());
    List.iter
      (fun (s : Schedule.slice) ->
        if s.Schedule.width > tam_width then
          fail acc Tam_width "core %d slice width %d exceeds the TAM (W=%d)"
            s.Schedule.core s.Schedule.width tam_width)
      slices;

    (* -- interval sweep: the schedule is piecewise constant between slice
          boundaries, so checking each boundary instant checks every
          instant. Capacity, core overlap, power, concurrency and BIST
          exclusion all fall out of the same active sets. -- *)
    let boundaries =
      List.concat_map
        (fun (s : Schedule.slice) -> [ s.Schedule.start; s.Schedule.stop ])
        slices
      |> List.sort_uniq compare
    in
    ran acc Capacity;
    ran acc Overlap;
    ran acc Power;
    ran acc Concurrency;
    ran acc Bist;
    (* a long illegal overlap spans many boundaries: report each offending
       pair (or core) once, at the first instant it is caught *)
    let seen_overlap = Hashtbl.create 8 in
    let seen_pair = Hashtbl.create 8 in
    let shares_bist a b =
      match
        ( (Soc_def.core soc a).Core_def.bist_engine,
          (Soc_def.core soc b).Core_def.bist_engine )
      with
      | Some ea, Some eb when ea = eb -> Some ea
      | _ -> None
    in
    List.iter
      (fun time ->
        let active =
          List.filter
            (fun (s : Schedule.slice) ->
              s.Schedule.start <= time && time < s.Schedule.stop)
            slices
        in
        let used =
          List.fold_left (fun a (s : Schedule.slice) -> a + s.Schedule.width)
            0 active
        in
        if used > tam_width then
          fail acc Capacity "%d wires in use at t=%d (W=%d)" used time
            tam_width;
        (* per-core multiplicity in the active set *)
        let by_core = Hashtbl.create 8 in
        List.iter
          (fun (s : Schedule.slice) ->
            let c = s.Schedule.core in
            let k = try Hashtbl.find by_core c with Not_found -> 0 in
            Hashtbl.replace by_core c (k + 1))
          active;
        Hashtbl.iter
          (fun c k ->
            if k > 1 && not (Hashtbl.mem seen_overlap c) then begin
              Hashtbl.add seen_overlap c ();
              fail acc Overlap "core %d runs %d slices at once at t=%d" c k
                time
            end)
          by_core;
        (match spec.constraints.Constraint_def.power_limit with
        | None -> ()
        | Some limit ->
          let power =
            List.fold_left
              (fun a (s : Schedule.slice) ->
                if known s.Schedule.core then
                  a + (Soc_def.core soc s.Schedule.core).Core_def.power
                else a)
              0 active
          in
          if power > limit then
            fail acc Power "power %d exceeds limit %d at t=%d" power limit
              time);
        let active_cores =
          List.filter known (List.map (fun s -> s.Schedule.core) active)
          |> List.sort_uniq compare
        in
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
            List.iter
              (fun b ->
                if
                  Constraint_def.excluded spec.constraints a b
                  && not (Hashtbl.mem seen_pair (`Conc, a, b))
                then begin
                  Hashtbl.add seen_pair (`Conc, a, b) ();
                  fail acc Concurrency
                    "excluded cores %d and %d overlap at t=%d" a b time
                end;
                match shares_bist a b with
                | Some engine when not (Hashtbl.mem seen_pair (`Bist, a, b))
                  ->
                  Hashtbl.add seen_pair (`Bist, a, b) ();
                  fail acc Bist
                    "cores %d and %d share BIST engine %d at t=%d" a b engine
                    time
                | _ -> ())
              rest;
            pairs rest
        in
        pairs active_cores)
      boundaries;

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

    (* -- per-core width discipline and cost accounting -- *)
    ran acc Width_constant;
    List.iter
      (fun c ->
        let css = Schedule.slices_of_core sched c in
        let widths =
          List.map (fun (s : Schedule.slice) -> s.Schedule.width) css
          |> List.sort_uniq compare
        in
        match widths with
        | [] -> ()
        | [ width ] ->
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
            List.fold_left
              (fun a (s : Schedule.slice) ->
                a + (s.Schedule.stop - s.Schedule.start))
              0 css
          in
          let preempts = Schedule.preemptions sched c in
          let d = Wrapper_design.design core ~width in
          let penalty = d.Wrapper_design.si + d.Wrapper_design.so in
          let expected =
            Pareto.time p ~width + (preempts * penalty)
          in
          if busy <> expected then
            fail acc Time_accounting
              "core %d busy %d cycles; Pareto time %d + %d preemption(s) x \
               (si+so = %d) = %d"
              c busy (Pareto.time p ~width) preempts penalty expected
        | widths ->
          fail acc Width_constant "core %d changes width across slices (%s)"
            c
            (String.concat ", " (List.map string_of_int widths)))
      known_cores;

    (* -- precedence: predecessor fully done before successor starts -- *)
    ran acc Precedence;
    List.iter
      (fun (before, after) ->
        match
          (Schedule.core_finish sched before, Schedule.core_start sched after)
        with
        | Some fin, Some start when start < fin ->
          fail acc Precedence
            "core %d starts at t=%d before predecessor %d finishes at t=%d"
            after start before fin
        | None, Some start ->
          fail acc Precedence
            "core %d starts at t=%d but predecessor %d is never scheduled"
            after start before
        | _ -> ())
      spec.constraints.Constraint_def.precedence;

    (* -- preemption budgets, with the si+so charge already verified by
          time accounting above -- *)
    ran acc Preemption_budget;
    List.iter
      (fun c ->
        let count = Schedule.preemptions sched c in
        let limit = Constraint_def.max_preemptions_of spec.constraints c in
        if count > limit then
          fail acc Preemption_budget "core %d preempted %d time(s), limit %d"
            c count limit)
      known_cores;

    (* -- completeness -- *)
    if spec.require_complete then begin
      ran acc Completeness;
      for c = 1 to n do
        if not (List.mem c known_cores) then
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
    | Some _ ->
      ran acc Tester_image;
      let img = Tester_image.of_schedule sched in
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
    {
      violations;
      checks_run = Check_set.cardinal acc.ran;
      cores_audited = List.length known_cores;
      slices_audited = List.length slices;
      makespan;
    }
end

let reference_audit = Reference_audit.run

(* [Audit.run] against [reference_audit]: [Ok report] when the two
   reports are equal up to the order of [Overlap] violations found at
   one instant, else [Error] with both reports. *)
let audit_vs_reference soc spec sched =
  let module Audit = Soctest_check.Audit in
  let instant (v : Audit.violation) =
    Scanf.sscanf v.Audit.detail "core %d runs %d slices at once at t=%d"
      (fun core _ t -> (t, core))
  in
  (* each maximal run of consecutive overlap violations, in (instant,
     core) order *)
  let rec normalize = function
    | [] -> []
    | (v : Audit.violation) :: _ as vs when v.Audit.check = Audit.Overlap ->
      let rec split run = function
        | (v : Audit.violation) :: rest when v.Audit.check = Audit.Overlap ->
          split (v :: run) rest
        | rest -> (run, rest)
      in
      let run, rest = split [] vs in
      List.sort (fun a b -> compare (instant a) (instant b)) run
      @ normalize rest
    | v :: rest -> v :: normalize rest
  in
  let norm (r : Audit.report) =
    { r with Audit.violations = normalize r.Audit.violations }
  in
  let got = Audit.run soc spec sched in
  let want = reference_audit soc spec sched in
  if norm got = norm want then Ok got
  else
    Error
      (Format.asprintf
         "audit differs from the reference on@.%a@.audit: %a@.reference: %a"
         Schedule.pp sched Audit.pp_report got Audit.pp_report want)

(* ---------------- assertions ---------------- *)

let check_valid_schedule ?(msg = "schedule valid") soc constraints sched =
  match Conflict.validate soc constraints sched with
  | [] -> ()
  | violations ->
    Alcotest.failf "%s: %s" msg
      (String.concat "; "
         (List.map
            (Format.asprintf "%a" Conflict.pp_violation)
            violations))

let check_complete ?(msg = "all cores scheduled") soc sched =
  let want = List.init (Soc_def.core_count soc) (fun k -> k + 1) in
  Alcotest.(check (list int)) msg want (Schedule.cores sched)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i =
    i + n <= h && (String.sub haystack i n = needle || loop (i + 1))
  in
  n = 0 || loop 0

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arb prop)

(* ---------------- Prometheus text-format lint ---------------- *)

(* Validate one exposition-format sample line:
   name{key="value",...} value. Pure string work, shared by the Prom
   unit tests and the live GET /metrics test. *)
let prom_lint_sample line =
  let n = String.length line in
  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let is_name_char c = is_name_start c || (c >= '0' && c <= '9') in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  if !i = 0 || not (is_name_start line.[0]) then Error "bad metric name"
  else begin
    let status = ref (Ok ()) in
    let err msg = status := Error msg in
    (if !i < n && line.[!i] = '{' then begin
       incr i;
       let fin = ref false in
       while (not !fin) && !status = Ok () do
         if !i >= n then err "unterminated label set"
         else if line.[!i] = '}' then begin
           incr i;
           fin := true
         end
         else begin
           let k0 = !i in
           while !i < n && is_name_char line.[!i] do
             incr i
           done;
           if !i = k0 then err "empty label name"
           else if !i >= n || line.[!i] <> '=' then err "label missing '='"
           else begin
             incr i;
             if !i >= n || line.[!i] <> '"' then err "label value not quoted"
             else begin
               incr i;
               let vfin = ref false in
               while (not !vfin) && !status = Ok () do
                 if !i >= n then err "unterminated label value"
                 else
                   match line.[!i] with
                   | '"' ->
                     incr i;
                     vfin := true
                   | '\\' ->
                     if !i + 1 >= n then err "dangling backslash"
                     else begin
                       (match line.[!i + 1] with
                       | '\\' | '"' | 'n' -> ()
                       | _ -> err "bad escape in label value");
                       i := !i + 2
                     end
                   | _ -> incr i
               done;
               if !status = Ok () then
                 if !i < n && line.[!i] = ',' then incr i
                 else if !i < n && line.[!i] = '}' then ()
                 else if !i >= n then err "unterminated label set"
                 else err "expected ',' or '}' after label"
             end
           end
         end
       done
     end);
    match !status with
    | Error _ as e -> e
    | Ok () ->
      if !i >= n || line.[!i] <> ' ' then Error "expected space before value"
      else begin
        let value = String.sub line (!i + 1) (n - !i - 1) in
        match value with
        | "+Inf" | "-Inf" | "NaN" -> Ok ()
        | v -> (
          match float_of_string_opt v with
          | Some _ -> Ok ()
          | None -> Error (Printf.sprintf "bad sample value %S" v))
      end
  end

(* Validate a whole /metrics body: every line is blank, a
   `# TYPE name kind` / `# HELP ...` comment, or a well-formed sample.
   The error carries the first offending line. *)
let prom_lint text =
  let lint_line line =
    if String.trim line = "" then Ok ()
    else if String.length line > 0 && line.[0] = '#' then begin
      match String.split_on_char ' ' line with
      | "#" :: "TYPE" :: _ :: [ kind ]
        when List.mem kind
               [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ] ->
        Ok ()
      | "#" :: "HELP" :: _ :: _ -> Ok ()
      | _ -> Error "malformed comment (want # TYPE name kind or # HELP)"
    end
    else prom_lint_sample line
  in
  let rec go ln = function
    | [] -> Ok ()
    | line :: rest -> (
      match lint_line line with
      | Ok () -> go (ln + 1) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s: %S" ln msg line))
  in
  go 1 (String.split_on_char '\n' text)

(* The value of one counter in a /metrics body, by its exposition name
   (e.g. "soctest_engine_cache_eval_hits"); [None] when absent. Obs
   counters are process-wide, so callers diff a reading taken before
   the action they check against one taken after. *)
let prom_counter text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.rindex_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           Option.map int_of_float
             (float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)
