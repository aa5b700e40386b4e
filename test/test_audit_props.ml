(* Property table for the auditor: one QCheck generator per named check,
   each synthesizing a minimal schedule violating exactly that invariant
   and asserting the check fires — and that nothing outside its
   documented co-fire set does. Complements test_audit.ml (which
   corrupts one real solver schedule): here the violating schedules are
   built from first principles, with randomized placement, widths and
   magnitudes.

   Three checks have no generator because they cannot be violated by
   schedule content alone: volume-totals and tester-image compare
   figures the auditor re-derives from the schedule it is given (they
   guard the Volume/Tester_image modules, not the schedule), and
   wire-occupancy alone is unreachable — any schedule the interval
   sweep admits also admits a concrete wire assignment, so it only ever
   co-fires with capacity/overlap. *)

module Audit = Soctest_check.Audit
module S = Soctest_tam.Schedule
module Schedule_io = Soctest_tam.Schedule_io
module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Constraint_def = Soctest_constraints.Constraint_def
module Pareto = Soctest_wrapper.Pareto
module Wrapper_design = Soctest_wrapper.Wrapper_design

let wmax = 16
let tam = 16
let soc2 = Test_helpers.soc2 ()
let unconstrained = Test_helpers.unconstrained soc2
let slice core width start stop = { S.core; width; start; stop }
let pareto soc c = Pareto.compute (Soc_def.core soc c) ~wmax
let time soc c ~width = Pareto.time (pareto soc c) ~width
let eff soc c width = Pareto.effective_width (pareto soc c) ~width

(* serial placement of [(core, width)] at Pareto-exact durations: clean
   by construction, the canvas each generator violates *)
let serial ?(tam_width = tam) ?(soc = soc2) ?(at = 0) placements =
  let stop, slices =
    List.fold_left
      (fun (t, acc) (c, w) ->
        let d = time soc c ~width:w in
        (t + d, slice c w t (t + d) :: acc))
      (at, []) placements
  in
  ignore stop;
  S.make ~tam_width ~slices

let spec ?expect_tam_width ?require_complete ?(constraints = unconstrained)
    () =
  Audit.spec ~wmax ?expect_tam_width ?require_complete constraints

let fired (r : Audit.report) =
  List.sort_uniq compare
    (List.map (fun (v : Audit.violation) -> v.Audit.check) r.Audit.violations)

(* the property every row asserts: [target] fires, co-fires only within
   [allowed] (which always contains [target]) *)
let exactly ?(soc = soc2) ~target ~allowed spec sched =
  let r =
    match Test_helpers.audit_vs_reference soc spec sched with
    | Ok r -> r
    | Error diff -> QCheck.Test.fail_report diff
  in
  let f = fired r in
  let name c = Audit.check_name c in
  if not (List.mem target f) then
    QCheck.Test.fail_reportf "expected %s to fire; fired: %s" (name target)
      (String.concat ", " (List.map name f));
  (match List.filter (fun c -> not (List.mem c allowed)) f with
  | [] -> ()
  | extra ->
    QCheck.Test.fail_reportf "%s co-fired outside its allowed set: %s"
      (name target)
      (String.concat ", " (List.map name extra)));
  true

let prop ?(count = 50) name arb f = QCheck.Test.make ~count ~name arb f

(* ---------------------------------------------------------------- *)
(* the table *)

let unknown_core =
  prop "unknown-core" QCheck.(pair (int_range 1 8) (int_range 0 100))
  @@ fun (rogue_offset, gap) ->
  let base = serial [ (1, eff soc2 1 4); (2, eff soc2 2 4) ] in
  let rogue = Soc_def.core_count soc2 + rogue_offset in
  let at = S.makespan base + gap in
  let sched =
    S.make ~tam_width:tam
      ~slices:(slice rogue 1 at (at + 1) :: base.S.slices)
  in
  exactly ~target:Audit.Unknown_core ~allowed:[ Audit.Unknown_core ]
    (spec ()) sched

let tam_width =
  prop "tam-width" QCheck.(int_range 1 8)
  @@ fun k ->
  let sched = serial [ (1, eff soc2 1 4); (2, eff soc2 2 4) ] in
  exactly ~target:Audit.Tam_width ~allowed:[ Audit.Tam_width ]
    (spec ~expect_tam_width:(tam + k) ())
    sched

let completeness =
  prop "completeness" QCheck.(int_range 1 2)
  @@ fun missing ->
  let kept = if missing = 1 then 2 else 1 in
  let sched = serial [ (kept, eff soc2 kept 4) ] in
  exactly ~target:Audit.Completeness ~allowed:[ Audit.Completeness ]
    (spec ()) sched

let width_constant =
  (* split one core's test into back-to-back halves of differing widths:
     no idle gap, but the one-width-per-core discipline is broken. Width
     disagreement stops the per-core audit before its Pareto/time
     checks, so nothing co-fires. *)
  prop "width-constant" QCheck.(pair (int_range 1 4) (int_range 1 4))
  @@ fun (w1, bump) ->
  let w1 = eff soc2 1 w1 in
  let t1 = time soc2 1 ~width:w1 in
  QCheck.assume (t1 >= 2);
  let mid = t1 / 2 in
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w1 0 mid;
          slice 1 (w1 + bump) mid t1;
          slice 2 (eff soc2 2 4) t1 (t1 + time soc2 2 ~width:(eff soc2 2 4));
        ]
  in
  exactly ~target:Audit.Width_constant ~allowed:[ Audit.Width_constant ]
    (spec ()) sched

let pareto_width =
  (* run a core at an ineffective width (a flat step of its staircase:
     same time, more wires) for exactly its Pareto time — time
     accounting is clean, only effectiveness is violated *)
  prop "pareto-width" QCheck.(int_range 0 1000)
  @@ fun pick ->
  let p = pareto soc2 1 in
  let ineffective =
    List.filter
      (fun w -> Pareto.effective_width p ~width:w <> w)
      (List.init (wmax - 1) (fun i -> i + 2))
  in
  QCheck.assume (ineffective <> []);
  let w = List.nth ineffective (pick mod List.length ineffective) in
  let sched =
    serial [ (1, w); (2, eff soc2 2 4) ]
  in
  exactly ~target:Audit.Pareto_width ~allowed:[ Audit.Pareto_width ]
    (spec ()) sched

let time_accounting =
  prop "time-accounting" QCheck.(pair (int_range 1 4) (int_range 1 50))
  @@ fun (w, extra) ->
  let w = eff soc2 1 w in
  let t = time soc2 1 ~width:w in
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w 0 (t + extra);
          slice 2 (eff soc2 2 4) (t + extra)
            (t + extra + time soc2 2 ~width:(eff soc2 2 4));
        ]
  in
  exactly ~target:Audit.Time_accounting ~allowed:[ Audit.Time_accounting ]
    (spec ()) sched

let capacity =
  (* both cores at once on a TAM barely too narrow: the width sum
     overflows, and with it no conflict-free wire assignment exists —
     wire-occupancy is the documented co-fire *)
  prop "capacity" QCheck.(pair (int_range 2 6) (int_range 2 6))
  @@ fun (w1, w2) ->
  let w1 = eff soc2 1 w1 and w2 = eff soc2 2 w2 in
  let narrow = max w1 w2 in
  QCheck.assume (w1 + w2 > narrow);
  let sched =
    S.make ~tam_width:narrow
      ~slices:
        [
          slice 1 w1 0 (time soc2 1 ~width:w1);
          slice 2 w2 0 (time soc2 2 ~width:w2);
        ]
  in
  exactly ~target:Audit.Capacity
    ~allowed:[ Audit.Capacity; Audit.Wire_occupancy ]
    (spec ()) sched

let overlap =
  (* the same core running twice at once (a duplicated slice): its busy
     total doubles (time-accounting) and both copies claim wires
     (capacity / wire-occupancy at narrow widths) *)
  prop "overlap" QCheck.(int_range 1 4)
  @@ fun w ->
  let w = eff soc2 1 w in
  let t = time soc2 1 ~width:w in
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w 0 t;
          slice 1 w 0 t;
          slice 2 (eff soc2 2 4) t (t + time soc2 2 ~width:(eff soc2 2 4));
        ]
  in
  exactly ~target:Audit.Overlap
    ~allowed:
      [
        Audit.Overlap; Audit.Time_accounting; Audit.Capacity;
        Audit.Wire_occupancy;
      ]
    (spec ()) sched

let precedence =
  prop "precedence" QCheck.(pair (int_range 1 4) (int_range 1 4))
  @@ fun (w1, w2) ->
  let w1 = eff soc2 1 w1 and w2 = eff soc2 2 w2 in
  let constraints =
    Constraint_def.make ~core_count:2 ~precedence:[ (1, 2) ] ()
  in
  (* 2 fully before 1 — the forbidden order, serial so nothing else *)
  let sched = serial [ (2, w2); (1, w1) ] in
  exactly ~target:Audit.Precedence ~allowed:[ Audit.Precedence ]
    (spec ~constraints ()) sched

let concurrency =
  prop "concurrency" QCheck.(pair (int_range 1 4) (int_range 1 4))
  @@ fun (w1, w2) ->
  let w1 = eff soc2 1 w1 and w2 = eff soc2 2 w2 in
  QCheck.assume (w1 + w2 <= tam);
  let constraints =
    Constraint_def.make ~core_count:2 ~concurrency:[ (1, 2) ] ()
  in
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w1 0 (time soc2 1 ~width:w1);
          slice 2 w2 0 (time soc2 2 ~width:w2);
        ]
  in
  exactly ~target:Audit.Concurrency ~allowed:[ Audit.Concurrency ]
    (spec ~constraints ()) sched

(* SOC variants for the checks the auditor derives from the design
   itself (shared BIST) or from core power ratings *)
let bist_soc =
  Soc_def.make ~name:"bist2"
    ~cores:
      [
        Test_helpers.core ~bist:1 1 "a";
        Test_helpers.core ~bist:1 ~scan:[ 16 ] ~patterns:10 2 "b";
      ]
    ()

let bist =
  (* shared-BIST exclusion comes from the SOC description, not the
     constraint set: overlap two cores of the same engine under an
     unconstrained spec and only the bist check may fire *)
  prop "bist" QCheck.(pair (int_range 1 4) (int_range 1 4))
  @@ fun (w1, w2) ->
  let eff c w = Pareto.effective_width (pareto bist_soc c) ~width:w in
  let w1 = eff 1 w1 and w2 = eff 2 w2 in
  QCheck.assume (w1 + w2 <= tam);
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w1 0 (time bist_soc 1 ~width:w1);
          slice 2 w2 0 (time bist_soc 2 ~width:w2);
        ]
  in
  exactly ~soc:bist_soc ~target:Audit.Bist ~allowed:[ Audit.Bist ]
    (spec
       ~constraints:(Constraint_def.unconstrained ~core_count:2)
       ())
    sched

let power_soc p1 p2 =
  Soc_def.make ~name:"power2"
    ~cores:
      [
        Test_helpers.core ~power:p1 1 "a";
        Test_helpers.core ~power:p2 ~scan:[ 16 ] ~patterns:10 2 "b";
      ]
    ()

let power =
  prop "power" QCheck.(triple (int_range 5 20) (int_range 5 20) (int_range 1 4))
  @@ fun (p1, p2, short) ->
  let soc = power_soc p1 p2 in
  (* each core alone fits the limit; together they do not *)
  let limit = p1 + p2 - min short (min p1 p2) in
  QCheck.assume (limit >= max p1 p2);
  let eff c w = Pareto.effective_width (pareto soc c) ~width:w in
  let w1 = eff 1 4 and w2 = eff 2 4 in
  QCheck.assume (w1 + w2 <= tam);
  let constraints =
    Constraint_def.make ~core_count:2 ~power_limit:limit ()
  in
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w1 0 (time soc 1 ~width:w1);
          slice 2 w2 0 (time soc 2 ~width:w2);
        ]
  in
  exactly ~soc ~target:Audit.Power ~allowed:[ Audit.Power ]
    (spec ~constraints ()) sched

let preemption_budget =
  (* split a core across a real idle gap, padding its busy time by
     exactly one si+so restart so the time accounting stays clean — the
     only broken invariant is the zero-preemption budget *)
  prop "preemption-budget"
    QCheck.(triple (int_range 1 4) (int_range 1 200) (int_range 1 500))
  @@ fun (w, gap, cut) ->
  let w = eff soc2 1 w in
  let core = Soc_def.core soc2 1 in
  let d = Wrapper_design.design core ~width:w in
  let penalty = d.Wrapper_design.si + d.Wrapper_design.so in
  let total = time soc2 1 ~width:w + penalty in
  QCheck.assume (total >= 2);
  let a = 1 + (cut mod (total - 1)) in
  let b = total - a in
  let sched =
    S.make ~tam_width:tam
      ~slices:
        [
          slice 1 w 0 a;
          slice 1 w (a + gap) (a + gap + b);
          slice 2 (eff soc2 2 4)
            (a + gap + b)
            (a + gap + b + time soc2 2 ~width:(eff soc2 2 4));
        ]
  in
  (* default budgets are all zero: one real preemption is one too many *)
  exactly ~target:Audit.Preemption_budget
    ~allowed:[ Audit.Preemption_budget ]
    (spec ()) sched

(* ---------------------------------------------------------------- *)
(* text-level fuzz: corrupted Schedule_io round-trips must either be
   rejected by the parser or audited without an exception — the same
   path `soctest check` and POST /v1/check walk *)

let base_text =
  Schedule_io.to_string (serial [ (1, eff soc2 1 4); (2, eff soc2 2 4) ])

let mutate rand text =
  let n = String.length text in
  if n = 0 then text
  else
    match rand 5 with
    | 0 ->
      (* delete a byte *)
      let i = rand n in
      String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
    | 1 ->
      (* insert a byte from the format's alphabet *)
      let alphabet = "0123456789 Schedulice\n-" in
      let i = rand (n + 1) in
      String.sub text 0 i
      ^ String.make 1 alphabet.[rand (String.length alphabet)]
      ^ String.sub text i (n - i)
    | 2 ->
      (* overwrite a digit with another digit *)
      let b = Bytes.of_string text in
      let i = rand n in
      if Bytes.get b i >= '0' && Bytes.get b i <= '9' then
        Bytes.set b i (Char.chr (Char.code '0' + rand 10));
      Bytes.to_string b
    | 3 ->
      (* duplicate a line *)
      let lines = String.split_on_char '\n' text in
      let i = rand (List.length lines) in
      String.concat "\n"
        (List.concat (List.mapi (fun k l -> if k = i then [ l; l ] else [ l ]) lines))
    | _ ->
      (* swap two bytes *)
      let b = Bytes.of_string text in
      let i = rand n and j = rand n in
      let ci = Bytes.get b i in
      Bytes.set b i (Bytes.get b j);
      Bytes.set b j ci;
      Bytes.to_string b

let text_fuzz =
  prop ~count:500 "schedule-io text fuzz never crashes the audit"
    QCheck.(pair small_nat (int_range 1 6))
  @@ fun (seed, rounds) ->
  let st = Random.State.make [| seed; 0x5eed |] in
  let rand n = Random.State.int st n in
  let text = ref base_text in
  for _ = 1 to rounds do
    text := mutate rand !text
  done;
  (match Schedule_io.of_string !text with
  | exception Schedule_io.Parse_error _ -> ()
  | sched ->
    (* whatever parsed must audit without raising; violations are the
       expected answer for a corrupted schedule *)
    match
      Test_helpers.audit_vs_reference soc2 (spec ~require_complete:false ())
        sched
    with
    | Ok r -> ignore (Audit.ok r)
    | Error diff -> QCheck.Test.fail_report diff);
  true

let () =
  let suite =
    List.map QCheck_alcotest.to_alcotest
      [
        unknown_core; tam_width; completeness; width_constant; pareto_width;
        time_accounting; capacity; overlap; precedence; concurrency; bist;
        power; preemption_budget; text_fuzz;
      ]
  in
  Alcotest.run "audit_props" [ ("per-check property table", suite) ]
