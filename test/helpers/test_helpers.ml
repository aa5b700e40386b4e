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
