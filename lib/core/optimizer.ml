module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Pareto = Soctest_wrapper.Pareto
module Wrapper_design = Soctest_wrapper.Wrapper_design
module Schedule = Soctest_tam.Schedule
module Constraint_def = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module Obs = Soctest_obs.Obs

type params = {
  wmax : int;
  percent : int;
  delta : int;
  insert_slack : int;
  widen : bool;
}

let default_params =
  { wmax = 64; percent = 5; delta = 1; insert_slack = 3; widen = true }

type prepared = { soc : Soc_def.t; wmax : int; paretos : Pareto.t array }

let prepare_via compute ?(wmax = 64) soc =
  if wmax < 1 then invalid_arg "Optimizer.prepare: wmax must be >= 1";
  Obs.with_span ~cat:"phase" "wrapper.pareto"
    ~args:[ ("soc", soc.Soc_def.name); ("wmax", string_of_int wmax) ]
  @@ fun () ->
  let paretos = Array.map (fun core -> compute core ~wmax) soc.Soc_def.cores in
  { soc; wmax; paretos }

let prepare ?wmax soc =
  prepare_via (fun core ~wmax -> Pareto.compute core ~wmax) ?wmax soc

let pareto_of prepared id = prepared.paretos.(id - 1)
let soc_of prepared = prepared.soc
let wmax_of prepared = prepared.wmax

let src = Logs.Src.create "soctest.optimizer" ~doc:"TAM schedule optimizer"

module Log = (val Logs.src_log src : Logs.LOG)

let runs_counter = Obs.counter "optimizer.runs"
let grid_cells_counter = Obs.counter "optimizer.grid_cells"
let preemptions_counter = Obs.counter "tam.preemptions"

exception Infeasible of string

type result = {
  schedule : Schedule.t;
  testing_time : int;
  widths : (int * int) list;
  preemptions : (int * int) list;
  params : params;
}

(* ------------------------------------------------------------------ *)

let check_params (params : params) =
  if params.wmax < 1 then invalid_arg "Optimizer: wmax must be >= 1";
  if params.percent < 0 then invalid_arg "Optimizer: percent must be >= 0";
  if params.delta < 0 then invalid_arg "Optimizer: delta must be >= 0";
  if params.insert_slack < 0 then
    invalid_arg "Optimizer: insert_slack must be >= 0"

(* Preferred width, clamped so that the core can actually be scheduled on a
   TAM of [tam_width] wires (Fig. 5 plus a feasibility clamp). *)
let preferred_width pareto ~params ~tam_width =
  let pref =
    Pareto.preferred_width pareto ~percent:params.percent
      ~delta:params.delta
  in
  if pref <= tam_width then pref
  else
    (* largest Pareto width that fits; Pareto sets always contain 1 *)
    List.fold_left
      (fun acc w -> if w <= tam_width then max acc w else acc)
      1
      (Pareto.pareto_widths pareto)

(* Extra cycles charged when a test resumes after a gap: one wasted
   scan-out of the interrupted state plus the scan-in to restore it. *)
let preemption_penalty (core : Core_def.t) ~width =
  let d = Wrapper_design.design core ~width in
  d.Wrapper_design.si + d.Wrapper_design.so

let run ?(overrides = []) prepared ~tam_width ~constraints ~params =
  check_params params;
  if tam_width < 1 then
    invalid_arg "Optimizer.run: tam_width must be >= 1";
  if
    constraints.Constraint_def.core_count
    <> Soc_def.core_count prepared.soc
  then invalid_arg "Optimizer.run: constraints core_count mismatch";
  let soc = prepared.soc in
  let n = Soc_def.core_count soc in
  List.iter
    (fun (id, w) ->
      if id < 1 || id > n then
        invalid_arg "Optimizer.run: override core id out of range";
      if w < 1 || w > tam_width then
        invalid_arg "Optimizer.run: override width out of range")
    overrides;
  Obs.incr runs_counter;
  Obs.with_span ~cat:"phase" "tam.schedule"
    ~args:
      [
        ("percent", string_of_int params.percent);
        ("delta", string_of_int params.delta);
      ]
  @@ fun () ->
  let pareto id = prepared.paretos.(id - 1) in
  (* Initialize (Fig. 5): preferred widths and initial remaining times;
     explicit overrides (snapped to the Pareto set) replace the
     percent/delta heuristic — the hook the local-search Improver uses *)
  let prefs =
    Array.init n (fun k ->
        let p = pareto (k + 1) in
        let w =
          match List.assoc_opt (k + 1) overrides with
          | Some forced -> Pareto.effective_width p ~width:forced
          | None -> preferred_width p ~params ~tam_width
        in
        (w, Pareto.time p ~width:w, 0))
  in
  let max_preempts =
    Array.init n (fun k ->
        Constraint_def.max_preemptions_of constraints (k + 1))
  in
  let st = Sched_state.create ~tam_width ~prefs ~max_preempts in
  Log.debug (fun m ->
      m "init W=%d prefs=[%s]" tam_width
        (String.concat ";"
           (Array.to_list
              (Array.mapi
                 (fun k (w, t, _) -> Printf.sprintf "%d:%d/%d" (k + 1) w t)
                 prefs))));
  let core_state id = Sched_state.core st id in
  let completed id = (core_state id).Sched_state.complete in
  (* Constraint context and per-core power are fixed for the whole solve;
     the running set lives in [st.running]/[st.running_power], maintained
     by [assign]/[update], so each admissibility check is scan-free. *)
  let ctx = Conflict.context soc constraints in
  let core_power =
    Array.init (n + 1) (fun id ->
        if id = 0 then 0 else (Soc_def.core soc id).Core_def.power)
  in
  let admissible id =
    match
      Conflict.admissible_ctx ctx ~completed ~running:st.Sched_state.running
        ~running_power:st.Sched_state.running_power ~candidate:id
    with
    | Ok () -> true
    | Error _ -> false
  in

  (* Assign (Fig. 6). [width] is a wire budget; we snap it down to the
     effective width (the wires actually worth connecting). *)
  let assign id ~width ~gap_resume =
    let c = core_state id in
    let p = pareto id in
    let width =
      if c.Sched_state.begun then width (* resumes keep their width *)
      else Pareto.effective_width p ~width
    in
    assert (width >= 1 && width <= st.Sched_state.w_avail);
    c.Sched_state.w_assigned <- width;
    c.Sched_state.scheduled <- true;
    Soctest_tam.Bitset.add st.Sched_state.running id;
    st.Sched_state.running_power <-
      st.Sched_state.running_power + core_power.(id);
    st.Sched_state.w_avail <- st.Sched_state.w_avail - width;
    if gap_resume then begin
      Obs.incr preemptions_counter;
      Obs.instant ~cat:"tam" "preempt"
        ~args:
          [
            ("core", string_of_int id);
            ("t", string_of_int st.Sched_state.curr_time);
          ];
      c.Sched_state.preempts <- c.Sched_state.preempts + 1;
      c.Sched_state.time_remaining <-
        c.Sched_state.time_remaining
        + preemption_penalty (Soc_def.core soc id) ~width
    end;
    if not c.Sched_state.begun then begin
      c.Sched_state.begun <- true;
      c.Sched_state.first_begin <- st.Sched_state.curr_time;
      c.Sched_state.time_remaining <- Pareto.time p ~width
    end;
    c.Sched_state.assign_start <- st.Sched_state.curr_time;
    c.Sched_state.end_time <-
      st.Sched_state.curr_time + c.Sched_state.time_remaining;
    Log.debug (fun m ->
        m "t=%d assign core %d width=%d remaining=%d avail=%d"
          st.Sched_state.curr_time id width c.Sched_state.time_remaining
          st.Sched_state.w_avail)
  in

  (* Candidate scans below use integer sentinels ([best_id = 0] = none
     yet) instead of option-folding closures: the loops run once per
     scheduling step per grid point and used to allocate a [Some key]
     per considered core. A strictly greater key displaces the incumbent;
     ties keep the lowest core id. [admissible] is always the last
     conjunct so the constraint machinery runs only for cores that pass
     the cheap width/state tests. *)

  (* Priority 1: begun cores out of preemption budget — must continue.
     Such a core is descheduled only at Update boundaries and rescheduled
     here first, so its resume is always contiguous (no gap, no charge);
     the [end_time = curr_time] guard makes that an enforced invariant
     rather than an assumption. *)
  let try_priority1 () =
    let best_id = ref 0 and best_key = ref min_int in
    for id = 1 to n do
      let c = core_state id in
      if
        (not c.Sched_state.complete)
        && (not c.Sched_state.scheduled)
        && c.Sched_state.begun
        && c.Sched_state.preempts >= c.Sched_state.max_preempts
        && c.Sched_state.end_time = st.Sched_state.curr_time
        && c.Sched_state.w_assigned <= st.Sched_state.w_avail
        && c.Sched_state.time_remaining > !best_key
        && admissible id
      then begin
        best_id := id;
        best_key := c.Sched_state.time_remaining
      end
    done;
    if !best_id = 0 then false
    else begin
      assign !best_id ~width:(core_state !best_id).Sched_state.w_assigned
        ~gap_resume:false;
      true
    end
  in

  (* Priorities 2 and 3 (Fig. 4 lines 7–12): after the protected cores,
     "all the incomplete tests contend for the available TAM width"
     (paper Sec. 4, Test preemption) — begun-but-preemptable tests (at
     their assigned width) and unstarted tests (at their preferred width)
     compete by largest remaining testing time. A begun test that loses
     the contention and is left without wires is thereby preempted; it
     resumes later, charged [si + so] extra cycles. *)
  let try_contend () =
    let best_id = ref 0 and best_key = ref min_int in
    for id = 1 to n do
      let c = core_state id in
      if (not c.Sched_state.complete) && not c.Sched_state.scheduled then begin
        let gap = c.Sched_state.end_time < st.Sched_state.curr_time in
        let width, budget_ok =
          if c.Sched_state.begun then
            ( c.Sched_state.w_assigned,
              (not gap) || c.Sched_state.preempts < c.Sched_state.max_preempts
            )
          else (c.Sched_state.w_pref, true)
        in
        if
          width <= st.Sched_state.w_avail && budget_ok
          && c.Sched_state.time_remaining > !best_key
          && admissible id
        then begin
          best_id := id;
          best_key := c.Sched_state.time_remaining
        end
      end
    done;
    if !best_id = 0 then false
    else begin
      let id = !best_id in
      let c = core_state id in
      if c.Sched_state.begun then begin
        let gap = c.Sched_state.end_time < st.Sched_state.curr_time in
        assign id ~width:c.Sched_state.w_assigned ~gap_resume:gap
      end
      else assign id ~width:c.Sched_state.w_pref ~gap_resume:false;
      true
    end
  in

  (* Idle-time rectangle insertion (Fig. 4 lines 13–14): an unstarted core
     whose preferred width is within [insert_slack] wires of what is left
     runs on the leftover wires. Smallest preferred width first. *)
  let try_insert () =
    let best_id = ref 0 and best_key = ref min_int in
    for id = 1 to n do
      let c = core_state id in
      if
        (not c.Sched_state.complete)
        && (not c.Sched_state.scheduled)
        && (not c.Sched_state.begun)
        && c.Sched_state.w_pref <= st.Sched_state.w_avail + params.insert_slack
        && -c.Sched_state.w_pref > !best_key
        && admissible id
      then begin
        best_id := id;
        best_key := -c.Sched_state.w_pref
      end
    done;
    if !best_id = 0 then false
    else begin
      assign !best_id ~width:st.Sched_state.w_avail ~gap_resume:false;
      true
    end
  in

  (* Width increase to fill idle wires (Fig. 4 lines 15–16): widen the
     just-started core that gains the most testing time. *)
  let try_widen () =
    let curr = st.Sched_state.curr_time in
    let best = ref None in
    for id = 1 to n do
      let c = core_state id in
      if
        c.Sched_state.scheduled
        && c.Sched_state.first_begin = curr
        && c.Sched_state.assign_start = curr
      then begin
        let p = pareto id in
        let budget = c.Sched_state.w_assigned + st.Sched_state.w_avail in
        let w_new = Pareto.effective_width p ~width:budget in
        if w_new > c.Sched_state.w_assigned then begin
          let gain =
            Pareto.time p ~width:c.Sched_state.w_assigned
            - Pareto.time p ~width:w_new
          in
          if gain > 0 then
            match !best with
            | Some (_, _, best_gain) when best_gain >= gain -> ()
            | _ -> best := Some (id, w_new, gain)
        end
      end
    done;
    match !best with
    | None -> false
    | Some (id, w_new, _) ->
      let c = core_state id in
      let p = pareto id in
      st.Sched_state.w_avail <-
        st.Sched_state.w_avail - (w_new - c.Sched_state.w_assigned);
      c.Sched_state.w_assigned <- w_new;
      c.Sched_state.time_remaining <- Pareto.time p ~width:w_new;
      c.Sched_state.end_time <- curr + c.Sched_state.time_remaining;
      true
  in

  (* Update (Fig. 8): advance to the earliest completion among running
     tests, deschedule everybody, credit elapsed time. *)
  let update () =
    (* two direct passes over the core array instead of materializing a
       running-id list: find the earliest completion, then retire *)
    let dt = ref max_int in
    for id = 1 to n do
      let c = core_state id in
      if c.Sched_state.scheduled && c.Sched_state.time_remaining < !dt then
        dt := c.Sched_state.time_remaining
    done;
    if !dt = max_int then
      raise
        (Infeasible
           (Printf.sprintf
              "no schedulable core at t=%d (check power limit vs core \
               powers and precedence/concurrency structure)"
              st.Sched_state.curr_time));
    let new_time = st.Sched_state.curr_time + !dt in
    for id = 1 to n do
      let c = core_state id in
      if c.Sched_state.scheduled then begin
        Sched_state.record_slice st id ~stop:new_time;
        c.Sched_state.scheduled <- false;
        c.Sched_state.end_time <- new_time;
        c.Sched_state.time_remaining <- c.Sched_state.time_remaining - !dt;
        if c.Sched_state.time_remaining = 0 then begin
          c.Sched_state.complete <- true;
          st.Sched_state.remaining <- st.Sched_state.remaining - 1
        end
      end
    done;
    Soctest_tam.Bitset.clear st.Sched_state.running;
    st.Sched_state.running_power <- 0;
    st.Sched_state.curr_time <- new_time;
    st.Sched_state.w_avail <- tam_width;
    Log.debug (fun m ->
        m "t=%d update: %d cores remaining" new_time st.Sched_state.remaining)
  in

  (* Main loop (Fig. 4). *)
  while Sched_state.incomplete_exists st do
    if st.Sched_state.w_avail > 0 then begin
      let progress =
        try_priority1 () || try_contend () || try_insert ()
        || (params.widen && try_widen ())
      in
      if not progress then st.Sched_state.w_avail <- 0
    end
    else update ()
  done;

  let schedule = Sched_state.to_schedule st in
  (* The optimizer never trusts its own bookkeeping: re-validate. *)
  (match Conflict.validate soc constraints schedule with
  | [] -> ()
  | v :: _ ->
    Format.kasprintf failwith "Optimizer bug: invalid schedule (%a)"
      Conflict.pp_violation v);
  (* one pass over the per-core index; validation above has already
     rejected width changes, so the first slice's width is the core's *)
  let by_core = Schedule.index schedule in
  let widths =
    List.map (fun (id, ss) -> (id, ss.(0).Schedule.width)) by_core
  in
  let preemptions =
    List.filter_map
      (fun (id, ss) ->
        match Schedule.preemptions_in ss with
        | 0 -> None
        | gaps -> Some (id, gaps))
      by_core
  in
  {
    schedule;
    testing_time = Schedule.makespan schedule;
    widths;
    preemptions;
    params;
  }

type request = {
  tam_width : int;
  constraints : Constraint_def.t;
  params : params;
}

let request ?(params = default_params) ~tam_width ~constraints () =
  { tam_width; constraints; params }

let run_request ?overrides prepared req =
  run ?overrides prepared ~tam_width:req.tam_width
    ~constraints:req.constraints ~params:req.params

type evaluator = ?overrides:(int * int) list -> prepared -> request -> result

let default_percents = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 15; 25; 40 ]
let default_deltas = [ 0; 1; 2; 4 ]
let default_slacks = [ 3; 8 ]
let default_widens = [ true; false ]

let grid_points ~wmax ?(percents = default_percents)
    ?(deltas = default_deltas) ?(slacks = default_slacks)
    ?(widens = default_widens) () =
  List.concat_map
    (fun percent ->
      List.concat_map
        (fun delta ->
          List.concat_map
            (fun insert_slack ->
              List.map
                (fun widen -> { wmax; percent; delta; insert_slack; widen })
                widens)
            slacks)
        deltas)
    percents

let best_over_params ?(budget = Budget.unlimited)
    ?(eval : evaluator = run_request) prepared ~tam_width ~constraints
    ?percents ?deltas ?slacks ?widens () =
  Obs.with_span ~cat:"phase" "optimizer.grid" @@ fun () ->
  let points =
    grid_points ~wmax:prepared.wmax ?percents ?deltas ?slacks ?widens ()
  in
  if points = [] then
    invalid_arg "Optimizer.best_over_params: empty parameter lists";
  let best = ref None in
  List.iter
    (fun params ->
      (* the first point always runs, so an already-expired budget still
         yields a valid incumbent *)
      if !best = None || not (Budget.exhausted budget) then begin
        Obs.incr grid_cells_counter;
        Budget.note_eval budget;
        let result =
          eval prepared (request ~params ~tam_width ~constraints ())
        in
        match !best with
        | Some r when r.testing_time <= result.testing_time -> ()
        | _ -> best := Some result
      end)
    points;
  Option.get !best
