module Obs = Soctest_obs.Obs
module Clock = Soctest_obs.Clock

type status =
  | Done of { testing_time : int }
  | Failed of string
  | Skipped

type report = {
  index : int;
  name : string;
  kind : Strategy.kind;
  status : status;
  elapsed_ms : float;
  iterations : int;
  incumbent_after : int option;
}

type t = {
  winner : Strategy.solution;
  winner_name : string;
  winner_index : int;
  reports : report list;
  wall_ms : float;
  jobs : int;
}

exception No_solution of string

(* What a task hands back through the pool: enough to report on, and the
   solution itself for winner selection. *)
type task_result =
  | R_done of Strategy.outcome * int  (* incumbent right after finishing *)
  | R_skipped

(* Returns [true] when [time] strictly improved the incumbent (i.e. our
   CAS installed it), so the caller can emit one event per improvement. *)
let fold_incumbent incumbent time =
  let rec loop () =
    let current = Atomic.get incumbent in
    if time >= current then false
    else if Atomic.compare_and_set incumbent current time then true
    else loop ()
  in
  loop ()

let message_of_exn = function
  | Strategy.Rejected msg -> "rejected: " ^ msg
  | Failure msg -> msg
  | Invalid_argument msg -> msg
  | Soctest_core.Optimizer.Infeasible msg -> "infeasible: " ^ msg
  | Soctest_check.Audit.Failed (source, report) ->
    Format.asprintf "audit failed (%s): %a" source
      Soctest_check.Audit.pp_report report
  | Soctest_tam.Wire_alloc.Capacity_exceeded { time; core; deficit } ->
    Printf.sprintf
      "wire allocation failed: core %d short %d wire(s) at t=%d" core
      deficit time
  | e -> Printexc.to_string e

let run ?jobs ?deadline_ms ?(budget = Soctest_core.Budget.unlimited)
    strategies =
  let jobs =
    match jobs with
    | Some j -> if j < 1 then invalid_arg "Portfolio.run: jobs < 1" else j
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  (match deadline_ms with
  | Some d when d < 0. -> invalid_arg "Portfolio.run: deadline_ms < 0"
  | _ -> ());
  let started = Clock.now_ms () in
  let past_deadline () =
    Soctest_core.Budget.exhausted budget
    ||
    match deadline_ms with
    | None -> false
    | Some d -> Clock.now_ms () -. started >= d
  in
  let incumbent = Atomic.make max_int in
  let thunks =
    List.map
      (fun (s : Strategy.t) () ->
        if past_deadline () then R_skipped
        else
          Obs.with_span ~cat:"strategy" s.Strategy.name
          @@ fun () ->
          let outcome = s.Strategy.run () in
          let time = outcome.Strategy.solution.Strategy.testing_time in
          if fold_incumbent incumbent time then
            Obs.instant ~cat:"portfolio" "incumbent.improved"
              ~args:
                [
                  ("strategy", s.Strategy.name);
                  ("testing_time", string_of_int time);
                ];
          R_done (outcome, Atomic.get incumbent))
      strategies
  in
  let outcomes =
    Obs.with_span ~cat:"phase" "portfolio.race"
      ~args:
        [
          ("strategies", string_of_int (List.length strategies));
          ("jobs", string_of_int jobs);
        ]
    @@ fun () ->
    Pool.with_pool ~jobs (fun pool -> Pool.run_all pool thunks)
  in
  let wall_ms = Float.max 0. (Clock.now_ms () -. started) in
  let entries =
    List.mapi
      (fun index ((s : Strategy.t), (o : task_result Pool.outcome)) ->
        let status, iterations, incumbent_after, solution =
          match o.Pool.value with
          | Ok (R_done (outcome, inc)) ->
            ( Done
                {
                  testing_time =
                    outcome.Strategy.solution.Strategy.testing_time;
                },
              outcome.Strategy.iterations,
              Some inc,
              Some outcome.Strategy.solution )
          | Ok R_skipped -> (Skipped, 0, None, None)
          | Error we -> (Failed (message_of_exn we.Pool.exn), 0, None, None)
        in
        ( {
            index;
            name = s.Strategy.name;
            kind = s.Strategy.kind;
            status;
            elapsed_ms = o.Pool.elapsed_ms;
            iterations;
            incumbent_after;
          },
          solution ))
      (List.combine strategies outcomes)
  in
  let reports = List.map fst entries in
  (* Deterministic selection: strictly better makespan wins, so the
     earliest-registered strategy keeps ties regardless of which domain
     finished first. *)
  let winner =
    List.fold_left
      (fun best (report, solution) ->
        match (solution, best) with
        | None, _ -> best
        | Some s, None -> Some (report, s)
        | Some s, Some (_, b) ->
          if s.Strategy.testing_time < b.Strategy.testing_time then
            Some (report, s)
          else best)
      None entries
  in
  match winner with
  | Some (report, solution) ->
    {
      winner = solution;
      winner_name = report.name;
      winner_index = report.index;
      reports;
      wall_ms;
      jobs;
    }
  | None ->
    let count pred = List.length (List.filter pred reports) in
    raise
      (No_solution
         (Printf.sprintf
            "no strategy produced a schedule (%d failed, %d skipped of %d)"
            (count (fun r ->
                 match r.status with Failed _ -> true | _ -> false))
            (count (fun r -> r.status = Skipped))
            (List.length reports)))
