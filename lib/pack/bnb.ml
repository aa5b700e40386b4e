module Optimizer = Soctest_core.Optimizer
module Lower_bound = Soctest_core.Lower_bound
module Budget = Soctest_core.Budget
module Schedule = Soctest_tam.Schedule
module Constraint_def = Soctest_constraints.Constraint_def
module Conflict = Soctest_constraints.Conflict
module Soc_def = Soctest_soc.Soc_def
module Core_def = Soctest_soc.Core_def
module Pareto = Soctest_wrapper.Pareto
module Obs = Soctest_obs.Obs

type outcome = {
  schedule : Schedule.t;
  testing_time : int;
  optimal : bool;
  nodes : int;
  lower_bound : int;
}

type placed = { core : int; width : int; start : int; finish : int }

exception Out_of_budget
exception Proven  (* incumbent met the lower bound: search is over *)

let nodes_counter = Obs.counter "pack.bnb_nodes"

let solve ?(budget = Budget.unlimited) ?(node_limit = 2_000_000) prepared
    ~tam_width ~constraints =
  if tam_width < 1 then invalid_arg "Bnb.solve: tam_width must be >= 1";
  if node_limit < 1 then invalid_arg "Bnb.solve: node_limit must be >= 1";
  Obs.with_span ~cat:"pack" "exact-bnb" @@ fun () ->
  let soc = Optimizer.soc_of prepared in
  let n = Soc_def.core_count soc in
  let menus =
    Array.init n (fun k ->
        let p = Optimizer.pareto_of prepared (k + 1) in
        Pareto.rectangles p
        |> List.filter (fun (w, _) -> w <= tam_width)
        |> List.sort (fun (a, _) (b, _) -> compare b a))
  in
  let min_area =
    Array.init n (fun k ->
        Pareto.min_area (Optimizer.pareto_of prepared (k + 1)))
  in
  let min_time =
    Array.init n (fun k ->
        Pareto.time (Optimizer.pareto_of prepared (k + 1)) ~width:tam_width)
  in
  let power =
    Array.init n (fun k -> (Soc_def.core soc (k + 1)).Core_def.power)
  in
  let lower_bound =
    Lower_bound.compute_constrained prepared ~tam_width ~constraints
  in
  (* heuristic incumbent: a legal schedule to fall back on, an upper
     bound that makes pruning bite immediately — and the place where a
     globally infeasible instance raises [Optimizer.Infeasible] *)
  let seed =
    Optimizer.run prepared ~tam_width ~constraints
      ~params:Optimizer.default_params
  in
  let best_time = ref seed.Optimizer.testing_time in
  let best_schedule = ref [] in
  let nodes = ref 0 in
  let unstarted = Array.make n true in
  let rec search t min_id placed =
    if !nodes >= node_limit then raise Out_of_budget;
    incr nodes;
    if !nodes land 255 = 0 then Obs.add nodes_counter 256;
    (* polled on the first node too, so a budget that is already spent
       stops the search before it expands anything *)
    if (!nodes = 1 || !nodes land 255 = 0) && Budget.exhausted budget then
      raise Out_of_budget;
    let running = List.filter (fun p -> p.finish > t) placed in
    let used = List.fold_left (fun a p -> a + p.width) 0 running in
    let makespan_so_far =
      List.fold_left (fun a p -> max a p.finish) 0 placed
    in
    let busy_after_t =
      List.fold_left (fun a p -> a + ((p.finish - t) * p.width)) 0 running
    in
    let rest_area = ref busy_after_t in
    let slowest_rest = ref 0 in
    Array.iteri
      (fun k u ->
        if u then begin
          rest_area := !rest_area + min_area.(k);
          slowest_rest := max !slowest_rest min_time.(k)
        end)
      unstarted;
    let lower =
      max makespan_so_far
        (max
           (t + ((!rest_area + tam_width - 1) / tam_width))
           (if !slowest_rest = 0 then 0 else t + !slowest_rest))
    in
    if lower < !best_time then
      if Array.for_all not unstarted then begin
        best_time := makespan_so_far;
        best_schedule := placed;
        if !best_time <= lower_bound then raise Proven
      end
      else begin
        let completed id =
          List.exists (fun p -> p.core = id && p.finish <= t) placed
        in
        let running_view =
          List.map
            (fun p -> { Conflict.core = p.core; power = power.(p.core - 1) })
            running
        in
        (* branch 1: start an admissible core (id >= min_id — cores
           starting at the same instant are explored in ascending id
           order, which loses no schedules since same-instant
           admissibility is order-independent) *)
        for k = min_id to n - 1 do
          if
            unstarted.(k)
            && Result.is_ok
                 (Conflict.admissible soc constraints ~completed
                    ~running:running_view ~candidate:(k + 1))
          then
            List.iter
              (fun (width, time) ->
                if width <= tam_width - used then begin
                  unstarted.(k) <- false;
                  search t (k + 1)
                    ({ core = k + 1; width; start = t; finish = t + time }
                    :: placed);
                  unstarted.(k) <- true
                end)
              menus.(k)
        done;
        (* branch 2: close the start set at t, jump to the next finish
           event — start instants other than 0 and finish events are
           dominated (any schedule left-shifts onto them) *)
        match
          List.fold_left
            (fun acc p ->
              match acc with
              | None -> Some p.finish
              | Some f -> Some (min f p.finish))
            None running
        with
        | Some next when next > t -> search next 0 placed
        | _ -> ()
      end
  in
  let exhausted =
    if !best_time <= lower_bound then true
    else
      match search 0 0 [] with
      | () -> true
      | exception Proven -> true
      | exception Out_of_budget -> false
  in
  Obs.add nodes_counter (!nodes land 255);
  let schedule, testing_time =
    if !best_schedule = [] then (seed.Optimizer.schedule, !best_time)
    else
      ( Schedule.make ~tam_width
          ~slices:
            (List.map
               (fun p ->
                 { Schedule.core = p.core; width = p.width; start = p.start;
                   stop = p.finish })
               !best_schedule),
        !best_time )
  in
  let non_preemptive =
    let ok = ref true in
    for id = 1 to n do
      if Constraint_def.max_preemptions_of constraints id > 0 then ok := false
    done;
    !ok
  in
  (* an exhausted non-preemptive search proves optimality only when
     preemption is forbidden; meeting the lower bound proves it always *)
  let optimal = (exhausted && non_preemptive) || !best_time <= lower_bound in
  { schedule; testing_time; optimal; nodes = !nodes; lower_bound }
