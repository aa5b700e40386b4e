module Pareto = Soctest_wrapper.Pareto

type report = {
  result : Optimizer.result;
  initial_time : int;
  rounds : int;
  evaluations : int;
}

(* neighbouring Pareto widths of [w] for this core: one step down, one
   step up (within the TAM) *)
let neighbours pareto ~tam_width w =
  let ws = Pareto.pareto_widths pareto in
  let smaller =
    List.filter (fun x -> x < w) ws
    |> List.fold_left (fun acc x -> max acc x) 0
  in
  let larger =
    List.filter (fun x -> x > w && x <= tam_width) ws
    |> List.fold_left (fun acc x -> if acc = 0 then x else min acc x) 0
  in
  List.filter (fun x -> x > 0) [ smaller; larger ]

let polish ?(max_rounds = 10) ?(budget = Budget.unlimited)
    ?(eval : Optimizer.evaluator = Optimizer.run_request) prepared ~tam_width
    ~constraints seed =
  if max_rounds < 0 then invalid_arg "Improve.polish: negative max_rounds";
  if seed.Optimizer.widths = [] then
    invalid_arg "Improve.polish: seed has no width assignment";
  Soctest_obs.Obs.with_span ~cat:"phase" "improve.polish" @@ fun () ->
  let params = seed.Optimizer.params in
  let req = Optimizer.request ~params ~tam_width ~constraints () in
  let evaluations = ref 0 in
  let eval overrides =
    incr evaluations;
    Budget.note_eval budget;
    eval ~overrides prepared req
  in
  let best = ref seed in
  let widths = ref seed.Optimizer.widths in
  let rounds = ref 0 in
  let improved = ref true in
  (* the neighbour pair of a (core, width) point is fixed for the whole
     polish; cache it across rounds, which revisit the same points *)
  let neighbour_cache : (int * int, int list) Hashtbl.t = Hashtbl.create 32 in
  let neighbours_of core w =
    match Hashtbl.find_opt neighbour_cache (core, w) with
    | Some ns -> ns
    | None ->
      let ns = neighbours (Optimizer.pareto_of prepared core) ~tam_width w in
      Hashtbl.add neighbour_cache (core, w) ns;
      ns
  in
  while !improved && !rounds < max_rounds && not (Budget.exhausted budget) do
    improved := false;
    incr rounds;
    List.iter
      (fun (core, w) ->
        List.iter
          (fun w' ->
            if not (Budget.exhausted budget) then
              let overrides =
                (core, w') :: List.remove_assoc core !widths
              in
              match eval overrides with
              | candidate ->
                if
                  candidate.Optimizer.testing_time
                  < !best.Optimizer.testing_time
                then begin
                  best := candidate;
                  widths := candidate.Optimizer.widths;
                  improved := true
                end
              | exception Optimizer.Infeasible _ -> ())
          (neighbours_of core w))
      !widths
  done;
  {
    result = !best;
    initial_time = seed.Optimizer.testing_time;
    rounds = !rounds;
    evaluations = !evaluations;
  }

let best_with_polish ?max_rounds ?budget ?eval prepared ~tam_width
    ~constraints () =
  let seed =
    Optimizer.best_over_params ?budget ?eval prepared ~tam_width
      ~constraints ()
  in
  polish ?max_rounds ?budget ?eval prepared ~tam_width ~constraints seed
