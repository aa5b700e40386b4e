(* Output checks on the daemon's answers, run after the timed phase so
   they add nothing to its latency. *)

module Json = Soctest_obs.Json
module Protocol = Soctest_serve.Protocol
module Engine = Soctest_engine.Engine
module Audit = Soctest_check.Audit
module Lower_bound = Soctest_core.Lower_bound
module Constraint_def = Soctest_constraints.Constraint_def
module Schedule_io = Soctest_tam.Schedule_io

(* The constraint set the daemon solves a request under. *)
let constraints (req : Protocol.solve_request) =
  match req.Protocol.problem with
  | Protocol.P1 ->
    Constraint_def.empty
      ~core_count:(Soctest_soc.Soc_def.core_count req.Protocol.soc)
  | Protocol.P2 | Protocol.P3 ->
    let max_preemptions =
      match req.Protocol.preempt with
      | Some limit -> Soctest_engine.Flow.preemption_budget req.Protocol.soc ~limit
      | None -> []
    in
    Constraint_def.of_soc req.Protocol.soc ?power_limit:req.Protocol.power_limit
      ~max_preemptions ()

let decode body =
  match Protocol.solve_request_of_body body with
  | Ok r -> r
  | Error e -> failwith ("benchmark sent an invalid body: " ^ e)

type verdict = {
  makespans : int list;  (** one per schedule (P3: per swept width) *)
  gap_pct : float;  (** mean makespan above the constrained lower bound *)
  failure : string option;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let int_at path j =
  match Option.bind (Json.member_path path j) Json.to_int with
  | Some i -> i
  | None -> bad "response lacks %s" (String.concat "." path)

let gap ~lb t = if lb > 0 then 100. *. float_of_int (t - lb) /. float_of_int lb else 0.

(* Audit verdicts by (request body, schedule text): a hit workload gets
   the same schedule back for a key many times over. *)
type memo = (string * string, Audit.report) Hashtbl.t

let memo () : memo = Hashtbl.create 256

(* Re-derive everything an answer claims: the audit verdict, the
   makespan against a fresh [Audit.run], and the makespan against
   [Lower_bound.compute_constrained]. *)
let check engine memo ~body ~status ~response =
  let req = decode body in
  let c = constraints req in
  let soc = req.Protocol.soc and wmax = req.Protocol.wmax in
  let prepared = Engine.prepare engine ~wmax soc in
  let bound w = Lower_bound.compute_constrained prepared ~tam_width:w ~constraints:c in
  try
    if status <> 200 then bad "status %d" status;
    let j =
      match Json.parse response with Ok j -> j | Error e -> bad "response: %s" e
    in
    match req.Protocol.problem with
    | Protocol.P1 | Protocol.P2 ->
      let w = req.Protocol.tam_width in
      if Json.member_path [ "audit"; "clean" ] j <> Some (Json.Bool true) then
        bad "dirty audit";
      let t = int_at [ "result"; "testing_time" ] j in
      let text =
        match Json.member_path [ "result"; "schedule_text" ] j with
        | Some (Json.String s) -> s
        | _ -> bad "response lacks result.schedule_text"
      in
      let report =
        match Hashtbl.find_opt memo (body, text) with
        | Some r -> r
        | None ->
          let sched =
            try Schedule_io.of_string text
            with Schedule_io.Parse_error _ -> bad "unparseable schedule"
          in
          let r = Audit.run soc (Engine.audit_spec engine ~wmax ~expect_tam_width:w c) sched in
          Hashtbl.replace memo (body, text) r;
          r
      in
      if not (Audit.ok report) then bad "schedule fails Audit.run";
      if report.Audit.makespan <> t then
        bad "testing_time %d but the schedule ends at %d" t report.Audit.makespan;
      let lb = bound w in
      if t < lb then bad "makespan %d below lower bound %d" t lb;
      if int_at [ "result"; "lower_bound" ] j <> lb then bad "lower_bound mismatch";
      { makespans = [ t ]; gap_pct = gap ~lb t; failure = None }
    | Protocol.P3 ->
      let points =
        match Json.member "points" j with
        | Some (Json.List ps) -> ps
        | _ -> bad "response lacks points"
      in
      let max_width = Option.value req.Protocol.max_width ~default:req.Protocol.tam_width in
      if List.length points <> max_width then bad "%d points" (List.length points);
      let times =
        List.mapi
          (fun i p ->
            let w = i + 1 in
            let t = int_at [ "time" ] p in
            if int_at [ "width" ] p <> w then bad "point %d out of order" w;
            if int_at [ "volume" ] p <> w * t then bad "volume at W=%d" w;
            if Json.member "status" p <> Some (Json.String "complete") then
              bad "incomplete sweep point at W=%d" w;
            if t < bound w then bad "makespan below lower bound at W=%d" w;
            t)
          points
      in
      {
        makespans = times;
        gap_pct =
          Solvebench.Stats.mean (List.mapi (fun i t -> gap ~lb:(bound (i + 1)) t) times);
        failure = None;
      }
  with Bad reason -> { makespans = []; gap_pct = 0.; failure = Some reason }
