(* The async job store behind POST /v1/solve?mode=async.

   A job is the server-side continuation of a request whose client
   declined to wait: admission already happened (a job holds an
   admission slot until it finishes), the solve runs on a dispatch
   worker, and the rendered response body is parked here for the client
   to collect via GET /v1/jobs/<id>. The store is bounded two ways:
   [capacity] caps retained entries (a full store rejects new
   submissions rather than growing without bound), and [ttl_ms] evicts
   finished entries lazily — every public operation sweeps expired
   entries first, so an abandoned job's result does not outlive its TTL
   by more than the gap to the next store operation.

   Cancellation is cooperative, like every deadline in this codebase:
   DELETE on a queued job finishes it immediately (the dispatch worker
   later finds it finished and releases the slot without solving);
   DELETE on a running job cancels its {!Budget}, which the engine
   polls between evaluations — the solve winds down to its incumbent,
   and [finish] records the job cancelled instead of done, discarding
   the result. *)

module Budget = Soctest_core.Budget
module Obs = Soctest_obs.Obs
module Clock = Soctest_obs.Clock

type outcome = { status : int; body : string }

type state = Queued | Running | Done of outcome | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done _ -> "done"
  | Cancelled -> "cancelled"

type entry = {
  id : string;
  request_id : string;
  budget : Budget.t;
  submitted_at : float;  (* monotonic ms *)
  mutable state : state;
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable cancel_requested : bool;
}

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  order : string Queue.t;  (* submission order, the eviction scan order *)
  capacity : int;
  ttl_ms : float;
}

(* Job-state population gauges, labelled the {!Soctest_obs.Prom} way so
   they land as one Prometheus series per state. *)
let state_g name = Obs.gauge (Printf.sprintf "serve.jobs{state=%S}" name)
let queued_g = state_g "queued"
let running_g = state_g "running"
let done_g = state_g "done"
let cancelled_g = state_g "cancelled"

let gauge_of = function
  | Queued -> queued_g
  | Running -> running_g
  | Done _ -> done_g
  | Cancelled -> cancelled_g

let submitted_c = Obs.counter "serve.jobs_submitted"
let evicted_c = Obs.counter "serve.jobs_evicted"
let rejected_full_c = Obs.counter "serve.jobs_rejected_full"

let set_state e s =
  Obs.add_gauge (gauge_of e.state) (-1.);
  Obs.add_gauge (gauge_of s) 1.;
  e.state <- s

let default_capacity = 256
let default_ttl_ms = 300_000.

let create ?(capacity = default_capacity) ?(ttl_ms = default_ttl_ms) () =
  if capacity < 1 then invalid_arg "Jobs.create: capacity must be >= 1";
  if ttl_ms < 0. then invalid_arg "Jobs.create: negative ttl_ms";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    order = Queue.create ();
    capacity;
    ttl_ms;
  }

let capacity t = t.capacity
let ttl_ms t = t.ttl_ms

(* ------------------------------------------------------------------ *)
(* internals (caller holds the lock) *)

let finished e =
  match e.state with Done _ | Cancelled -> true | Queued | Running -> false

let expired t now e =
  match e.finished_at with
  | Some at -> now -. at >= t.ttl_ms
  | None -> false

let drop t e =
  Obs.add_gauge (gauge_of e.state) (-1.);
  Obs.incr evicted_c;
  Hashtbl.remove t.table e.id

(* Rebuild [order] while dropping expired entries; [extra] additionally
   drops at most one not-yet-expired finished entry (capacity
   pressure: the oldest finished result makes room for a new job). *)
let sweep ?(extra = false) t =
  let now = Clock.now_ms () in
  let keep = Queue.create () in
  let extra_left = ref extra in
  Queue.iter
    (fun id ->
      match Hashtbl.find_opt t.table id with
      | None -> ()  (* already dropped on an earlier sweep *)
      | Some e ->
        if expired t now e then drop t e
        else if !extra_left && finished e then begin
          extra_left := false;
          drop t e
        end
        else Queue.push id keep)
    t.order;
  Queue.clear t.order;
  Queue.transfer keep t.order

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let submit t ~id ~request_id ~budget =
  locked t @@ fun () ->
  sweep t;
  if Hashtbl.length t.table >= t.capacity then sweep ~extra:true t;
  if Hashtbl.length t.table >= t.capacity then begin
    Obs.incr rejected_full_c;
    Error `Full
  end
  else begin
    let e =
      {
        id;
        request_id;
        budget;
        submitted_at = Clock.now_ms ();
        state = Queued;
        started_at = None;
        finished_at = None;
        cancel_requested = false;
      }
    in
    Hashtbl.replace t.table id e;
    Queue.push id t.order;
    Obs.incr submitted_c;
    Obs.add_gauge queued_g 1.;
    Ok e
  end

let start t e =
  locked t @@ fun () ->
  match e.state with
  | Queued ->
    set_state e Running;
    e.started_at <- Some (Clock.now_ms ());
    true
  | Running | Done _ | Cancelled -> false

let finish t e outcome =
  locked t @@ fun () ->
  match e.state with
  | Running ->
    (* a cancel that landed mid-solve wins over the degraded result *)
    set_state e (if e.cancel_requested then Cancelled else Done outcome);
    e.finished_at <- Some (Clock.now_ms ())
  | Queued | Done _ | Cancelled -> ()

let cancel t id =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table id with
  | None -> `Unknown
  | Some e -> (
    match e.state with
    | Done _ | Cancelled -> `Already_finished (state_name e.state)
    | Queued ->
      e.cancel_requested <- true;
      Budget.cancel e.budget;
      set_state e Cancelled;
      e.finished_at <- Some (Clock.now_ms ());
      `Cancelled
    | Running ->
      e.cancel_requested <- true;
      (* the engine polls the budget between evaluations; the solve
         winds down to its incumbent and [finish] records Cancelled *)
      Budget.cancel e.budget;
      `Cancelling)

(* ------------------------------------------------------------------ *)
(* introspection *)

type view = {
  v_id : string;
  v_request_id : string;
  v_state : string;
  v_outcome : outcome option;
  v_age_ms : float;
  v_wait_ms : float;  (* admission to solve start (or to now while queued) *)
  v_run_ms : float option;
}

let view_of now e =
  {
    v_id = e.id;
    v_request_id = e.request_id;
    v_state = state_name e.state;
    v_outcome = (match e.state with Done o -> Some o | _ -> None);
    v_age_ms = Float.max 0. (now -. e.submitted_at);
    v_wait_ms =
      Float.max 0.
        ((match e.started_at with
         | Some s -> s
         | None -> ( match e.finished_at with Some f -> f | None -> now))
        -. e.submitted_at);
    v_run_ms =
      (match (e.started_at, e.finished_at) with
      | Some s, Some f -> Some (Float.max 0. (f -. s))
      | Some s, None -> Some (Float.max 0. (now -. s))
      | None, _ -> None);
  }

let find t id =
  locked t @@ fun () ->
  sweep t;
  Option.map (view_of (Clock.now_ms ())) (Hashtbl.find_opt t.table id)
