module Clock = Soctest_obs.Clock

type t = {
  deadline : float option;  (** absolute, monotonic ms ({!Clock.now_ms}) *)
  max_evals : int option;
  evals : int Atomic.t;
  cancelled : bool Atomic.t;
  limited : bool;  (** false only for {!unlimited} *)
}

let unlimited =
  {
    deadline = None;
    max_evals = None;
    evals = Atomic.make 0;
    cancelled = Atomic.make false;
    limited = false;
  }

let create ?deadline_ms ?max_evals () =
  (match deadline_ms with
  | Some d when d < 0. -> invalid_arg "Budget.create: deadline_ms < 0"
  | _ -> ());
  (match max_evals with
  | Some m when m < 0 -> invalid_arg "Budget.create: max_evals < 0"
  | _ -> ());
  {
    deadline = Option.map (fun d -> Clock.now_ms () +. d) deadline_ms;
    max_evals;
    evals = Atomic.make 0;
    cancelled = Atomic.make false;
    limited = true;
  }

let cancel t = if t.limited then Atomic.set t.cancelled true
let note_eval t = if t.limited then ignore (Atomic.fetch_and_add t.evals 1)
let evals t = Atomic.get t.evals

let exhausted t =
  t.limited
  && (Atomic.get t.cancelled
     || (match t.max_evals with
        | Some m -> Atomic.get t.evals >= m
        | None -> false)
     ||
     match t.deadline with
     | Some d -> Clock.now_ms () >= d
     | None -> false)

let remaining_ms t =
  Option.map (fun d -> Float.max 0. (d -. Clock.now_ms ())) t.deadline
