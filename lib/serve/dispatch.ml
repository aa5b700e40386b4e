(* Deadline-aware worker dispatch for the serving stack: a bounded team
   of worker domains draining a priority queue of erased tasks.

   The queue is ordered earliest-deadline-first: a task admitted with a
   budget sorts by its absolute deadline, a task without one sorts
   after every deadlined task, and equal keys fall back to admission
   order — so a short-budget solve admitted behind a long p3 sweep
   overtakes it at the queue instead of burning its whole budget
   waiting, and undeadlined tasks run in arrival order.

   The heap is a plain binary min-heap under the pool mutex; admission
   rates are HTTP-request-shaped (thousands per second at most), so a
   lock here is far below the noise of the solves being dispatched. *)

module Obs = Soctest_obs.Obs

type task = {
  deadline : float;  (* absolute monotonic ms; [infinity] = no budget *)
  seq : int;  (* admission order: the tie-break between equal deadlines *)
  run : unit -> unit;
}

let queued_g = Obs.gauge "serve.dispatch.queued"

type t = {
  lock : Mutex.t;
  work_available : Condition.t;
  mutable heap : task array;  (* slots [0, size) live *)
  mutable size : int;
  mutable seq : int;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
}

let jobs t = t.jobs

(* ------------------------------------------------------------------ *)
(* heap plumbing (caller holds the lock) *)

let precedes (a : task) (b : task) =
  a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && precedes t.heap.(l) t.heap.(!best) then best := l;
  if r < t.size && precedes t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let dummy_task = { deadline = infinity; seq = -1; run = ignore }

let push t task =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (max 16 (2 * t.size)) dummy_task in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.heap.(t.size) <- task;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy_task;  (* drop the closure for the GC *)
  if t.size > 0 then sift_down t 0;
  top

(* ------------------------------------------------------------------ *)

let worker t =
  let rec loop () =
    Mutex.lock t.lock;
    while t.size = 0 && not t.stop do
      Condition.wait t.work_available t.lock
    done;
    if t.size = 0 then Mutex.unlock t.lock
      (* stop && empty: drain finished, exit *)
    else begin
      let task = pop t in
      Obs.set_gauge queued_g (float_of_int t.size);
      Mutex.unlock t.lock;
      (* fire-and-forget: the task owns its error handling; an escaped
         exception must not kill the worker domain *)
      (try task.run () with _ -> ());
      loop ()
    end
  in
  loop ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Dispatch.create: jobs must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      heap = Array.make 16 dummy_task;
      size = 0;
      seq = 0;
      stop = false;
      workers = [||];
      jobs;
    }
  in
  t.workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t ?(deadline = infinity) run =
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    invalid_arg "Dispatch.submit: dispatcher is shut down"
  end;
  let task = { deadline; seq = t.seq; run } in
  t.seq <- t.seq + 1;
  push t task;
  Obs.set_gauge queued_g (float_of_int t.size);
  Condition.signal t.work_available;
  Mutex.unlock t.lock

let queued t =
  Mutex.lock t.lock;
  let n = t.size in
  Mutex.unlock t.lock;
  n

let shutdown t =
  Mutex.lock t.lock;
  if t.stop then Mutex.unlock t.lock
  else begin
    t.stop <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers
  end
