(* A deliberately small domain pool: one mutex + one condition protect a
   FIFO of erased [unit -> unit] tasks; [run_all] layers typed results,
   timing and completion counting on top so the worker loop stays
   oblivious to what it runs. *)

module Obs = Soctest_obs.Obs
module Clock = Soctest_obs.Clock

type task = unit -> unit

let queue_wait_hist = Obs.histogram "pool.queue_wait_ms"
let tasks_counter = Obs.counter "pool.tasks"

type t = {
  lock : Mutex.t;
  work_available : Condition.t;  (* new task pushed, or stop raised *)
  queue : task Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
}

let worker pool =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work_available pool.lock
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.lock
      (* stop && empty: drain finished, exit *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      task ();
      loop ()
    end
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [||];
      jobs;
    }
  in
  pool.workers <-
    Array.init jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let jobs t = t.jobs

type worker_error = { exn : exn; backtrace : Printexc.raw_backtrace }

exception Pool_error of worker_error

let raise_error we =
  Printexc.raise_with_backtrace (Pool_error we) we.backtrace

type 'a outcome = { value : ('a, worker_error) result; elapsed_ms : float }

let submit pool task =
  Mutex.lock pool.lock;
  if pool.stop then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let enqueued = Clock.now_ms () in
  Queue.push
    (fun () ->
      Obs.incr tasks_counter;
      Obs.observe queue_wait_hist (Float.max 0. (Clock.now_ms () -. enqueued));
      (* fire-and-forget: the task owns its error handling; an escaped
         exception must not kill the worker domain *)
      try task () with _ -> ())
    pool.queue;
  Condition.signal pool.work_available;
  Mutex.unlock pool.lock

let run_all pool thunks =
  let n = List.length thunks in
  let results = Array.make n None in
  (* Completion bookkeeping has its own lock so finishing tasks never
     contend with the queue. *)
  let done_lock = Mutex.create () in
  let all_done = Condition.create () in
  let remaining = ref n in
  Mutex.lock pool.lock;
  if pool.stop then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.run_all: pool is shut down"
  end;
  let enqueued = Clock.now_ms () in
  List.iteri
    (fun i thunk ->
      Queue.push
        (fun () ->
          let start = Clock.now_ms () in
          Obs.incr tasks_counter;
          Obs.observe queue_wait_hist (Float.max 0. (start -. enqueued));
          let value =
            try Ok (thunk ())
            with e ->
              (* capture in the worker, at the raise point, before any
                 other code can disturb the backtrace *)
              let backtrace = Printexc.get_raw_backtrace () in
              Error { exn = e; backtrace }
          in
          let elapsed_ms = Float.max 0. (Clock.now_ms () -. start) in
          Mutex.lock done_lock;
          results.(i) <- Some { value; elapsed_ms };
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock done_lock)
        pool.queue)
    thunks;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  Mutex.lock done_lock;
  while !remaining > 0 do
    Condition.wait all_done done_lock
  done;
  Mutex.unlock done_lock;
  Array.to_list
    (Array.map (function Some o -> o | None -> assert false) results)

let shutdown pool =
  Mutex.lock pool.lock;
  if pool.stop then Mutex.unlock pool.lock
  else begin
    pool.stop <- true;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers
  end

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
