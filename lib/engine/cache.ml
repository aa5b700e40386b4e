module Obs = Soctest_obs.Obs
module Clock = Soctest_obs.Clock

(* One histogram shared by every cache: how long duplicate requests
   block waiting for the first computer. Buckets in milliseconds. *)
let dedup_wait_histogram =
  Obs.histogram
    ~edges:[| 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1000. |]
    "engine.cache.dedup_wait_ms"

type 'v slot = Pending | Ready of 'v | Failed of exn

type ('k, 'v) t = {
  table : ('k, 'v slot) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;  (** broadcast whenever a Pending slot settles *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  hits_counter : Obs.counter;
  misses_counter : Obs.counter;
}

let create ~name =
  {
    table = Hashtbl.create 64;
    lock = Mutex.create ();
    settled = Condition.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    hits_counter = Obs.counter (name ^ ".hits");
    misses_counter = Obs.counter (name ^ ".misses");
  }

type outcome = Computed | Cached | Deduped

let hit t =
  ignore (Atomic.fetch_and_add t.hits 1);
  Obs.incr t.hits_counter

let miss t =
  ignore (Atomic.fetch_and_add t.misses 1);
  Obs.incr t.misses_counter

let value_of = function
  | Ready v -> v
  | Failed e -> raise e
  | Pending -> assert false

(* Wait (lock held) until [k]'s slot settles, then return it. *)
let await t k =
  let started = Clock.now_ms () in
  let rec loop () =
    match Hashtbl.find_opt t.table k with
    | Some Pending ->
      Condition.wait t.settled t.lock;
      loop ()
    | Some settled -> settled
    | None ->
      (* can't happen: slots are only ever settled, never removed *)
      assert false
  in
  let settled = loop () in
  Obs.observe dedup_wait_histogram (Float.max 0. (Clock.now_ms () -. started));
  settled

let find_or_compute t k f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some Pending ->
    let settled = await t k in
    Mutex.unlock t.lock;
    hit t;
    (value_of settled, Deduped)
  | Some settled ->
    Mutex.unlock t.lock;
    hit t;
    (value_of settled, Cached)
  | None ->
    Hashtbl.replace t.table k Pending;
    Mutex.unlock t.lock;
    miss t;
    let settled = match f () with v -> Ready v | exception e -> Failed e in
    Mutex.lock t.lock;
    Hashtbl.replace t.table k settled;
    Condition.broadcast t.settled;
    Mutex.unlock t.lock;
    (value_of settled, Computed)

let length t =
  Mutex.lock t.lock;
  let n =
    Hashtbl.fold
      (fun _ slot acc -> match slot with Pending -> acc | _ -> acc + 1)
      t.table 0
  in
  Mutex.unlock t.lock;
  n

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
