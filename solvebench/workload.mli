(** The four seeded [/v1/solve] workloads. Everything a run sends is a
    pure function of the workload and its seed, so two runs with the
    same seed send byte-identical bodies. *)

type kind =
  | Cold_solve
      (** Problem 1/2 point solves at W=32 on synthetic SOCs sent inline
          and never seen before: every staircase is computed. *)
  | Width_sweep
      (** Problem 3 sweeps over W=1..64 of the embedded SOCs, each with
          a fresh power cap and a preemption budget of 2: staircases
          stay warm, every evaluation is new and written to the store. *)
  | Warm_hit
      (** Table-1 grid solves over a fixed key set — each embedded SOC
          at 21 seeded widths, one from each of 21 equal strata of
          8..64 — answered from the daemon's memory tier. *)
  | Store_hit
      (** The same grid solves, sent once each to a restarted daemon
          whose store already holds them: the store's read path. *)

val kinds : kind list
val name : kind -> string
val of_name : string -> kind option

val sweep_widths : int
(** A [Width_sweep] request sweeps W = 1 .. [sweep_widths]. *)

type plan = {
  warmup : string array;
      (** sent during set-up: inputs disjoint from [timed] for the cold
          workloads, the key set itself for the hit workloads *)
  restart : bool;
      (** restart the daemon on its store between set-up and the timed
          phase *)
  timed : string array;  (** request bodies, in send order *)
  min_samples : int;
      (** the timed phase sends at least this many requests, so every
          run has 10 samples beyond p90. They are the run's fixed work:
          quality and memory are measured over them, so a daemon that
          serves more requests in the same seconds does not move those
          metrics. *)
}

val plan : kind -> seed:int -> budget:int -> plan
(** [budget] caps the generated timed requests of the open-ended
    workloads (never below [min_samples]); [Store_hit] always sends its
    key set once. *)
