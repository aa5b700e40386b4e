(** Tester vector-memory accounting for a schedule.

    A tester streams one bit per TAM wire per cycle for the whole test
    session; every connected channel holds [makespan] vector-memory bits
    whether the wire is busy or idle. This module grounds the paper's
    [V(W) = W x T(W)] identity in an explicit per-wire model and measures
    how much of that memory is useful payload vs. idle padding — plus
    what Golomb-compressing each core's stimulus would save. *)

type t = {
  tam_width : int;
  depth : int;  (** vector memory depth per channel = makespan *)
  volume : int;  (** total bits = tam_width * depth *)
  useful : int;  (** busy wire-cycles (actual payload) *)
  padding : int;  (** idle wire-cycles (bought but unused) *)
  per_wire_busy : int array;  (** busy cycles per wire, index 0..W-1 *)
}

val of_schedule : Soctest_tam.Schedule.t -> t
(** [of_allocations sched (Wire_alloc.allocate sched)].
    @raise Soctest_tam.Wire_alloc.Capacity_exceeded if the schedule
    violates capacity. *)

val of_allocations :
  Soctest_tam.Schedule.t -> Soctest_tam.Wire_alloc.allocation list -> t
(** The image of a schedule under a wire assignment already derived for
    it, so a caller that holds {!Soctest_tam.Wire_alloc.allocate}'s
    result (the auditor) does not allocate twice.
    @raise Invalid_argument if a wire lies outside [0 .. tam_width-1]. *)

val utilization : t -> float
(** [useful / volume]; [0.] for an empty schedule. *)

type compression_report = {
  care_density : float;
  raw_stimulus_bits : int;
  compressed_bits : int;
  ratio : float;  (** raw / compressed *)
  per_core : (int * Compress.choice) list;
}

val compress_soc :
  ?care_density:float -> Soctest_soc.Soc_def.t -> compression_report
(** Generates each core's pattern set ({!Pattern_gen}), Golomb-compresses
    the stimulus streams with the best group size per core, and reports
    the SOC-level reduction — the "test data compression" alternative the
    paper positions against TAM-width tuning. *)
