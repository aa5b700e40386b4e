(** Test-set parameters of an embedded core.

    A core, in the sense of the ITC'02 SOC test benchmarks, is described
    purely by the parameters of its test set: functional terminal counts,
    internal scan-chain lengths, and the number of test patterns. These are
    the only inputs the wrapper/TAM co-optimization consumes; the netlist
    itself is irrelevant to scheduling. *)

type t = private {
  id : int;  (** 1-based index within the SOC, unique *)
  name : string;
  inputs : int;  (** functional input terminals *)
  outputs : int;  (** functional output terminals *)
  bidirs : int;  (** bidirectional terminals (count on both sides) *)
  scan_chains : int list;  (** internal scan-chain lengths, each >= 1 *)
  patterns : int;  (** number of test patterns, >= 1 *)
  power : int;
      (** power dissipation of this core's test (arbitrary units). When
          built with [make ?power:None], defaults to the paper's
          hypothetical assignment: test data bits per pattern. *)
  bist_engine : int option;
      (** on-chip BIST engine shared with other cores, if any; two cores
          sharing an engine must not be tested concurrently. *)
}

val make :
  id:int ->
  name:string ->
  inputs:int ->
  outputs:int ->
  bidirs:int ->
  scan_chains:int list ->
  patterns:int ->
  ?power:int ->
  ?bist_engine:int ->
  unit ->
  t
(** [make ...] validates and builds a core description.
    @raise Invalid_argument if any count is negative, [patterns < 1],
    a scan chain has length < 1, or [id < 1]. *)

val flip_flops : t -> int
(** Total number of internal scan flip-flops (sum of chain lengths). *)

val scan_chain_count : t -> int

val bits_per_pattern : t -> int
(** Test data bits that must be shifted per pattern: scan flip-flops plus
    functional inputs (stimulus side) plus functional outputs (response
    side) plus twice the bidirs. This is the paper's proxy for power. *)

val test_data_bits : t -> int
(** Total test data volume of the core: [bits_per_pattern * patterns]. *)

val max_useful_width : t -> int
(** The saturation width: one wrapper chain per scan chain plus one per
    terminal on the busier side ([inputs + bidirs] or
    [outputs + bidirs]), and at least 1. The wrapper design clamps every
    wider TAM to it, so no wider TAM can change the testing time. *)

val is_combinational : t -> bool
(** [true] when the core has no internal scan chains. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
