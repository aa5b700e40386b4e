(** Heuristic-vs-exact study (the paper's Sec. 2 motivation: the exact
    wrapper/TAM co-optimization of ref. [12] is "intrinsically
    intractable", its compute time exponential — while the heuristic runs
    in milliseconds and stays close to optimal).

    We scale the number of cores on SOC prefixes (d695 by default): the
    branch-and-bound ({!Soctest_pack.Bnb}) node counts explode, the
    heuristic's optimality gap stays small. *)

type row = {
  cores : int;
  tam_width : int;
  heuristic : int;
  exact : int;
  optimal : bool;  (** exact search completed within budget *)
  nodes : int;
  gap_percent : float;  (** (heuristic - exact) / exact * 100 *)
}

val prefix : Soctest_soc.Soc_def.t -> int -> Soctest_soc.Soc_def.t
(** [prefix soc n] is the SOC of [soc]'s first [n] cores, named
    ["<name>_<n>"], with BIST engines dropped (and power reset to the
    default), so no exclusion survives: under an unconstrained set the
    exact search is the paper's pure Problem 1. *)

val run :
  ?soc:Soctest_soc.Soc_def.t ->
  ?core_counts:int list ->
  ?tam_width:int ->
  ?node_limit:int ->
  unit ->
  row list
(** Defaults: d695 prefixes of 2..6 cores at W = 16, 3 M nodes. Core
    counts above the SOC's own are skipped. *)

val to_table : soc_name:string -> row list -> string
