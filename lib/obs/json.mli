(** Minimal JSON support shared by the observability exporters and
    {!Soctest_portfolio.Telemetry}: a value type with a renderer, and a
    strict well-formedness checker used by tests and the [@obs-smoke]
    alias. No external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** rendered with ["%.3f"]; must be finite *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Strings are escaped per RFC 8259;
    non-finite floats render as [null]. *)

val escape : string -> string
(** [escape s] is [s] as a quoted JSON string literal. *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed, nothing
    else after it) into a value. Numbers without a fraction or exponent
    that fit [int] parse as [Int], everything else as [Float]. Duplicate
    object keys are kept in order (first one wins for {!member}).
    [Error msg] carries the byte offset of the first problem — the same
    diagnostics as {!check}. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] on
    a missing key or a non-object. *)

val member_path : string list -> t -> t option
(** [member_path ["result"; "testing_time"] v] follows nested object
    keys; [None] as soon as one is missing. [member_path [] v = Some v].
    What clients use to pull fields out of nested responses. *)

val to_int : t -> int option
(** [Some i] for [Int i], [None] for every other constructor. *)

val check : string -> (unit, string) result
(** Strict well-formedness check of one JSON document (surrounding
    whitespace allowed, nothing else after it). [Error msg] carries the
    byte offset of the first problem. *)

val check_lines : string -> (unit, string) result
(** Validate newline-separated JSON documents (JSONL); blank lines are
    allowed and skipped. *)
