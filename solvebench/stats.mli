(** Order statistics used by the benchmark and its run
    summarizer. *)

val percentile : float list -> float -> float
(** [percentile xs p] is the nearest-rank [p]-quantile ([0 < p <= 1]).
    @raise Invalid_argument on an empty list. *)

val beyond : int -> float -> int
(** [beyond n p] counts the samples of an [n]-sample run that rank
    strictly above its nearest-rank [p]-quantile. *)

val median : float list -> float

val quartiles : float list -> float * float * float
(** First, second and third quartile, matching Python's
    [statistics.quantiles(xs, n=4)] (the exclusive method).
    @raise Invalid_argument with fewer than two samples. *)

val spread : float list -> float
(** [(q3 - q1) / median]. *)

val mean : float list -> float
