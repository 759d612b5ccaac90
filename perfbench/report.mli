(** Metric tables, summary statistics and the result line.

    The two tables are the benchmark's contract with [BENCHMARK.json]:
    a run with tracing off emits exactly {!end_to_end}, a traced run
    exactly {!per_layer}, and the tests check both against the file. *)

val end_to_end : (string * string) list
(** [(name, unit)] of every end-to-end metric. *)

val per_layer : (string * string) list

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val tail : float array -> (float * float * int) option
(** [tail xs] is [Some (pct, value, count)]: [value] is the sample at
    the highest percentile [pct] that still has 10 samples above it,
    out of [count] samples. [None] when there are fewer than 11
    samples. *)

val result_line :
  table:(string * string) list ->
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * float) list ->
  string
(** The final JSON line. @raise Invalid_argument unless the metrics
    name exactly the entries of [table], or if a value is not finite. *)
