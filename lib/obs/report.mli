(** Trace analytics: turn an execution trace (a live
    [Basim.Trace.collector] event list or a re-parsed [--trace-jsonl]
    file) into readable artifacts — a per-round timeline, a per-node
    communication table with top-k talkers, and per-kind message-size
    summaries (p50/p95/p99 over {!Bastats.Histogram} bins).

    The Definition-7 counts are read, in one pass, from the series
    cells of the trace replayed through {!Basim.Metrics.of_events}, so
    an erased honest send counts toward honest multicasts/unicasts
    {e and} as a removal exactly as the engine counts it, and report
    totals reproduce the run's aggregates. The report adds only halts
    and the message-size histograms. *)

type counts = {
  multicasts : int;
  multicast_bits : int;  (** Definition-7 bits *)
  unicasts : int;        (** targeted sends × recipients *)
  unicast_bits : int;
  removals : int;
  injections : int;
  corruptions : int;
  halts : int;
}

type t

val of_events : ?rounds:int * int -> Basim.Trace.event list -> t
(** [rounds], when given, is an inclusive [(lo, hi)] window: events
    and series cells outside it (by [Basim.Trace.round_of]; setup
    events are round [-1]) are dropped, so the timeline, matrix,
    histograms — and the sums {!check} verifies — all cover exactly the
    window. The whole trace is validated first ({!Basim.Trace.validate},
    with n = 1 + the largest node id it names).
    @raise Invalid_argument if [lo > hi].
    @raise Baobs.Json.Parse_error naming the event index of an
    impossible round or a negative node id. *)

val of_jsonl_string : ?rounds:int * int -> string -> t
(** {!of_events} over {!Basim.Trace.events_of_jsonl}.
    @raise Baobs.Json.Parse_error naming the line of a malformed
    event. *)

val event_count : t -> int

val totals : t -> counts

val rounds : t -> (int * counts) list
(** Per-round timeline, rounds ascending (round [-1] = setup). *)

val nodes : t -> (int * counts) list
(** Per-node communication matrix, node ids ascending. Removals are
    charged to the victim, injections to the corrupt source. *)

val multicast_size_summary : t -> Bastats.Summary.t option
(** [None] when no multicast was observed. *)

val unicast_size_summary : t -> Bastats.Summary.t option

val check : t -> (unit, string list) result
(** Internal consistency: every event round-trips through
    [Trace.to_json]/[of_json], and the per-round and per-node tables
    sum back to the totals. [ba_obs report --check] exits nonzero on
    [Error]. *)

val to_text : ?k:int -> t -> string
(** The per-round timeline, the [k] (default 10) heaviest nodes by
    multicast bits (unicast bits, then node id, break ties), and the
    message-size summaries (erased sends included), rendered for
    terminals. *)

val to_json : ?k:int -> t -> Baobs.Json.t
(** [ba-report/v1]: totals, per-round rows, per-node rows, top talkers,
    size summaries. *)

val to_csv : t -> string
(** The per-round timeline as CSV. *)
