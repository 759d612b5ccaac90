(** Communication metrics for one protocol execution.

    Two notions from Appendix A.1:

    - {b multicast complexity} (Definition 7): total number of bits
      multicast by {e honest} nodes — the figure of merit for the paper's
      upper bound (Theorem 2);
    - {b classical communication complexity} (Definition 6): total
      pairwise messages; for a multicast of [b] bits to [n] nodes this is
      [n·b] bits.

    We additionally track message {e counts} (multicasts and pairwise),
    adversarial removals (after-the-fact erasures), and corrupt
    injections, which the experiments report alongside bits.

    Each accounting event is recorded once, into its per-(round, node,
    kind) cell of a {!Baobs.Series}; every aggregate below is read from
    those cells. Rounds follow the trace convention (setup = [-1]). *)

type t

val create : n:int -> t

val record_honest_multicast : t -> round:int -> node:int -> bits:int -> unit
(** One honest multicast of [bits] bits by [node]. *)

val record_honest_unicast :
  t -> round:int -> node:int -> recipients:int -> bits:int -> unit
(** One honest targeted send to [recipients] nodes (pairwise-channel
    protocols only; not counted as a multicast). *)

val record_removal : t -> round:int -> node:int -> unit
(** The adversary erased an honest send of [node] after the fact. *)

val record_injection : t -> round:int -> node:int -> bits:int -> unit
(** Corrupt node [node] sent a message. *)

val record_corruption : t -> round:int -> node:int -> unit
(** [node] was corrupted (counted in the series only). *)

val note_round : t -> int -> unit
(** Record that round [r] executed (keeps the max). *)

val of_events : n:int -> Trace.event list -> t
(** Replay a trace through the [record_*] functions — the one
    Definition-7 fold over events: [Sent] is an honest send; [Removed]
    is the same send {e and} a removal; [Injected] is an injection whose
    bits count only when recorded ([bits >= 0]); [Corrupted] is a
    corruption; [Round_started] is {!note_round}. A run's trace replays
    to its metrics cell by cell ([Injection_bits] only if labeled).
    @raise Baobs.Json.Parse_error as {!Trace.validate}. *)

val honest_multicasts : t -> int
(** Number of honest multicasts. *)

val honest_multicast_bits : t -> int
(** Multicast complexity in bits (Definition 7). *)

val honest_unicasts : t -> int
(** Number of honest pairwise messages (targeted sends × recipients). *)

val classical_messages : t -> int
(** Honest pairwise message count: multicasts × n + unicasts. *)

val classical_bits : t -> int
(** Honest pairwise bits: each multicast charged n× its size. *)

val removals : t -> int

val injections : t -> int

val rounds : t -> int
(** Highest executed round + 1. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Baobs.Json.t

val series : t -> Baobs.Series.t
(** The per-round × per-node cells the aggregates are read from —
    what [ba_run --metrics-json] exports under ["series"]. *)
