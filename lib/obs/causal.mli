(** Causal flow analysis: the happens-before DAG of one execution.

    The synchronous model makes causality {e exact}, not sampled: a
    message sent in round [r] is delivered at the start of round [r+1],
    and a node's round-[r] actions are a function of its input, its own
    earlier states, and everything it received by round [r]. The
    happens-before DAG therefore has one {b state} per (node, round)
    pair, a {b memory edge} [(i, r) -> (i, r+1)] per node, and a
    {b delivery edge} [(src, r) -> (dst, r+1)] per recipient of every
    delivered message (honest sends and adversary injections alike).

    Definition-7 removals appear as {b severed edges}: the erased send
    is accounted (it still counts toward the sender's word totals) but
    delivers nothing, so its would-be edges are absent from every
    backward cone — and {e present} as adversary influence, because the
    absence of an expected message is itself information the adversary
    chose. Taint attribution therefore seeds from three sources:
    [Corrupted(i, r)] taints node [i]'s states from round [r+1] on
    (round 0 for setup corruption, [r = -1]); [Injected] messages taint
    their recipients; [Removed] messages taint their would-be
    recipients. Taint then propagates forward along memory and delivery
    edges. A decision's {b tainted fraction} is
    [tainted ∩ cone / cone] over its backward causal cone.

    Traces recorded {e without} causal recording ({!Basim.Engine.run}
    without [?labeler] — including every legacy trace) lack the
    recipient lists of targeted sends; those messages are
    over-approximated as reaching everyone and counted in
    {!approx_messages}, making cones and taint upper bounds. Multicasts
    (the common case in this repository) are always exact. *)

type t

type decision = {
  d_node : int;
  d_round : int;  (** the round the node halted in *)
  d_output : bool option;
  d_cone_states : int;
      (** states in the decision's backward causal cone, including the
          deciding state itself *)
  d_tainted_states : int;  (** cone states reachable from adversary events *)
  d_critical_path : int;
      (** longest message chain (delivery-edge count) ending at the
          deciding state — the decision's causal depth *)
}

(** One row of the per-kind × per-round flow matrix, with Definition-7
    accounting: severed sends still count toward their sender's
    multicast/unicast totals, so summing the matrix reproduces
    {!Basim.Metrics}. The empty kind [""] covers unlabeled (legacy)
    traces. *)
type flow = {
  f_round : int;
  f_kind : string;
  f_multicasts : int;
  f_multicast_bits : int;
  f_unicasts : int;  (** targeted sends × recipients *)
  f_unicast_bits : int;
  f_removals : int;
  f_injections : int;
  f_injection_bits : int;  (** 0 on unlabeled traces (bits unrecorded) *)
}

(** The serializable digest of an analysis — the [ba-causal/v1]
    document. All fields are integers, so {!summary_to_json} and
    {!summary_of_json} are exact inverses. *)
type summary = {
  s_n : int;
  s_rounds : int;  (** state grid spans rounds [0 .. s_rounds - 1] *)
  s_delivered : int;  (** honest sends that survived to delivery *)
  s_severed : int;  (** Definition-7 removals *)
  s_injected : int;
  s_approx : int;  (** messages with over-approximated recipient sets *)
  s_states : int;  (** [s_n * s_rounds] *)
  s_edges : int;
      (** materialized delivery edges (sends in the final round have no
          consumer and contribute none); memory edges are implicit *)
  s_decisions : decision list;  (** sorted by (round, node) *)
  s_flows : flow list;  (** sorted by (round, kind) *)
}

val of_events : ?n:int -> Basim.Trace.event list -> t
(** Build the DAG and run every analysis. Without [n], the node count
    is the recipient count of the honest multicasts ([Sent]/[Removed]
    with [multicast]; a multicast reaches all n nodes), so node ids
    never size the n × rounds grid.
    @raise Baobs.Json.Parse_error when [n] is absent and the trace has
    no multicast or its multicasts disagree, and on any trace
    {!Basim.Trace.validate} refuses. *)

val of_jsonl_string : ?n:int -> string -> t
(** Parse a JSONL trace ({!Basim.Trace.events_of_jsonl}) and analyze
    it.
    @raise Baobs.Json.Parse_error naming the line of a malformed
    event. *)

val n : t -> int

val rounds : t -> int

val decisions : t -> decision list

val flows : t -> flow list

val approx_messages : t -> int

val summary : t -> summary

val taint_fraction : decision -> float
(** [d_tainted_states / d_cone_states] ([0.] for an empty cone —
    impossible for a real decision, whose cone holds its own memory
    chain). *)

val check : t -> (unit, string list) result
(** Self-verification, the [ba_obs causal --check] gate:
    - every delivery edge advances the round by exactly one (the DAG is
      acyclic by round-stratification — verified over the materialized
      adjacency, not assumed);
    - the flow matrix sums to the Definition-7 totals of the same
      events replayed through {!Basim.Metrics.of_events} (multicasts,
      multicast bits, unicasts, unicast bits, removals, injections,
      injection bits — the engine's accounting);
    - per decision: [0 <= tainted <= cone <= states], the cone contains
      at least the decider's own memory chain, and the critical path
      fits in the decision round;
    - a trace with no adversarial events has zero taint everywhere. *)

val to_text : ?top:int -> t -> string
(** Human-readable summary: message counts, the flow matrix, and the
    decision table ([top] rows, default 10, highest tainted fraction
    first). *)

val summary_to_json : summary -> Baobs.Json.t
(** The [ba-causal/v1] document. *)

val to_json : t -> Baobs.Json.t
(** [summary_to_json (summary t)]. *)

val summary_of_json : Baobs.Json.t -> summary
(** Exact inverse of {!summary_to_json}.
    @raise Baobs.Json.Parse_error on schema mismatch or malformed
    fields. *)

val to_csv : t -> string
(** The flow matrix as CSV (one row per (round, kind), the
    {!flow} fields as columns; unlabeled kinds rendered as ["?"]). *)

val to_dot : t -> string
(** Graphviz digraph of the happens-before DAG. States are [s<node>_<round>]
    nodes arranged round by round (tainted states filled red); each
    multicast routes through one per-(sender, round) fan-out point to
    keep the edge count linear; severed sends are dashed red edges to a
    fan-out point with no outgoing edges — visible missing influence. *)

val to_chrome : t -> Baobs.Json.t
(** Chrome trace_event document for Perfetto: one slice per (node,
    round) state on thread [node], flow-event arrows ([s]/[f] phases,
    message id as flow id) for every delivery edge, and an instant
    marker per removal on the victim's thread. Timestamps are synthetic
    (1 ms per round). *)
