(** Per-round × per-node × per-kind counter series.

    A series records {e when} and {e by whom} each unit of
    communication happened — the granularity at which the paper's
    claims are stated (per-round multicast budgets, Ω(f²) removal
    counts). Every run's [Basim.Metrics] is backed by one: each
    accounting event is recorded once, into its (round, node, kind)
    cell, and the run-level aggregates are the per-kind {!total}s of
    those cells ([Basim.Metrics.series] exposes the series).

    Rounds start at [-1]: setup-time corruptions use round [-1],
    matching the trace convention. Storage is sparse (hash buckets per
    round), so large-n committee protocols pay for speakers, not for
    [n × rounds]. *)

type kind =
  | Multicast        (** honest multicasts (count) *)
  | Multicast_bits   (** bits of honest multicasts — Definition 7 *)
  | Unicast          (** honest pairwise messages (targeted sends × recipients) *)
  | Unicast_bits     (** bits of honest pairwise messages *)
  | Removal          (** after-the-fact erasures of honest sends *)
  | Injection        (** adversary-driven sends from corrupt nodes *)
  | Injection_bits
  | Corruption       (** corruption events *)

val all_kinds : kind list

val kind_name : kind -> string
(** Stable snake_case name used in JSON and CSV output. *)

type t

val max_nodes : int
(** The largest [n] a series can key its cells by. *)

val create : n:int -> t
(** @raise Invalid_argument unless [0 < n <= max_nodes]. *)

val n_nodes : t -> int

val record : ?by:int -> t -> round:int -> node:int -> kind -> unit
(** Add [by] (default 1) to one cell.
    @raise Invalid_argument if [round < -1] or [node] out of range. *)

val total : t -> kind -> int
(** Sum of every cell of [kind] — O(1): kept up to date by {!record}. *)

val round_total : t -> round:int -> kind -> int

val max_round : t -> int
(** Highest round with a bucket, or [-2] when empty. *)

val fold :
  t -> ('a -> round:int -> node:int -> kind -> int -> 'a) -> 'a -> 'a
(** Iterate nonzero cells, rounds ascending, deterministic order. *)

val to_json : t -> Json.t
(** [{ n; totals; rounds: [{round; nodes: [{node; <kind>: count}]}] }] —
    zero cells omitted. *)

val to_csv : t -> string
(** One row per (round, node) with all kind columns. *)
