(** Span accounting for the traced run, from outside the libraries.

    Every callback a BA instance hands the engine is wrapped: the
    protocol record's [make_env]/[init]/[step]/[msg_bits], the
    eligibility closures in the environment [make_env] returns, the
    sparse hook, the adversary's [setup]/[intervene] and the trace sink.
    A span's self time is its duration minus the spans that ran inside
    it; the [Run] span wraps {!Basim.Engine.run}, so its self time is
    the engine's own work (delivery, wire buffer, halt scan,
    refereeing). The wrappers only observe, so a wrapped instance
    produces the same outputs, metrics and trace bytes as an unwrapped
    one. *)

type span =
  | Run  (** [Engine.run]; self time is [basim]'s *)
  | Make_env  (** trusted setup: PKI or Fmine key *)
  | Adv_setup  (** the adversary's static corruptions *)
  | Init  (** per-node [init] *)
  | Step  (** dense per-node [step] *)
  | Sparse_hook  (** [Sub_hm.sparse_step]: the shared crowd listener *)
  | Msg_bits
  | Mine
  | Sample
  | Verify
  | Verify_many
  | Intervene
  | Tracer

val all_spans : span list

val index : span -> int
(** Position in {!all_spans}, and in {!row}'s [row_self_ns]. *)

val span_name : span -> string
(** The library-qualified prefix the span's metrics use, e.g.
    ["bacore.step"] or ["bafmine.sample"]. *)

type row = {
  mutable instances : int;  (** traced instances that reached the round *)
  mutable ns : int;  (** host time between consecutive [intervene] exits *)
  row_self_ns : int array;  (** per-span self time, indexed like {!all_spans} *)
  mutable minor_words : float;
}
(** One round of the per-round breakdown, summed over instances. Round
    0 starts at the first phase-1 call, after setup; round [r > 0]
    starts where round [r - 1]'s intervention returned. *)

type t

val create : unit -> t

val time : t -> span -> (unit -> 'a) -> 'a
(** [time t s f] runs [f] inside span [s]. *)

val self_ns : t -> span -> int
(** Total self time of a span over all instances so far. *)

val calls : t -> span -> int

val mine_wins : t -> int
(** Winning [mine] attempts. *)

val sample_wins : t -> int

val actions : t -> int * int * int
(** Adversary actions returned so far: [(corrupt, inject, remove)]. *)

val last_env : t -> Bacore.Sub_hm.env option
(** The wrapped environment of the most recent instance. *)

val open_rounds : t -> unit
(** Opens round 0's row. The caller calls it once per instance, at the
    instance's first phase-1 call, so setup stays out of the rows. *)

val rows : t -> (int * row) list
(** The per-round breakdown, ascending by round. *)

val protocol :
  t ->
  (Bacore.Sub_hm.env, Bacore.Sub_hm.state, Bacore.Sub_hm.msg) Basim.Engine.protocol ->
  (Bacore.Sub_hm.env, Bacore.Sub_hm.state, Bacore.Sub_hm.msg) Basim.Engine.protocol
(** Wraps the record fields and, through [make_env], the environment's
    eligibility closures. *)

val sparse :
  t ->
  (Bacore.Sub_hm.env, Bacore.Sub_hm.state, Bacore.Sub_hm.msg) Basim.Engine.sparse_step ->
  (Bacore.Sub_hm.env, Bacore.Sub_hm.state, Bacore.Sub_hm.msg) Basim.Engine.sparse_step

val adversary :
  t ->
  (Bacore.Sub_hm.env, Bacore.Sub_hm.msg) Basim.Engine.adversary ->
  (Bacore.Sub_hm.env, Bacore.Sub_hm.msg) Basim.Engine.adversary

val tracer : t -> (Basim.Trace.event -> unit) -> Basim.Trace.event -> unit
