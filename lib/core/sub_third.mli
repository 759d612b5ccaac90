(** The §3.2 protocol: the {!Warmup_third} epoch structure made
    communication-efficient through {e vote-specific eligibility}, and with
    the idealized leader-election oracle removed.

    Every multicast of the warmup protocol becomes a {e conditional}
    multicast: a node first mines an eligibility ticket through the
    {!Bafmine.Eligibility} oracle and only speaks when the ticket wins.

    - ACK committees: eligibility probability [λ/n] per node, so each
      (epoch, bit) committee has expected size [λ]; the "ample ACKs"
      threshold becomes [2λ/3].
    - Proposals: eligibility probability [1/(2n)] per (node, bit), so a
      single proposer emerges every two epochs on average — this replaces
      the leader oracle.

    The paper's key insight (and this module's {!mode} switch): with
    {b bit-specific} eligibility the committee allowed to ACK bit [b] in
    epoch [r] is independent of the committee for [1−b], so corrupting a
    node that just ACKed [b] gives the adversary nothing toward forging
    ACKs for [1−b]. The {b bit-agnostic} mode implements the broken
    variant of the §3.3 Remark — one ticket per (ACK, epoch) reusable for
    either bit — which the {!Baattacks.Equivocator} adversary exploits to
    violate within-epoch consistency (experiment E5).

    Tolerates [f < (1/3 − ε)n] adaptive corruptions (without
    after-the-fact removal); completes in [2R + 1] rounds. *)

type mode =
  | Bit_specific  (** the paper's protocol: tickets name (type, epoch, bit) *)
  | Bit_agnostic  (** the §3.3-Remark strawman: tickets name (type, epoch) *)

type world = [ `Hybrid | `Real ]
(** Run over the [Fmine] ideal functionality or over the Appendix-D
    VRF compilation. *)

type env = {
  n : int;
  params : Params.t;
  elig : Bafmine.Eligibility.t;
  mode : mode;
  pki : Bacrypto.Pki.t option;  (** [Some] in the real world *)
  fmine : Bafmine.Fmine.t option;
      (** [Some] in the hybrid world — inspectable mining statistics *)
  mutable conflicts : int;
      (** count of within-epoch consistency violations observed — an
          honest node seeing "ample ACKs" for {e both} bits in one epoch
          (the §3.3-Remark event; one increment per observing node per
          epoch). Zero in every tolerated execution of the bit-specific
          protocol. *)
}

type msg =
  | Propose of { epoch : int; bit : bool; cred : Bafmine.Eligibility.credential }
  | Ack of { epoch : int; bit : bool; cred : Bafmine.Eligibility.credential }

val msg_kind : msg -> string
(** Stable kind label for causal tracing ({!Basim.Engine.run}'s
    [?labeler]): ["propose"] or ["ack"]. *)

type state

val protocol :
  params:Params.t -> world:world -> mode:mode ->
  (env, state, msg) Basim.Engine.protocol
(** The protocol record for the engine. *)

val ack_mining_string : mode -> epoch:int -> bit:bool -> string
(** The string a node mines to ACK — includes the bit only in
    [Bit_specific] mode. *)

val propose_mining_string : epoch:int -> bit:bool -> string
(** The string mined for proposals (always bit-specific, as in §3.2). *)

val ack_probability : env -> float
(** [λ/n]. *)

val propose_probability : env -> float
(** [1/(2n)]. *)

val make_ack : epoch:int -> bit:bool -> cred:Bafmine.Eligibility.credential -> msg
(** Assemble an ACK message — used by adversaries for corrupt nodes. *)

val make_propose :
  epoch:int -> bit:bool -> cred:Bafmine.Eligibility.credential -> msg
(** Assemble a proposal — used by adversaries for corrupt nodes. *)

val verify_msg : env -> sender:int -> msg -> bool
(** The receiver-side validity check (credential verification). *)

val belief : state -> bool
(** The node's current belief (inspectable for tests). *)
