(** The paper's flagship protocol (Theorem 2, Appendix C.2): synchronous
    BA with {e polylogarithmic multicast complexity}, resilience
    [f < (1/2 − ε)n], and expected constant rounds — assuming only a PKI
    and standard cryptography, against an adaptive adversary that cannot
    perform after-the-fact removal.

    It is the {!Quadratic_hm} protocol of Appendix C.1 transformed by
    {e vote-specific eligibility}:

    - every multicast becomes a {b conditional} multicast: the node mines
      an eligibility ticket for the exact (type, iteration, bit) triple it
      wants to send, with probability [λ/n]
      (Status/Vote/Commit/Terminate) or [1/(2n)] (Propose), and only
      speaks on success, attaching the credential;
    - every [f+1] threshold becomes [λ/2];
    - the leader-election oracle disappears: whoever mines a Propose
      ticket is a proposer (several proposers in an iteration are treated
      like a corrupt proposer — nodes simply don't vote; a fresh
      iteration follows).

    Because eligibility is {e bit-specific}, corrupting a node that just
    voted [b] gives the adversary no advantage toward votes for [1−b]
    (§3.2's key insight), and because votes carry the proposal that
    justified them, corrupt nodes cannot vote without a proposer either.

    Stochastic guarantees reproduced in experiment E7: per-message
    committees concentrate around [λ] (Lemma 11); a unique-honest-
    proposer iteration occurs with probability [> 1/(2e)] per iteration
    (Lemma 12); once [εn/2] honest nodes terminate, everyone terminates
    the next round (Lemma 10). Lemma 15: [O(λ²)] multicasts of
    [O((log κ + log n)·λ)] bits each. *)

type elig_cert = Bafmine.Eligibility.credential Cert.t
(** A certificate: [λ/2] vote credentials from distinct nodes. *)

type proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : elig_cert option;
  p_node : int;                              (** the proposer *)
  p_cred : Bafmine.Eligibility.credential;   (** its Propose ticket *)
}

type msg =
  | Status of {
      iter : int;
      bit : bool;
      cert : elig_cert option;
      cred : Bafmine.Eligibility.credential;
    }
  | Propose of proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : proposal option;  (** [None] only in iteration 1 *)
      cred : Bafmine.Eligibility.credential;
    }
  | Commit of {
      iter : int;
      bit : bool;
      cert : elig_cert;
      cred : Bafmine.Eligibility.credential;
    }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * Bafmine.Eligibility.credential) list;
      cred : Bafmine.Eligibility.credential;
    }

val msg_kind : msg -> string
(** Stable kind label for causal tracing: ["status"], ["propose"],
    ["vote"], ["commit"], or ["terminate"]. *)

type interns
(** Per-env hash-consing tables for the receiver hot path: the mining
    strings (see {!interned_mining_string}) and one canonical copy of
    each certificate an honest node builds. *)

type env = {
  n : int;
  params : Params.t;
  elig : Bafmine.Eligibility.t;
  pki : Bacrypto.Pki.t option;  (** [Some] in the real world *)
  fmine : Bafmine.Fmine.t option;
      (** [Some] in the hybrid world — inspectable mining statistics *)
  cert_cache : (elig_cert, unit) Hashtbl.t;
      (** cache of positively verified certificates (sound: verification
          is deterministic and monotone; purely a simulation speedup) *)
  proposal_cache : (proposal, unit) Hashtbl.t;
      (** same, for proposals *)
  interns : interns;
}

val make_env :
  n:int ->
  params:Params.t ->
  elig:Bafmine.Eligibility.t ->
  pki:Bacrypto.Pki.t option ->
  fmine:Bafmine.Fmine.t option ->
  env
(** An env with empty caches and intern tables — what {!protocol}'s
    [make_env] builds around its world's eligibility oracle. *)

type state

val protocol :
  params:Params.t ->
  world:[ `Hybrid | `Real ] ->
  (env, state, msg) Basim.Engine.protocol
(** The protocol record. Uses [params.max_epochs] as the iteration cap;
    a node reaching the cap undecided halts without output. *)

val phase_of_round : int -> Quadratic_hm.phase
(** Same round layout as the quadratic protocol. *)

val mining_string : [ `Status | `Propose | `Vote | `Commit ] -> iter:int -> bit:bool -> string
(** The string mined for each conditional multicast (bit-specific). *)

val terminate_mining_string : bit:bool -> string
(** Terminate tickets are per-bit, not per-iteration. *)

val interned_mining_string :
  env -> [ `Status | `Propose | `Vote | `Commit ] -> iter:int -> bit:bool -> string
(** {!mining_string}, byte for byte, built once per env: the env's
    table holds each string for iterations [0 .. max_epochs + 1] from
    its first use on. Other iterations (an adversary may send any) are
    built afresh. *)

val interned_terminate_string : env -> bit:bool -> string
(** {!terminate_mining_string}, built once per env. *)

val committee_probability : env -> float
(** [λ/n] — Status/Vote/Commit/Terminate difficulty. *)

val propose_probability : env -> float
(** [1/(2n)] — Propose difficulty. *)

val quorum : env -> int
(** [⌈λ/2⌉]. *)

val make_vote :
  iter:int -> bit:bool -> proposal:proposal option ->
  cred:Bafmine.Eligibility.credential -> msg
(** Assemble a vote — used by adversaries for corrupt nodes. *)

val make_propose :
  iter:int -> bit:bool -> cert:elig_cert option -> node:int ->
  cred:Bafmine.Eligibility.credential -> msg

val valid_cert : env -> elig_cert -> bool
(** [λ/2] distinct verifying vote credentials. *)

val best_certificate : state -> elig_cert option
(** Inspectable for tests. [None] for a node that has absorbed nothing —
    including a node still riding the shared crowd listener of
    {!sparse_step}. *)

val sparse_step : unit -> (env, state, msg) Basim.Engine.sparse_step
(** A crowd-sparse round hook for {!Basim.Engine.run}'s [?sparse]
    argument, trace-equivalent to the dense [step] but O(active) per
    round instead of O(n · inbox).

    Every message here is a multicast, so nodes whose inbox equals the
    engine's shared delivery tail have — inductively — identical
    listener halves; the hook keeps ONE shared listener for that crowd,
    absorbs the tail once, and finishes each member's step with its O(1)
    private part (input bit, at most one rng coin, one
    {!Bafmine.Eligibility.t.sample} probe). A member whose inbox ever
    differs (a targeted adversary injection) forks a private listener
    from the round-start snapshot and runs dense steps from then on.

    [sparse_step ()] allocates the crowd state; the returned hook resets
    it whenever the engine starts a round-0, so one hook may serve
    repeated trials. Use with the protocols of {!protocol} only — the
    hook encodes this module's step logic. *)
