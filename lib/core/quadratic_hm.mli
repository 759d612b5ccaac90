(** The quadratic honest-majority BA of Appendix C.1 — the protocol of
    Abraham et al. (Financial Crypto 2019, reference [1] of the paper) that
    the flagship subquadratic protocol ({!Sub_hm}) is derived from.

    [n = 2f + 1] nodes; iterations of four synchronous rounds — {b Status},
    {b Propose}, {b Vote}, {b Commit} — plus an any-time {b Terminate}
    rule; a public random leader per iteration (the leader-election
    oracle, which {!Sub_hm} later removes):

    - {b Status}: every node multicasts its highest certificate.
    - {b Propose}: the leader multicasts the bit carrying the highest
      certificate it knows (ties broken by coin; no certificate at all is
      the "iteration-0 certificate").
    - {b Vote}: a node votes for the leader's bit [b] — with the
      proposal attached, so votes are useless without a matching
      proposal — unless it knows a {e strictly} higher certificate for
      [1−b] (an equal-rank opposite certificate does {e not} block the
      vote).
    - {b Commit}: on [f+1] iteration-[r] votes for [b] and {e no}
      iteration-[r] vote for [1−b], multicast a Commit carrying the
      freshly formed certificate.
    - {b Terminate} (any time): on [f+1] Commits for the same [(r, b)],
      multicast [(Terminate, b)] with the Commits attached, output [b]
      and halt; receiving a valid Terminate makes a node re-multicast it,
      output and halt one round later.

    Iteration 1 skips Status and Propose: every node votes its input.

    All messages carry idealized signatures; certificates are
    transferable. Expected-constant iterations: each iteration's leader
    is honest with probability ≥ 1/2, and an honest-leader iteration
    terminates everyone. *)

type vote_cert = Bacrypto.Signature.tag Cert.t

type proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : vote_cert option;
  p_tag : Bacrypto.Signature.tag;
}

type msg =
  | Status of {
      iter : int;
      bit : bool;
      cert : vote_cert option;
      tag : Bacrypto.Signature.tag;
    }
  | Propose of proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : proposal option;  (** [None] only in iteration 1 *)
      tag : Bacrypto.Signature.tag;
    }
  | Commit of {
      iter : int;
      bit : bool;
      cert : vote_cert;
      tag : Bacrypto.Signature.tag;
    }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * Bacrypto.Signature.tag) list;
      tag : Bacrypto.Signature.tag;
    }

val msg_kind : msg -> string
(** Stable kind label for causal tracing: ["status"], ["propose"],
    ["vote"], ["commit"], or ["terminate"]. *)

type env = {
  n : int;
  f : int;                      (** (n−1)/2 *)
  sigs : Bacrypto.Signature.scheme;
  leaders : int array;          (** public random leader per iteration *)
  max_iters : int;
  cert_cache : (vote_cert, unit) Hashtbl.t;
      (** cache of positively verified certificates (sound: verification
          is deterministic; purely a simulation speedup) *)
  proposal_cache : (proposal, unit) Hashtbl.t;
      (** same, for leader proposals *)
}

type state

val protocol :
  ?max_iters:int -> unit -> (env, state, msg) Basim.Engine.protocol
(** The protocol record. [max_iters] (default 40) caps the execution: a
    node reaching the cap without deciding halts {e without} output,
    surfacing a termination failure to the property checker. *)

type phase =
  | Phase_status of int
  | Phase_propose of int
  | Phase_vote of int
  | Phase_commit of int

val phase_of_round : int -> phase
(** Round-to-phase layout: iteration 1 occupies rounds 0–1 (Vote,
    Commit); iteration [r ≥ 2] occupies the four rounds starting at
    [2 + 4(r−2)]. *)

val leader : env -> iter:int -> int
(** The public random leader of an iteration. *)

val vote_stmt : iter:int -> bit:bool -> string
(** The signed statement of a vote; exposed so adversaries can produce
    corrupt votes and so tests can check certificate validity. *)

val commit_stmt : iter:int -> bit:bool -> string

val propose_stmt : iter:int -> bit:bool -> string

val sign_vote :
  env -> signer:int -> iter:int -> bit:bool -> proposal option -> msg
(** Build a validly signed vote for a corrupt node. *)

val sign_propose :
  env -> signer:int -> iter:int -> bit:bool -> vote_cert option -> msg
(** Build a signed proposal (meaningful when [signer] is the iteration's
    leader). *)

val valid_cert : env -> vote_cert -> bool
(** [f+1] distinct valid vote signatures for the certificate's
    (iteration, bit). *)

val best_certificate : state -> vote_cert option
(** The node's highest-ranked certificate (inspectable for tests). *)
