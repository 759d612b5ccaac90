(** Adaptively secure verifiable random function, built exactly as in the
    paper's Appendix D.4: the public key is a perfectly binding commitment
    to a PRF secret key, the VRF output on a message [m] is [PRF_sk(m)],
    and the proof is a NIZK for the language L of Appendix D.3 ("this
    output is the PRF of the key committed in my public key, evaluated on
    [m]").

    This is the object that makes {e vote-specific eligibility} work:
    evaluating requires the secret key (so the adversary cannot predict an
    honest node's eligibility), while the proof lets everyone verify an
    announced eligibility. *)

type params = {
  crs_comm : Commitment.crs;  (** commitment CRS from trusted setup *)
  crs_nizk : Nizk.crs;        (** NIZK CRS from trusted setup *)
}

type sk = {
  index : int;              (** owning node *)
  prf_key : Prf.key;        (** committed PRF key *)
  prf_cached : Prf.cached;  (** same key with HMAC midstates precomputed *)
  salt : string;            (** commitment randomness (part of the witness) *)
}

type pk = {
  pk_index : int;           (** owning node *)
  com : Commitment.t;       (** commitment to the node's PRF key *)
}

type evaluation = {
  rho : string;        (** pseudorandom output *)
  proof : Nizk.proof;  (** NIZK of correct evaluation *)
}

val keygen : params -> Rng.t -> index:int -> sk * pk
(** Sample a key pair for node [index] (run inside trusted setup). *)

val eval : params -> sk -> string -> evaluation
(** [eval params sk m] evaluates the VRF: output [PRF_sk(m)] plus proof. *)

val verify : params -> pk -> string -> evaluation -> bool
(** [verify params pk m ev] checks [ev.proof] against the statement
    [(ev.rho, pk.com, crs_comm, m)]. Sound: accepts only genuine
    evaluations under the key committed in [pk]. *)

val verify_batch : params -> (pk * string * evaluation) list -> bool list
(** [verify_batch params [(pk, m, ev); ...] = List.map (fun (pk, m, ev)
    -> verify params pk m ev) ...]: one amortized NIZK sweep (all proofs
    under a CRS share the trapdoor key). *)

val output_fraction : evaluation -> float
(** The output mapped to a uniform fraction in [\[0,1)]; compare against a
    difficulty expressed as a probability. *)

val evaluation_bits : evaluation -> int
(** Wire size charged for attaching [(rho, proof)] to a message. *)
