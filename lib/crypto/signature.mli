(** Idealized digital-signature functionality.

    The honest-majority protocols of Appendix C sign every message and relay
    certificates (sets of signed votes). The proofs use signatures only for
    (a) sender authenticity and (b) transferability of votes inside
    certificates, so we provide an {e idealized} functionality: a trusted
    setup holds one MAC key per node; [sign] produces an HMAC tag; [verify]
    recomputes it with the signer's key held by the functionality. Within
    the simulation, unforgeability is absolute — adversary code can only
    sign for nodes whose keys it has been handed via {!corrupt_key}, which
    the engine calls on corruption. This strengthens (never weakens) every
    experiment relative to computational signatures; see DESIGN.md §3. *)

type scheme
(** The signature functionality for one protocol execution. *)

type tag = string
(** A signature (32 raw bytes). *)

val setup : n:int -> Rng.t -> scheme
(** [setup ~n rng] creates keys for nodes [0 .. n-1]. *)

val n : scheme -> int
(** Number of registered nodes. *)

val sign : scheme -> signer:int -> string -> tag
(** [sign scheme ~signer msg] is the signature of [msg] by [signer]. In the
    engine, honest nodes sign their own messages; adversaries may call this
    only for corrupt signers (enforced by engine discipline, validated in
    tests). @raise Invalid_argument on an out-of-range signer. *)

val verify : scheme -> signer:int -> string -> tag -> bool
(** [verify scheme ~signer msg tag] checks that [tag] is [signer]'s
    signature of [msg]. *)

val verify_batch : scheme -> (int * string * tag) list -> bool list
(** [verify_batch scheme [(signer, msg, tag); ...] = List.map (fun
    (signer, msg, tag) -> verify scheme ~signer msg tag) ...]: one
    amortized HMAC sweep over the per-signer midstates.
    @raise Invalid_argument on any out-of-range signer. *)

val corrupt_key : scheme -> int -> string
(** [corrupt_key scheme i] reveals node [i]'s signing key — handed to the
    adversary when it corrupts [i]. *)

val tag_bits : int
(** Wire size of a signature in bits. *)
