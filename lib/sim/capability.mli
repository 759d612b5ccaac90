(** Static adversary-capability declarations.

    The paper's separations hinge on {e exact} adversary-capability
    boundaries: after-the-fact removal is legal only for the strongly
    adaptive adversary (Theorem 1), and the Ω(f²)-vs-polylog gap
    dissolves if an attack silently uses power its model does not grant.
    Every {!Engine.adversary} therefore carries a {!decl} stating, up
    front, which powers its [intervene]/[setup] functions may exercise.
    {!validate} checks a declaration against a {!Corruption.model}
    before a single round runs, and the engine additionally referees
    every action against the declaration at runtime — an adversary can
    do strictly less than it declared, never more. *)

type t =
  | Setup_corruption
      (** Corrupts nodes before the execution starts (legal under every
          model — a static corruption is within all three). *)
  | Midround_corruption
      (** Corrupts nodes mid-execution; requires
          {!Corruption.allows_dynamic_corruption}. *)
  | After_fact_removal
      (** Erases already-sent intents of freshly corrupted nodes;
          requires {!Corruption.allows_removal}. *)
  | Injection
      (** Makes corrupt nodes send adversary-chosen messages. *)

val all : t list
(** Every capability, in declaration order. *)

val name : t -> string
(** Stable kebab-case tag: [setup-corruption], [midround-corruption],
    [after-fact-removal], [injection]. *)

type decl = {
  caps : t list;  (** powers the adversary may exercise *)
  budget_bound : int option;
      (** self-imposed cap on total corruptions; [None] means "up to the
          granted budget [f]". The engine refuses corruptions beyond
          [min f bound]. *)
}

val has : decl -> t -> bool

val none : decl
(** The passive declaration: no capabilities, budget bound 0. *)

val unrestricted : decl
(** Everything, unbounded — for harness-internal adversaries whose
    power set is decided elsewhere (e.g. model-parametric fuzzers). *)

type mismatch =
  | Removal_not_allowed of Corruption.model
      (** [After_fact_removal] declared under a model without removal. *)
  | Midround_not_allowed of Corruption.model
      (** [Midround_corruption] declared under [Static]. *)
  | Bound_exceeds_budget of { bound : int; budget : int }
      (** The declared budget bound exceeds the granted budget [f]. *)

val validate : decl -> model:Corruption.model -> budget:int -> mismatch list
(** All declaration-vs-model mismatches, using
    {!Corruption.allows_removal} and
    {!Corruption.allows_dynamic_corruption}; [[]] means the declaration
    is consistent with the model. *)

val mismatch_to_string : mismatch -> string
