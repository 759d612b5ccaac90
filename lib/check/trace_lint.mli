(** Trace-invariant verifier.

    Consumes a {!Basim.Trace} event stream — live from a collector, or
    re-parsed from a [--trace-jsonl] file via {!Baobs.Json} — and checks
    the structural invariants that the paper's adversary models impose
    on any legal execution. Each violation is a typed {!finding}; an
    empty result certifies the trace.

    The invariants, and the paper rule each enforces:

    - {b round monotonicity} ({!Non_monotonic_round},
      {!Round_mismatch}): the synchronous model of Appendix A.1 —
      rounds advance strictly and every event belongs to the round in
      progress;
    - {b removal discipline} ({!Removal_without_model},
      {!Removal_of_uncorrupted}): after-the-fact removal exists only for
      the strongly adaptive adversary (Theorem 1), and only against a
      victim corrupted in that same round — the "cannot retract, except
      in the corruption round" rule;
    - {b budget} ({!Over_budget}): at most [f] nodes ever corrupted;
    - {b corruption semantics} ({!Static_midround_corruption},
      {!Sent_while_corrupt}, {!Injection_from_honest}): static
      adversaries corrupt only at setup; a corrupt node stops running
      the honest protocol, so its traffic must appear as [Injected],
      never [Sent]; only corrupt nodes can be injected from;
    - {b halting} ({!Event_after_halt}): a halted node sends nothing in
      later rounds;
    - {b Definition-7 accounting} ({!Accounting_mismatch}): the trace
      replayed through {!Basim.Metrics.of_events} ([Sent] {e plus}
      [Removed] events, since erased honest sends still count) must
      equal the {!Basim.Metrics} of the same run in every per-(round,
      node, kind) series cell and in [rounds]. *)

type kind =
  | Non_monotonic_round  (** [Round_started] rounds not strictly increasing *)
  | Round_mismatch  (** event's round field differs from the round in progress *)
  | Static_midround_corruption  (** [Corrupted] at round ≥ 0 under [Static] *)
  | Over_budget  (** more than [budget] distinct nodes corrupted *)
  | Removal_without_model  (** [Removed] under a model without removal *)
  | Removal_of_uncorrupted
      (** victim honest, or corrupted in a different round *)
  | Sent_while_corrupt  (** [Sent] by a node corrupted in an earlier round *)
  | Injection_from_honest  (** [Injected] from a never-corrupted source *)
  | Event_after_halt  (** [Sent] after the node halted, or a duplicate halt *)
  | Accounting_mismatch
      (** a series cell (or [rounds]) of the trace's replay disagrees
          with {!Basim.Metrics}; one finding per kind, at its first
          differing cell *)

type finding = {
  kind : kind;
  round : int;  (** round of the offending event ([-1] = pre-execution) *)
  node : int option;  (** offending node, when one is identifiable *)
  detail : string;
}

val kind_name : kind -> string
(** Stable kebab-case tag, e.g. ["removal-without-model"]. *)

val pp_finding : Format.formatter -> finding -> unit

val findings_to_json : finding list -> Baobs.Json.t

val verify :
  ?metrics:Basim.Metrics.t ->
  model:Basim.Corruption.model ->
  budget:int ->
  Basim.Trace.event list ->
  finding list
(** Check every invariant over a full (unfiltered) event stream; [[]]
    means the trace is clean. [metrics], when given, must come from the
    same run — enables the Definition-7 accounting cross-check, cell by
    cell. [Injection_bits] cells are skipped when the trace did not
    record injection bits (an unlabeled run), and a trace
    {!Basim.Trace.validate} refuses is one accounting finding. *)
