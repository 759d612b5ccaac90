(** Runtime-resource telemetry: GC/memory samplers, a per-round
    recorder of wall time and GC counters, and the memory-flatness
    analysis behind [ba_obs mem].

    The paper's sub-HM protocol wins because per-round work is polylog;
    the million-node engine (ROADMAP item 1) is gated on evidence that
    per-round {e memory} stays flat too. This module is the measuring
    instrument: cheap samplers over [Gc.quick_stat] (counter reads — no
    collection is triggered, no protocol-visible state is touched, so a
    recorded run's trace is byte-identical to an unrecorded one),
    delta snapshots between them, a per-round recorder driven from the
    trace stream, and JSON ([ba-resource/v2]) / CSV encoders plus the
    flatness check CI gates on.

    Each row also carries the round's wall time, read from the
    monotonic clock when the row opens and closes, so "how long did
    round r take" shares the round key of the GC counters.

    The engine knows nothing of the recorder. A caller that wants rows
    creates one, opens the setup window ([open_round ~round:(-1)])
    before [Engine.run], hands the run [Trace.resource_tracer] — each
    [Round_started r] event closes the open row and opens row [r] —
    and {!close}s the last row when the run returns. *)

(** {2 Samplers} *)

type sample = {
  minor_words : float;       (** cumulative words allocated in the minor heap *)
  promoted_words : float;    (** cumulative words promoted minor → major *)
  major_words : float;       (** cumulative words allocated in the major heap,
                                 including promotions *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;          (** current major-heap size (level, not counter) *)
  top_heap_words : int;      (** high-water major-heap size *)
}

val sample : unit -> sample
(** Snapshot via [Gc.quick_stat] — counter reads only, no collection. *)

val live_words : unit -> int
(** Live words via [Gc.stat]. {b Expensive}: forces a full major
    collection, so call it around runs, never per round. *)

type delta = {
  allocated_words : float;
      (** words newly allocated between the samples:
          minor + major − promoted (promotions would otherwise be
          double-counted) *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_growth_words : int;
      (** change in major-heap size — the one signed field: the heap
          can shrink *)
}

val delta : before:sample -> after:sample -> delta
(** All counter-derived fields are non-negative for samples taken in
    order on one domain (the counters are monotonic); only
    [heap_growth_words] can be negative. *)

(** {2 Per-round recorder} *)

type row = {
  round : int;               (** [-1] = setup (env, static corruptions,
                                 init — everything before round 0) *)
  ns : int;                  (** monotonic wall-clock nanoseconds from
                                 {!open_round} to the row's close; never
                                 negative *)
  row_allocated_words : float;
  row_promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  row_heap_words : int;      (** major-heap size at round end *)
  row_top_heap_words : int;  (** high water at round end *)
}

type t

val create : unit -> t

val open_round : t -> round:int -> unit
(** {!close} the open window, if any, then open one for [round]. *)

val close : t -> unit
(** Close the open window, appending its {!row}; a no-op when no window
    is open. *)

val rows : t -> row list
(** Recorded rows, in recording order. *)

val allocation_summary : t -> Bastats.Summary.t option
(** Streaming ({!Bastats.Sketch}) summary of allocated words per round
    over rows with [round >= 0] — O(1) memory however long the run.
    [None] when no such row was recorded. *)

val to_json : ?meta:(string * Json.t) list -> t -> Json.t
(** [ba-resource/v2]: [{schema; ...meta; totals; per_round; rounds}].
    Each entry of [rounds] is one {!row}; [totals.ns] is the sum of the
    rows' [ns].
    [meta] fields (protocol, n, seed, …) are spliced in after the
    schema tag. *)

val to_csv : t -> string

(** {2 Analysis ([ba_obs mem])} *)

type report
(** A parsed [ba-resource/v2] document. *)

val report_of_json : Json.t -> report
(** @raise Json.Parse_error on a missing/foreign schema tag (including
    the earlier [ba-resource/v1], whose rows carry no [ns]) or malformed
    rows. *)

val report_rows : report -> row list

type flatness = {
  warmup : int;        (** leading post-setup rounds excluded from the fit *)
  cooldown : int;      (** trailing rounds excluded — the decide/halt
                           phase is a one-off allocation spike, not a
                           leak *)
  measured : int;      (** rounds the fit ran over *)
  mean_words : float;  (** mean allocated words/round in the window *)
  slope_words : float; (** Theil–Sen slope (median of pairwise slopes),
                           words/round per round — robust to per-epoch
                           allocation bursts and decision-round spikes,
                           unlike a least-squares fit *)
  drift : float;       (** [slope × (measured − 1) / mean]: the fitted
                           relative change in per-round allocation
                           across the whole window *)
  tolerance : float;
  flat : bool;         (** [|drift| <= tolerance] *)
}

val flatness :
  ?warmup:int -> ?cooldown:int -> ?tolerance:float -> report -> flatness
(** Fit allocated-words-per-round against round index over the
    steady-state window — executed rounds with the first [warmup] and
    last [cooldown] trimmed (setup row excluded) — with a Theil–Sen
    estimator. [warmup] and [cooldown] each default to a fifth of the
    rounds (at least 1); [tolerance] defaults to 0.25. Fewer than 3
    windowed rounds fit trivially flat. *)

val report_to_text : report -> flatness -> string

val report_to_json : report -> flatness -> Json.t
(** [ba-mem-report/v1]. *)

val report_to_csv : report -> string
