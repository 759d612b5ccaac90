(** Structured execution traces.

    The engine can emit one {!event} per noteworthy occurrence — sends,
    corruptions, after-the-fact removals, injections, halts — to an
    observer callback. Observers on offer: a {!collector} that gathers
    everything (tests, the CLI's [--trace] mode), a streaming
    {!jsonl_tracer} that writes one JSON object per event, and
    {!resource_tracer}, which turns round boundaries into GC rows.
    Rendering is message-agnostic so one tracer serves every protocol.

    {b Causal recording.} The message-bearing events ([Sent], [Removed],
    [Injected]) carry three extra fields filled only when the engine runs
    with a kind labeler ({!Engine.run}'s [?labeler]): a stable per-run
    message [id] (creation order, shared between a wire's [Sent]-or-
    [Removed] record), a protocol-supplied [kind] label, and the explicit
    [targets] list of a non-multicast send. Without a labeler they hold
    the sentinels [id = -1], [kind = ""], [targets = \[\]] and are
    {e omitted} from the JSON, so unlabeled traces serialize
    byte-identically to the legacy format. *)

type event =
  | Round_started of { round : int }
  | Sent of
      { round : int;
        node : int;
        multicast : bool;
        recipients : int;
        bits : int;
        id : int;        (** per-run wire id; [-1] without causal recording *)
        kind : string;   (** protocol kind label; [""] without recording *)
        targets : int list
            (** recipient ids of a targeted send; [[]] for multicasts and
                without recording *) }
      (** an honest send survived to delivery ([recipients] = n for a
          multicast) *)
  | Corrupted of { round : int; node : int }
      (** [round = -1] for setup-time (static) corruption *)
  | Removed of
      { round : int;
        victim : int;
        multicast : bool;
        recipients : int;
        bits : int;
        id : int;
        kind : string;
        targets : int list }
      (** an after-the-fact removal of one of [victim]'s sends; carries
          the erased send's shape so traces reconstruct the Definition-7
          accounting (erased honest sends still count). The [id] is the
          erased wire's — a removed wire emits {e no} [Sent] event, so
          ids partition into delivered and severed. *)
  | Injected of
      { round : int;
        src : int;
        recipients : int;
        bits : int;  (** wire size; [-1] without causal recording *)
        id : int;
        kind : string;
        targets : int list }
      (** the adversary made corrupt [src] send a message *)
  | Halted of { round : int; node : int; output : bool option }

val no_id : int
(** The [-1] sentinel of an unlabeled event's [id]. *)

val no_kind : string
(** The [""] sentinel of an unlabeled event's [kind]. *)

val pp_event : Format.formatter -> event -> unit

val round_of : event -> int

val kind_of : event -> string
(** Stable tag used as the ["event"] field of {!to_json}: one of
    [round_started], [sent], [corrupted], [removed], [injected],
    [halted]. *)

val message_id : event -> int option
(** The wire id of a message-bearing event ([Sent]/[Removed]/[Injected]);
    [None] for the others. May be [Some no_id] on unlabeled traces. *)

val to_json : event -> Baobs.Json.t
(** Causal fields ([id]/[kind]/[targets], and [Injected]'s [bits]) are
    emitted only when they differ from the unlabeled sentinels, so
    unlabeled traces keep the legacy wire format byte for byte. *)

val of_json : Baobs.Json.t -> event
(** Inverse of {!to_json} — the contract {!Bacheck.Trace_lint}'s file
    mode relies on: [of_json (to_json e) = e] for every event, so a
    [--trace-jsonl] file re-parses into the exact trace that was
    recorded. Legacy traces lacking the causal fields parse with the
    sentinel defaults ([id = -1], [kind = ""], [targets = []]).
    @raise Baobs.Json.Parse_error on missing fields, wrong field types,
    or an unknown ["event"] tag. *)

val validate : n:int -> event list -> unit
(** Refuse a trace no run of [n] nodes could have written, before
    anything is sized from it: round starts count up from 0, every other
    event's round lies in [\[-1, latest round start\]], and every node,
    victim, src and target in [\[0, n)].
    @raise Baobs.Json.Parse_error ["event K (kind): ..."], K counting
    events from 1 (the JSONL line without blank lines). *)

type collector

val collector : unit -> collector

val observe : collector -> event -> unit
(** The callback to hand to {!Engine.run} via [?tracer]. *)

val events : collector -> event list
(** All observed events, in order (memoized; O(1) after the first call
    until the next {!observe}). *)

val count : collector -> (event -> bool) -> int
(** Streaming count — never materializes the event list. *)

val length : collector -> int
(** Total events observed. *)

val jsonl_tracer : Baobs.Jsonl.t -> event -> unit
(** Streaming tracer: each event is written to the sink as one JSON
    line. *)

val events_of_jsonl : string -> event list
(** Parse a JSONL trace (blank lines skipped) — the inverse of
    {!jsonl_tracer}.
    @raise Baobs.Json.Parse_error naming the 1-based line of the first
    malformed event, e.g. [line 3: at 63: unterminated string]. *)

val resource_tracer : Baobs.Resource.t -> event -> unit
(** Drives a {!Baobs.Resource} recorder from the trace: each
    [Round_started r] closes the open row and opens row [r]. The
    caller opens the setup row ([round = -1]) before the run and
    closes the last row after it. *)

val render : ?max_rounds:int -> collector -> string
(** Human-readable, per-round digest of the trace (rounds beyond
    [max_rounds] are summarized; kind labels are shown when present). *)
