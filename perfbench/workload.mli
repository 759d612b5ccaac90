(** The benchmark's workloads and the BA instance they run.

    Every workload runs sub-HM (Theorem 2) with λ = 40 and a 40-iteration
    cap over a fixed corpus of instances: instance [i] uses engine seed
    [i + 1] and {!Basim.Scenario.random_inputs} drawn from that seed,
    the same execution as [ba_run --seed (i+1) --inputs random]. The
    corpus is fixed because one instance's cost spans 7 to 55 rounds
    with the seed: drawing fresh instances per run would make the
    run-to-run spread reflect the draw, not the code. *)

type adversary =
  | Passive
  | Split_vote of int  (** {!Baattacks.Split_vote.sub_hm} with budget [f] *)

type shape = {
  name : string;
  n : int;
  world : [ `Hybrid | `Real ];
  sparse : bool;  (** phase 1 through {!Bacore.Sub_hm.sparse_step} *)
  adversary : adversary;
  trace_sink : bool;  (** JSONL trace of every event, to memory *)
  corpus : int;  (** instances per pass *)
}

val dense_801 : shape

val sparse_100k : shape

val attack_real_201 : shape

val all : shape list

val find : string -> shape option

val instance_seed : int -> int64

val execute :
  ?layers:Layers.t -> shape -> buf:Buffer.t -> int -> bool array * Basim.Engine.result
(** [execute shape ~buf i] runs instance [i] once and returns its inputs
    and result; with [shape.trace_sink] the JSONL trace is left in
    [buf]. With [layers], every callback is wrapped (see {!Layers}).
    Exceptions from the run propagate. *)

type outcome = {
  index : int;
  ok : bool;  (** no exception and {!Basim.Properties.agreement} holds *)
  error : string;  (** the exception, when one was raised *)
  wall_ns : int;  (** the whole instance: inputs, run, verdict *)
  run_ns : int;  (** [Engine.run] alone *)
  setup_ns : int;
      (** [Engine.run] entry to the first phase-1 call: trusted setup,
          static corruptions and node [init] *)
  minor_words : float;
  minor_collections : int;
      (** GC counts from after the compaction that starts the instance *)
  major_collections : int;
  promoted_words : float;
  node_rounds : int;  (** [n × rounds used] *)
  rounds : int;
  multicasts : int;  (** honest multicasts (Definition 7) *)
  bits : int;  (** honest multicast bits (Definition 7) *)
  deliveries : int;  (** classical messages *)
  injections : int;
  trace_bytes : int;
  cert_entries : int;  (** final cert-cache size; traced instances only *)
  fmine_attempts : int;  (** [Fmine.attempts]; traced hybrid instances only *)
  fmine_successes : int;
  digest : string;
      (** SHA-256 over outputs, the engine's metrics JSON and the trace
          bytes: equal digests mean equal simulated work *)
}

val run_instance : ?layers:Layers.t -> shape -> buf:Buffer.t -> int -> outcome
(** {!execute} timed and judged; never raises. Compacts the heap
    first, outside the timed window. *)
