open Basim
open Bacore

type adversary = Passive | Split_vote of int

type shape = {
  name : string;
  n : int;
  world : [ `Hybrid | `Real ];
  sparse : bool;
  adversary : adversary;
  trace_sink : bool;
  corpus : int;
}

let dense_801 =
  { name = "dense-801"; n = 801; world = `Hybrid; sparse = false;
    adversary = Passive; trace_sink = false; corpus = 32 }

let sparse_100k =
  { name = "sparse-100k"; n = 100_000; world = `Hybrid; sparse = true;
    adversary = Passive; trace_sink = false; corpus = 4 }

let attack_real_201 =
  { name = "attack-real-201"; n = 201; world = `Real; sparse = false;
    adversary = Split_vote 60; trace_sink = true; corpus = 32 }

let all = [ dense_801; sparse_100k; attack_real_201 ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

let instance_seed i = Int64.of_int (i + 1)

let lambda = 40

let epochs = 40

(* ba_run's round limit for the same epoch cap. *)
let max_rounds = (4 * epochs) + 12

type stamps = { mutable run_start : int; mutable phase1 : int; mutable run_end : int }

let execute_stamped ?layers shape ~buf ~stamps i =
  let n = shape.n in
  let seed = instance_seed i in
  let inputs = Scenario.random_inputs ~n seed in
  let proto =
    Sub_hm.protocol ~params:(Params.make ~lambda ~max_epochs:epochs ())
      ~world:shape.world
  in
  let adversary, budget =
    match shape.adversary with
    | Passive -> (Engine.passive ~name:"none" ~model:Corruption.Adaptive, 0)
    | Split_vote f -> (Baattacks.Split_vote.sub_hm (), f)
  in
  let sparse = if shape.sparse then Some (Sub_hm.sparse_step ()) else None in
  let tracer =
    if shape.trace_sink then begin
      Buffer.clear buf;
      Some (Trace.jsonl_tracer (Baobs.Jsonl.to_buffer buf))
    end
    else None
  in
  let proto, adversary, sparse, tracer =
    match layers with
    | None -> (proto, adversary, sparse, tracer)
    | Some t ->
        ( Layers.protocol t proto,
          Layers.adversary t adversary,
          Option.map (Layers.sparse t) sparse,
          Option.map (Layers.tracer t) tracer )
  in
  (* Setup ends, and round 0 begins, at the first phase-1 call. *)
  let mark () =
    if stamps.phase1 = 0 then begin
      stamps.phase1 <- Clock.now_ns ();
      Option.iter Layers.open_rounds layers
    end
  in
  let step = proto.Engine.step in
  let proto =
    { proto with
      Engine.step =
        (fun env st ~round ~inbox ->
          mark ();
          step env st ~round ~inbox) }
  in
  let sparse =
    Option.map
      (fun hook env ~states rv ->
        mark ();
        hook env ~states rv)
      sparse
  in
  let run () =
    Engine.run ?tracer ?sparse proto ~adversary ~n ~budget ~inputs ~max_rounds
      ~seed
  in
  stamps.run_start <- Clock.now_ns ();
  let result =
    match layers with None -> run () | Some t -> Layers.time t Layers.Run run
  in
  stamps.run_end <- Clock.now_ns ();
  (inputs, result)

let execute ?layers shape ~buf i =
  execute_stamped ?layers shape ~buf
    ~stamps:{ run_start = 0; phase1 = 0; run_end = 0 }
    i

type outcome = {
  index : int;
  ok : bool;
  error : string;
  wall_ns : int;
  run_ns : int;
  setup_ns : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  node_rounds : int;
  rounds : int;
  multicasts : int;
  bits : int;
  deliveries : int;
  injections : int;
  trace_bytes : int;
  cert_entries : int;
  fmine_attempts : int;
  fmine_successes : int;
  digest : string;
}

let output_char = function None -> '-' | Some true -> '1' | Some false -> '0'

let digest shape (r : Engine.result) buf =
  Bacrypto.Sha256.to_hex
    (Bacrypto.Sha256.digest_concat
       [ String.init shape.n (fun i -> output_char r.Engine.outputs.(i));
         Baobs.Json.to_string (Metrics.to_json r.Engine.metrics);
         (if shape.trace_sink then Buffer.contents buf else "") ])

let run_instance ?layers shape ~buf i =
  (* Start from a compacted heap, so an instance's cost and the peak
     heap do not depend on which instances ran before it. *)
  Gc.compact ();
  let stamps = { run_start = 0; phase1 = 0; run_end = 0 } in
  let minor0 = Gc.minor_words () in
  let gc0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let judged =
    match execute_stamped ?layers shape ~buf ~stamps i with
    | inputs, result ->
        Ok (result, Properties.ok (Properties.agreement ~inputs result))
    | exception e -> Error (Printexc.to_string e)
  in
  let wall_ns = Clock.now_ns () - t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  let gc1 = Gc.quick_stat () in
  let minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
  let major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections in
  let promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words in
  let failed error =
    { index = i; ok = false; error; wall_ns; run_ns = 0; setup_ns = 0;
      minor_words; minor_collections; major_collections; promoted_words;
      node_rounds = 0; rounds = 0; multicasts = 0; bits = 0;
      deliveries = 0; injections = 0; trace_bytes = 0; cert_entries = 0;
      fmine_attempts = 0; fmine_successes = 0; digest = "raised: " ^ error }
  in
  match judged with
  | Error e -> failed e
  | Ok (r, ok) ->
      let m = r.Engine.metrics in
      let env = Option.bind layers Layers.last_env in
      let fmine = Option.bind env (fun env -> env.Sub_hm.fmine) in
      let fmine_count f = Option.fold ~none:0 ~some:f fmine in
      { index = i;
        ok;
        error = "";
        wall_ns;
        run_ns = stamps.run_end - stamps.run_start;
        setup_ns = stamps.phase1 - stamps.run_start;
        minor_words;
        minor_collections;
        major_collections;
        promoted_words;
        node_rounds = shape.n * r.Engine.rounds_used;
        rounds = r.Engine.rounds_used;
        multicasts = Metrics.honest_multicasts m;
        bits = Metrics.honest_multicast_bits m;
        deliveries = Metrics.classical_messages m;
        injections = Metrics.injections m;
        trace_bytes = (if shape.trace_sink then Buffer.length buf else 0);
        cert_entries =
          Option.fold ~none:0
            ~some:(fun env -> Hashtbl.length env.Sub_hm.cert_cache)
            env;
        fmine_attempts = fmine_count Bafmine.Fmine.attempts;
        fmine_successes = fmine_count Bafmine.Fmine.successes;
        digest = digest shape r buf }
