(* Equivalence of the structurally-shared delivery engine against a naive
   reference implementation.

   The engine delivers each multicast by consing it once onto a shared
   tail; the reference below rebuilds every inbox element-by-element (cons
   per recipient + reverse), which is the behavior the engine had before
   the sharing optimization. Random scripted scenarios — mixed
   multicast/unicast intents (including out-of-range and duplicate
   targets), halts, setup and mid-round corruptions, after-the-fact
   removals, and injections — must produce identical per-round inboxes,
   identical trace event streams, identical metrics (per-round,
   per-node series included), and identical result summaries under
   both. *)

open Basim

(* ------------------------------------------------------------------ *)
(* Scripted scenarios                                                 *)
(* ------------------------------------------------------------------ *)

type plan = {
  n : int;
  max_rounds : int;
  setup_corrupt : int list;
  halts : int array;  (* round at which a node halts, or max_int *)
  sends : (Engine.dest * int) list array array;  (* sends.(round).(node) *)
  actions : int Engine.action list array;  (* per-round, pre-sanitized *)
}

let msg_bits m = 8 + (m land 31)

type state = { me : int; stopped : bool }

(* The protocol ignores its inputs and rng and replays the plan; every
   step records the inbox it was handed into its node's [log] slot.
   One slot per node (not one shared list) keeps the recording
   independent of step order; the harness flattens the slots into
   (round, node) order afterwards. *)
let scripted plan (log : ((int * int) * (int * int) list) list ref array) :
    (unit, state, int) Engine.protocol =
  { Engine.proto_name = "scripted";
    make_env = (fun ~n:_ _ -> ());
    init = (fun () ~rng:_ ~n:_ ~me ~input:_ -> { me; stopped = false });
    step =
      (fun () s ~round ~inbox ->
        log.(s.me) := ((round, s.me), inbox) :: !(log.(s.me));
        let sends =
          List.map
            (fun (dst, payload) -> { Engine.dst; payload })
            plan.sends.(round).(s.me)
        in
        let s' = if plan.halts.(s.me) = round then { s with stopped = true } else s in
        (s', sends));
    output = (fun s -> if s.stopped then Some true else None);
    halted = (fun s -> s.stopped);
    msg_bits = (fun () m -> msg_bits m) }

let script_adversary plan : (unit, int) Engine.adversary =
  { Engine.adv_name = "scripted";
    model = Corruption.Strongly_adaptive;
    caps = Capability.unrestricted;
    setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> plan.setup_corrupt);
    intervene = (fun view -> plan.actions.(view.Engine.round)) }

(* ------------------------------------------------------------------ *)
(* Reference engine (naive delivery, as before structural sharing)    *)
(* ------------------------------------------------------------------ *)

type rwire = {
  r_src : int;
  r_dst : Engine.dest;
  r_payload : int;
  mutable r_erased : bool;
  r_honest : bool;
}

type run_summary = {
  logs : ((int * int) * (int * int) list) list;  (* ((round, node), inbox) *)
  events : Trace.event list;
  metrics_json : string;  (* aggregates, then the per-round series *)
  outputs : bool option array;
  corrupt : bool array;
  corruptions : int;
  rounds_used : int;
  all_honest_decided : bool;
  halt_rounds : int option array;
}

let metrics_json m =
  Baobs.Json.to_string (Metrics.to_json m)
  ^ Baobs.Json.to_string (Baobs.Series.to_json (Metrics.series m))

let recipients_of n = function
  | Engine.All -> n
  | Engine.Only targets -> List.length targets

let run_reference plan =
  let n = plan.n in
  let metrics = Metrics.create ~n in
  let events = ref [] and log = ref [] in
  let emit e = events := e :: !events in
  let corrupt = Array.make n false in
  let halted = Array.make n false in
  let halt_rounds = Array.make n None in
  let corruptions = ref 0 in
  List.iter
    (fun i ->
      if not corrupt.(i) then begin
        corrupt.(i) <- true;
        incr corruptions
      end;
      Metrics.record_corruption metrics ~round:(-1) ~node:i;
      emit (Trace.Corrupted { round = -1; node = i }))
    plan.setup_corrupt;
  let inboxes = Array.make n [] in
  let round = ref 0 in
  let running = ref true in
  while !running && !round < plan.max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    emit (Trace.Round_started { round = r });
    (* Phase 1: steps, halts, and this round's honest wires (ascending). *)
    let wires = ref [] in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then begin
        log := ((r, i), inboxes.(i)) :: !log;
        List.iter
          (fun (dst, payload) ->
            wires :=
              { r_src = i; r_dst = dst; r_payload = payload; r_erased = false;
                r_honest = true }
              :: !wires)
          plan.sends.(r).(i);
        if plan.halts.(i) = r then begin
          halted.(i) <- true;
          halt_rounds.(i) <- Some r;
          emit (Trace.Halted { round = r; node = i; output = Some true })
        end
      end
    done;
    let wires = List.rev !wires in
    (* Phase 2: scripted adversary actions, in order. *)
    let injections = ref [] in
    List.iter
      (fun action ->
        match action with
        | Engine.Corrupt i ->
            if not corrupt.(i) then begin
              corrupt.(i) <- true;
              incr corruptions
            end;
            Metrics.record_corruption metrics ~round:r ~node:i;
            emit (Trace.Corrupted { round = r; node = i })
        | Engine.Remove { victim; index } ->
            let seen = ref 0 in
            List.iter
              (fun w ->
                if w.r_src = victim && w.r_honest then begin
                  if !seen = index then begin
                    assert (not w.r_erased);
                    w.r_erased <- true;
                    Metrics.record_removal metrics ~round:r ~node:victim;
                    emit
                      (Trace.Removed
                         { round = r;
                           victim;
                           multicast = (w.r_dst = Engine.All);
                           recipients = recipients_of n w.r_dst;
                           bits = msg_bits w.r_payload;
                           id = Trace.no_id;
                           kind = Trace.no_kind;
                           targets = [] })
                  end;
                  incr seen
                end)
              wires
        | Engine.Inject { src; dst; payload } ->
            Metrics.record_injection metrics ~round:r ~node:src
              ~bits:(msg_bits payload);
            emit
              (Trace.Injected
                 { round = r; src; recipients = recipients_of n dst;
                   bits = -1; id = Trace.no_id; kind = Trace.no_kind;
                   targets = [] });
            injections :=
              { r_src = src; r_dst = dst; r_payload = payload; r_erased = false;
                r_honest = false }
              :: !injections)
      plan.actions.(r);
    (* Phase 3: account (honest wires, descending) and deliver naively. *)
    let all_wires = List.rev_append !injections (List.rev wires) in
    List.iter
      (fun w ->
        if w.r_honest then begin
          let bits = msg_bits w.r_payload in
          (match w.r_dst with
          | Engine.All ->
              Metrics.record_honest_multicast metrics ~round:r ~node:w.r_src
                ~bits
          | Engine.Only targets ->
              Metrics.record_honest_unicast metrics ~round:r ~node:w.r_src
                ~recipients:(List.length targets) ~bits);
          if not w.r_erased then
            emit
              (Trace.Sent
                 { round = r;
                   node = w.r_src;
                   multicast = (w.r_dst = Engine.All);
                   recipients = recipients_of n w.r_dst;
                   bits;
                   id = Trace.no_id;
                   kind = Trace.no_kind;
                   targets = [] })
        end)
      all_wires;
    let next = Array.make n [] in
    List.iter
      (fun w ->
        if not w.r_erased then
          match w.r_dst with
          | Engine.All ->
              for j = 0 to n - 1 do
                next.(j) <- (w.r_src, w.r_payload) :: next.(j)
              done
          | Engine.Only targets ->
              List.iter
                (fun j ->
                  if j >= 0 && j < n then
                    next.(j) <- (w.r_src, w.r_payload) :: next.(j))
                targets)
      all_wires;
    for j = 0 to n - 1 do
      inboxes.(j) <- List.rev next.(j)
    done;
    incr round;
    let any_active = ref false in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then any_active := true
    done;
    if not !any_active then running := false
  done;
  let outputs =
    Array.init n (fun i -> if halted.(i) then Some true else None)
  in
  let all_honest_decided =
    let ok = ref true in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then ok := false
    done;
    !ok
  in
  { logs = List.rev !log;
    events = List.rev !events;
    metrics_json = metrics_json metrics;
    outputs;
    corrupt;
    corruptions = !corruptions;
    rounds_used = !round;
    all_honest_decided;
    halt_rounds }

let run_real plan =
  let log = Array.init plan.n (fun _ -> ref []) in
  let collector = Trace.collector () in
  let result =
    Engine.run
      ~tracer:(Trace.observe collector)
      (scripted plan log)
      ~adversary:(script_adversary plan)
      ~n:plan.n ~budget:plan.n
      ~inputs:(Array.make plan.n false)
      ~max_rounds:plan.max_rounds ~seed:11L
  in
  let logs =
    Array.to_list log
    |> List.concat_map (fun slot -> List.rev !slot)
    |> List.sort (fun (k1, _) (k2, _) -> compare (k1 : int * int) k2)
  in
  { logs;
    events = Trace.events collector;
    metrics_json = metrics_json result.Engine.metrics;
    outputs = result.Engine.outputs;
    corrupt = result.Engine.corrupt;
    corruptions = result.Engine.corruptions;
    rounds_used = result.Engine.rounds_used;
    all_honest_decided = result.Engine.all_honest_decided;
    halt_rounds = result.Engine.halt_rounds }

(* ------------------------------------------------------------------ *)
(* Scenario generation                                                *)
(* ------------------------------------------------------------------ *)

type raw_action = C of int | R of int * int | I of int * Engine.dest * int

let gen_dest n =
  QCheck.Gen.(
    frequency
      [ (3, return Engine.All);
        (2,
         map
           (fun targets -> Engine.Only targets)
           (* Includes -1 and n: out-of-range targets are silently
              dropped by delivery; duplicates deliver twice. *)
           (list_size (0 -- 4) (int_range (-1) n))) ])

(* Turn raw candidates into a legal script by tracking who is corrupt,
   who halted, and how many wires each node put up this round; illegal
   candidates are dropped, Remove indices are folded into range, and
   double-erasures are skipped. *)
let sanitize ~n ~rounds ~setup ~halts ~sends raw =
  let corrupt = Array.make n false in
  List.iter (fun i -> corrupt.(i) <- true) setup;
  let halted = Array.make n false in
  let actions = Array.make rounds [] in
  for r = 0 to rounds - 1 do
    let wire_count = Array.make n 0 in
    for i = 0 to n - 1 do
      if (not corrupt.(i)) && not halted.(i) then begin
        wire_count.(i) <- List.length sends.(r).(i);
        if halts.(i) = r then halted.(i) <- true
      end
    done;
    let erased = Hashtbl.create 8 in
    actions.(r) <-
      List.filter_map
        (fun candidate ->
          match candidate with
          | C i ->
              corrupt.(i) <- true;
              Some (Engine.Corrupt i)
          | R (v, k) ->
              if corrupt.(v) && wire_count.(v) > 0 then begin
                let index = k mod wire_count.(v) in
                if Hashtbl.mem erased (v, index) then None
                else begin
                  Hashtbl.add erased (v, index) ();
                  Some (Engine.Remove { victim = v; index })
                end
              end
              else None
          | I (src, dst, payload) ->
              if corrupt.(src) then Some (Engine.Inject { src; dst; payload })
              else None)
        raw.(r)
  done;
  actions

let gen_plan =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 1 4 >>= fun rounds ->
    list_size (0 -- 2) (int_range 0 (n - 1)) >>= fun setup ->
    array_size (return n)
      (frequency [ (3, return max_int); (1, int_range 0 (rounds - 1)) ])
    >>= fun halts ->
    array_size (return rounds)
      (array_size (return n)
         (list_size (0 -- 3) (pair (gen_dest n) (int_range 0 100))))
    >>= fun sends ->
    array_size (return rounds)
      (list_size (0 -- 4)
         (frequency
            [ (2, map (fun i -> C i) (int_range 0 (n - 1)));
              (2, map2 (fun v k -> R (v, k)) (int_range 0 (n - 1)) small_nat);
              (2,
               map3
                 (fun s d p -> I (s, d, p))
                 (int_range 0 (n - 1))
                 (gen_dest n) (int_range 0 100)) ]))
    >>= fun raw ->
    let actions = sanitize ~n ~rounds ~setup ~halts ~sends raw in
    return { n; max_rounds = rounds; setup_corrupt = setup; halts; sends; actions })

let print_plan plan =
  Printf.sprintf "{n=%d; rounds=%d; setup=[%s]; actions/round=[%s]}" plan.n
    plan.max_rounds
    (String.concat ";" (List.map string_of_int plan.setup_corrupt))
    (String.concat ";"
       (Array.to_list
          (Array.map (fun acts -> string_of_int (List.length acts)) plan.actions)))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let equivalent plan =
  let real = run_real plan and reference = run_reference plan in
  real.logs = reference.logs
  && real.events = reference.events
  && String.equal real.metrics_json reference.metrics_json
  && real.outputs = reference.outputs
  && real.corrupt = reference.corrupt
  && real.corruptions = reference.corruptions
  && real.rounds_used = reference.rounds_used
  && real.all_honest_decided = reference.all_honest_decided
  && real.halt_rounds = reference.halt_rounds

let qcheck_tests =
  [ QCheck.Test.make ~name:"shared delivery = naive reference" ~count:300
      (QCheck.make ~print:print_plan gen_plan)
      equivalent ]

(* A deterministic scenario dense in edge cases: multicasts interleaved
   with unicasts to the same node (exercises the splice path), duplicate
   and out-of-range unicast targets, removal of both a multicast and a
   unicast, injection ordering ahead of honest wires, and a corruption of
   a node that halted the same round. *)
let test_dense_scenario () =
  let n = 4 in
  let sends =
    [| [| [ (Engine.All, 7); (Engine.Only [ 2; 2; -1; 4 ], 9) ];
          [ (Engine.Only [ 0 ], 11); (Engine.All, 13) ];
          [ (Engine.All, 5) ];
          [ (Engine.Only [ 1; 0 ], 21) ]
       |];
       [| [ (Engine.All, 3) ];
          [];
          [ (Engine.Only [ 3; 3 ], 17) ];
          [ (Engine.All, 19) ]
       |]
    |]
  in
  let actions =
    [| [ Engine.Corrupt 3;
         Engine.Remove { victim = 3; index = 0 };
         Engine.Corrupt 2;
         Engine.Remove { victim = 2; index = 0 };
         Engine.Inject { src = 3; dst = Engine.Only [ 0; 0; 5 ]; payload = 42 };
         Engine.Inject { src = 3; dst = Engine.All; payload = 40 } ];
       [ Engine.Corrupt 1; Engine.Corrupt 0 ]
    |]
  in
  let plan =
    { n;
      max_rounds = 2;
      setup_corrupt = [];
      halts = [| max_int; 1; max_int; max_int |];
      sends;
      actions }
  in
  Alcotest.(check bool) "dense scenario equivalent" true (equivalent plan)

(* ------------------------------------------------------------------ *)
(* Real-protocol cross-jobs differentials                             *)
(* ------------------------------------------------------------------ *)

(* Phase 1 is sequential and protocol envs keep unsynchronised caches,
   memo tables and counters; what makes trial-level [--jobs] safe is
   that every run owns its env and nothing is shared between runs. Each
   differential runs a seeded adversarial execution on the calling
   domain, then four copies at once on a 4-domain pool: every copy
   must reproduce every observable. *)
let protocol_differential (type env state msg) name
    (proto : (env, state, msg) Engine.protocol) ~make_adv ~n ~budget ~inputs
    ~max_rounds ~seed () =
  let execute () =
    let collector = Trace.collector () in
    let result =
      Engine.run
        ~tracer:(Trace.observe collector)
        proto ~adversary:(make_adv ()) ~n ~budget ~inputs ~max_rounds ~seed
    in
    ( Trace.events collector,
      metrics_json result.Engine.metrics,
      result.Engine.outputs,
      result.Engine.halt_rounds,
      result.Engine.corrupt,
      result.Engine.rounds_used )
  in
  let sequential = execute () in
  let concurrent =
    Bapar.Pool.with_pool ~jobs:4 (fun pool ->
        Bapar.Pool.map ~pool (fun _ -> execute ()) [ 1; 2; 3; 4 ])
  in
  List.iteri
    (fun k run ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: concurrent copy %d = sequential" name k)
        true (run = sequential))
    concurrent

let test_sub_hm_differential =
  let params = Bacore.Params.make ~lambda:12 ~max_epochs:6 () in
  protocol_differential "sub-hm/split-vote"
    (Bacore.Sub_hm.protocol ~params ~world:`Hybrid)
    ~make_adv:(fun () -> Baattacks.Split_vote.sub_hm ())
    ~n:60 ~budget:18
    ~inputs:(Scenario.unanimous_inputs ~n:60 true)
    ~max_rounds:36 ~seed:5L

let test_sub_third_differential =
  let params = Bacore.Params.make ~lambda:12 ~max_epochs:4 () in
  protocol_differential "sub-third/equivocator"
    (Bacore.Sub_third.protocol ~params ~world:`Hybrid
       ~mode:Bacore.Sub_third.Bit_agnostic)
    ~make_adv:(fun () -> Baattacks.Equivocator.make ())
    ~n:60 ~budget:18
    ~inputs:(Scenario.split_inputs ~n:60)
    ~max_rounds:14 ~seed:6L

let test_takeover_differential =
  protocol_differential "static-committee/takeover"
    (Babaselines.Static_committee.protocol ~committee_size:8)
    ~make_adv:(fun () -> Baattacks.Takeover.make ~force:true ())
    ~n:60 ~budget:16
    ~inputs:(Scenario.unanimous_inputs ~n:60 false)
    ~max_rounds:6 ~seed:9L

let () =
  Alcotest.run "engine_perf"
    ([ ( "delivery",
         [ Alcotest.test_case "dense scripted scenario" `Quick
             test_dense_scenario ] ) ]
    @ [ ( "cross-jobs",
          [ Alcotest.test_case "sub-hm split-vote" `Quick
              test_sub_hm_differential;
            Alcotest.test_case "sub-third equivocator" `Quick
              test_sub_third_differential;
            Alcotest.test_case "static-committee takeover" `Quick
              test_takeover_differential ] ) ]
    @ [ ( "properties",
          List.map
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0xba51c |]))
            qcheck_tests ) ])
