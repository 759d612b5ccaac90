(* Integration tests for the core BA protocols: the §3.1 warmup, the §3.2
   subquadratic one-third protocol (both worlds), the Appendix-C quadratic
   and subquadratic honest-majority protocols, and the broadcast
   reduction. *)

open Basim
open Bacore

let passive () = Engine.passive ~name:"passive" ~model:Corruption.Adaptive

let check_rate label failures trials limit =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d failures (limit %d)" label failures trials limit)
    true (failures <= limit)

let run_agreement proto ~n ~budget ~inputs ~max_rounds ~seed =
  let result =
    Engine.run proto ~adversary:(passive ()) ~n ~budget ~inputs ~max_rounds ~seed
  in
  (result, Properties.agreement ~inputs result)

let trial_failures proto ~n ~inputs_of ~max_rounds ~reps ~base_seed =
  let trials =
    Scenario.run_trials ~reps ~base_seed (fun seed ->
        let inputs = inputs_of seed in
        run_agreement proto ~n ~budget:0 ~inputs ~max_rounds ~seed)
  in
  let agg = Scenario.aggregate trials in
  (agg, trials)

(* --- Params -------------------------------------------------------------- *)

let test_params_quorums () =
  let p = Params.make ~lambda:40 () in
  Alcotest.(check int) "2λ/3" 27 (Params.third_quorum p);
  Alcotest.(check int) "λ/2" 20 (Params.hm_quorum p);
  let p' = Params.make ~lambda:3 () in
  Alcotest.(check int) "ceil(2·3/3)" 2 (Params.third_quorum p');
  Alcotest.(check int) "ceil(3/2)" 2 (Params.hm_quorum p')

let test_params_probabilities () =
  let p = Params.make ~lambda:40 () in
  Alcotest.(check bool) "λ/n" true
    (abs_float (Params.ack_probability p ~n:400 -. 0.1) < 1e-12);
  Alcotest.(check bool) "capped at 1" true
    (Params.ack_probability p ~n:10 = 1.0);
  Alcotest.(check bool) "1/2n" true
    (abs_float (Params.propose_probability ~n:100 -. 0.005) < 1e-12)

let test_params_validation () =
  Alcotest.check_raises "bad lambda"
    (Invalid_argument "Params.make: lambda must be positive") (fun () ->
      ignore (Params.make ~lambda:0 ()));
  Alcotest.check_raises "bad epsilon"
    (Invalid_argument "Params.make: epsilon outside (0, 1/2)") (fun () ->
      ignore (Params.make ~epsilon:0.6 ()))

let test_params_faulty_bounds () =
  let p = Params.make ~epsilon:0.1 () in
  Alcotest.(check int) "(1/3-ε)n of 300" 70 (Params.third_max_faulty p ~n:300);
  Alcotest.(check int) "(1/2-ε)n of 300" 120 (Params.hm_max_faulty p ~n:300)

(* --- Cert ---------------------------------------------------------------- *)

let test_cert_dedup () =
  let c = Cert.make ~iter:2 ~bit:true ~endorsements:[ (1, "a"); (1, "b"); (2, "c") ] in
  Alcotest.(check int) "deduped" 2 (List.length c.Cert.endorsements);
  Alcotest.(check int) "distinct endorsers" 2 (Cert.distinct_endorsers c)

let test_cert_rank () =
  let c = Cert.make ~iter:3 ~bit:false ~endorsements:[ (0, ()) ] in
  Alcotest.(check int) "none ranks 0" 0 (Cert.rank None);
  Alcotest.(check int) "some ranks iter" 3 (Cert.rank (Some c));
  Alcotest.(check bool) "some > none" true (Cert.strictly_higher (Some c) ~than:None);
  Alcotest.(check bool) "equal not strict" false
    (Cert.strictly_higher (Some c) ~than:(Some c))

let test_cert_well_formed () =
  let c =
    Cert.make ~iter:1 ~bit:true
      ~endorsements:[ (0, "ok"); (1, "ok"); (2, "bad"); (3, "ok") ]
  in
  let check ~node:_ e = e = "ok" in
  Alcotest.(check bool) "3 valid ≥ quorum 3" true
    (Cert.well_formed c ~quorum:3 ~check);
  Alcotest.(check bool) "3 valid < quorum 4" false
    (Cert.well_formed c ~quorum:4 ~check)

let test_cert_iter_validation () =
  Alcotest.check_raises "iter 0 invalid"
    (Invalid_argument "Cert.make: iterations start at 1") (fun () ->
      ignore (Cert.make ~iter:0 ~bit:true ~endorsements:[]))

(* --- Warmup third (§3.1) -------------------------------------------------- *)

let warmup_params = Params.make ~lambda:10 ~max_epochs:12 ()

let warmup = Warmup_third.protocol ~params:warmup_params

let warmup_rounds = (2 * warmup_params.Params.max_epochs) + 2

let test_warmup_validity_unanimous () =
  List.iter
    (fun bit ->
      let agg, _ =
        trial_failures warmup ~n:7
          ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:7 bit)
          ~max_rounds:warmup_rounds ~reps:10 ~base_seed:100L
      in
      check_rate "warmup validity" agg.Scenario.validity_failures 10 0;
      check_rate "warmup consistency" agg.Scenario.consistency_failures 10 0;
      check_rate "warmup termination" agg.Scenario.termination_failures 10 0)
    [ false; true ]

let test_warmup_agreement_split () =
  let agg, _ =
    trial_failures warmup ~n:7
      ~inputs_of:(fun _ -> Scenario.split_inputs ~n:7)
      ~max_rounds:warmup_rounds ~reps:20 ~base_seed:101L
  in
  check_rate "warmup split consistency" agg.Scenario.consistency_failures 20 0;
  check_rate "warmup split termination" agg.Scenario.termination_failures 20 0

let test_warmup_linear_multicasts () =
  (* Every node multicasts one ACK per epoch: the protocol is
     communication-inefficient by design. *)
  let inputs = Scenario.unanimous_inputs ~n:7 true in
  let result, _ =
    run_agreement warmup ~n:7 ~budget:0 ~inputs ~max_rounds:warmup_rounds ~seed:3L
  in
  let m = result.Engine.metrics in
  let epochs = warmup_params.Params.max_epochs in
  Alcotest.(check bool)
    (Printf.sprintf "%d multicasts >= n·R acks" (Metrics.honest_multicasts m))
    true
    (Metrics.honest_multicasts m >= 7 * epochs)

let test_warmup_fixed_duration () =
  let inputs = Scenario.split_inputs ~n:7 in
  let result, _ =
    run_agreement warmup ~n:7 ~budget:0 ~inputs ~max_rounds:warmup_rounds ~seed:4L
  in
  Alcotest.(check int) "runs exactly 2R+1 rounds"
    ((2 * warmup_params.Params.max_epochs) + 1)
    result.Engine.rounds_used

let test_warmup_leader_round_robin () =
  Alcotest.(check int) "epoch 0" 0 (Warmup_third.leader ~n:5 ~epoch:0);
  Alcotest.(check int) "epoch 7 of 5" 2 (Warmup_third.leader ~n:5 ~epoch:7)

(* --- Sub third (§3.2) ------------------------------------------------------ *)

let sub3_params = Params.make ~lambda:40 ~max_epochs:16 ()

let sub3 =
  Sub_third.protocol ~params:sub3_params ~world:`Hybrid ~mode:Sub_third.Bit_specific

let sub3_rounds = (2 * sub3_params.Params.max_epochs) + 2

let test_sub3_validity_unanimous () =
  let agg, _ =
    trial_failures sub3 ~n:120
      ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:120 true)
      ~max_rounds:sub3_rounds ~reps:10 ~base_seed:200L
  in
  check_rate "sub3 validity" agg.Scenario.validity_failures 10 0;
  check_rate "sub3 consistency" agg.Scenario.consistency_failures 10 0

let test_sub3_agreement_split () =
  let agg, _ =
    trial_failures sub3 ~n:120
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:120 seed)
      ~max_rounds:sub3_rounds ~reps:10 ~base_seed:201L
  in
  check_rate "sub3 split consistency" agg.Scenario.consistency_failures 10 0;
  check_rate "sub3 split termination" agg.Scenario.termination_failures 10 0

let test_sub3_sublinear_multicasts () =
  (* Per epoch, roughly λ committee members speak — far fewer than n. *)
  let inputs = Scenario.unanimous_inputs ~n:120 true in
  let result, _ =
    run_agreement sub3 ~n:120 ~budget:0 ~inputs ~max_rounds:sub3_rounds ~seed:5L
  in
  let per_epoch =
    float_of_int (Metrics.honest_multicasts result.Engine.metrics)
    /. float_of_int sub3_params.Params.max_epochs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f multicasts/epoch << n=120" per_epoch)
    true (per_epoch < 70.0)

let test_sub3_real_world_agrees () =
  let real =
    Sub_third.protocol ~params:(Params.make ~lambda:30 ~max_epochs:10 ())
      ~world:`Real ~mode:Sub_third.Bit_specific
  in
  let inputs = Scenario.unanimous_inputs ~n:60 true in
  let result, verdict =
    run_agreement real ~n:60 ~budget:0 ~inputs ~max_rounds:24 ~seed:6L
  in
  Alcotest.(check bool) "real world ok" true (Properties.ok verdict);
  (* Real-world messages carry VRF credentials: strictly more bits than
     count · header. *)
  let m = result.Engine.metrics in
  Alcotest.(check bool) "credential overhead visible" true
    (Metrics.honest_multicast_bits m > 48 * Metrics.honest_multicasts m)

let test_sub3_mining_strings () =
  Alcotest.(check string) "bit-specific" "sub3:ACK:4:1"
    (Sub_third.ack_mining_string Sub_third.Bit_specific ~epoch:4 ~bit:true);
  Alcotest.(check string) "bit-agnostic" "sub3:ACK:4"
    (Sub_third.ack_mining_string Sub_third.Bit_agnostic ~epoch:4 ~bit:true);
  Alcotest.(check string) "propose" "sub3:Propose:4:0"
    (Sub_third.propose_mining_string ~epoch:4 ~bit:false)

(* --- Quadratic honest majority (App. C.1) ---------------------------------- *)

let qhm = Quadratic_hm.protocol ()

let test_qhm_phase_layout () =
  Alcotest.(check bool) "round 0 = vote 1" true
    (Quadratic_hm.phase_of_round 0 = Quadratic_hm.Phase_vote 1);
  Alcotest.(check bool) "round 1 = commit 1" true
    (Quadratic_hm.phase_of_round 1 = Quadratic_hm.Phase_commit 1);
  Alcotest.(check bool) "round 2 = status 2" true
    (Quadratic_hm.phase_of_round 2 = Quadratic_hm.Phase_status 2);
  Alcotest.(check bool) "round 5 = commit 2" true
    (Quadratic_hm.phase_of_round 5 = Quadratic_hm.Phase_commit 2);
  Alcotest.(check bool) "round 6 = status 3" true
    (Quadratic_hm.phase_of_round 6 = Quadratic_hm.Phase_status 3)

let test_qhm_validity_unanimous () =
  List.iter
    (fun bit ->
      let agg, _ =
        trial_failures qhm ~n:9
          ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:9 bit)
          ~max_rounds:200 ~reps:10 ~base_seed:300L
      in
      check_rate "qhm validity" agg.Scenario.validity_failures 10 0;
      check_rate "qhm termination" agg.Scenario.termination_failures 10 0)
    [ false; true ]

let test_qhm_unanimous_terminates_first_iteration () =
  let inputs = Scenario.unanimous_inputs ~n:9 true in
  let result, _ = run_agreement qhm ~n:9 ~budget:0 ~inputs ~max_rounds:200 ~seed:7L in
  Alcotest.(check bool)
    (Printf.sprintf "%d rounds <= 5" result.Engine.rounds_used)
    true (result.Engine.rounds_used <= 5)

let test_qhm_agreement_split () =
  let agg, _ =
    trial_failures qhm ~n:9
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:9 seed)
      ~max_rounds:200 ~reps:20 ~base_seed:301L
  in
  check_rate "qhm split consistency" agg.Scenario.consistency_failures 20 0;
  check_rate "qhm split termination" agg.Scenario.termination_failures 20 0

let test_qhm_expected_constant_rounds () =
  let agg, _ =
    trial_failures qhm ~n:9
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:9 seed)
      ~max_rounds:200 ~reps:30 ~base_seed:302L
  in
  (* All-honest executions converge within a couple of iterations. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean rounds %.1f < 16" agg.Scenario.mean_rounds)
    true
    (agg.Scenario.mean_rounds < 16.0)

let test_qhm_quadratic_communication () =
  let inputs = Scenario.unanimous_inputs ~n:9 true in
  let result, _ = run_agreement qhm ~n:9 ~budget:0 ~inputs ~max_rounds:200 ~seed:8L in
  (* Every node multicasts in (almost) every round: Θ(n) multicasts,
     hence Θ(n²) pairwise messages. *)
  Alcotest.(check bool) "≥ n multicasts per active round" true
    (Metrics.honest_multicasts result.Engine.metrics
    >= 9 * (result.Engine.rounds_used - 1))

let test_qhm_n_validation () =
  Alcotest.check_raises "even n rejected"
    (Invalid_argument "Quadratic_hm: n must be odd and at least 3 (n = 2f+1)")
    (fun () ->
      ignore
        (Engine.run qhm ~adversary:(passive ()) ~n:8 ~budget:0
           ~inputs:(Array.make 8 true) ~max_rounds:10 ~seed:1L))

(* --- Subquadratic honest majority (App. C.2) -------------------------------- *)

let shm_params = Params.make ~lambda:40 ~max_epochs:60 ()

let shm = Sub_hm.protocol ~params:shm_params ~world:`Hybrid

let shm_rounds = (4 * shm_params.Params.max_epochs) + 10

let test_shm_validity_unanimous () =
  List.iter
    (fun bit ->
      let agg, _ =
        trial_failures shm ~n:121
          ~inputs_of:(fun _ -> Scenario.unanimous_inputs ~n:121 bit)
          ~max_rounds:shm_rounds ~reps:8 ~base_seed:400L
      in
      check_rate "shm validity" agg.Scenario.validity_failures 8 0;
      check_rate "shm consistency" agg.Scenario.consistency_failures 8 0;
      check_rate "shm termination" agg.Scenario.termination_failures 8 0)
    [ false; true ]

let test_shm_agreement_split () =
  let agg, _ =
    trial_failures shm ~n:121
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:121 seed)
      ~max_rounds:shm_rounds ~reps:8 ~base_seed:401L
  in
  check_rate "shm split consistency" agg.Scenario.consistency_failures 8 0;
  check_rate "shm split termination" agg.Scenario.termination_failures 8 0

let test_shm_sublinear_multicasts () =
  let inputs = Scenario.unanimous_inputs ~n:121 true in
  let result, _ =
    run_agreement shm ~n:121 ~budget:0 ~inputs ~max_rounds:shm_rounds ~seed:9L
  in
  let m = Metrics.honest_multicasts result.Engine.metrics in
  (* Lemma 15: O(λ²) multicasts total; per round, ≈ λ committee members
     speak instead of all n nodes. *)
  let per_round = float_of_int m /. float_of_int result.Engine.rounds_used in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f multicasts/round << n = 121" per_round)
    true (per_round < 60.0)

let test_shm_expected_constant_rounds () =
  let agg, _ =
    trial_failures shm ~n:121
      ~inputs_of:(fun seed -> Scenario.random_inputs ~n:121 seed)
      ~max_rounds:shm_rounds ~reps:10 ~base_seed:402L
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean rounds %.1f < 60" agg.Scenario.mean_rounds)
    true
    (agg.Scenario.mean_rounds < 60.0)

let test_shm_real_world () =
  let params = Params.make ~lambda:24 ~max_epochs:40 () in
  let real = Sub_hm.protocol ~params ~world:`Real in
  let inputs = Scenario.unanimous_inputs ~n:61 true in
  let result, verdict =
    run_agreement real ~n:61 ~budget:0 ~inputs ~max_rounds:170 ~seed:10L
  in
  Alcotest.(check bool) "real world ok" true (Properties.ok verdict);
  Alcotest.(check bool) "proof overhead visible" true
    (Metrics.honest_multicast_bits result.Engine.metrics
    > 100 * Metrics.honest_multicasts result.Engine.metrics)

let test_shm_mining_strings () =
  Alcotest.(check string) "vote" "shm:Vote:3:1"
    (Sub_hm.mining_string `Vote ~iter:3 ~bit:true);
  Alcotest.(check string) "terminate per-bit" "shm:Terminate:0"
    (Sub_hm.terminate_mining_string ~bit:false)

(* Interned mining strings are the Fmine coin inputs, so they must be
   the Printf form byte for byte — in range, out of range (an adversary
   may send any iteration), and on a second lookup of a filled slot. *)
let test_shm_interned_mining_strings () =
  let max_epochs = 5 in
  let params = Params.make ~lambda:8 ~max_epochs () in
  let env =
    (Sub_hm.protocol ~params ~world:`Hybrid).Engine.make_env ~n:16
      (Bacrypto.Rng.create 1L)
  in
  let iters = List.init (max_epochs + 6) (fun i -> i - 2) @ [ 1_000_003 ] in
  for _pass = 1 to 2 do
    List.iter
      (fun kind ->
        List.iter
          (fun bit ->
            List.iter
              (fun iter ->
                Alcotest.(check string)
                  (Printf.sprintf "iter %d" iter)
                  (Sub_hm.mining_string kind ~iter ~bit)
                  (Sub_hm.interned_mining_string env kind ~iter ~bit))
              iters)
          [ false; true ])
      [ `Status; `Propose; `Vote; `Commit ];
    List.iter
      (fun bit ->
        Alcotest.(check string) "terminate"
          (Sub_hm.terminate_mining_string ~bit)
          (Sub_hm.interned_terminate_string env ~bit))
      [ false; true ]
  done

(* A hybrid env with every node's iteration-1 vote ticket for bit 1
   mined: the winners' and losers' ids. *)
let mined_votes () =
  let n = 40 in
  let params = Params.make ~lambda:8 ~max_epochs:4 () in
  let env =
    (Sub_hm.protocol ~params ~world:`Hybrid).Engine.make_env ~n
      (Bacrypto.Rng.create 5L)
  in
  let msg = Sub_hm.mining_string `Vote ~iter:1 ~bit:true in
  let p = Sub_hm.committee_probability env in
  let winners, losers =
    List.partition
      (fun node -> Option.is_some (env.Sub_hm.elig.Bafmine.Eligibility.mine ~node ~msg ~p))
      (List.init n Fun.id)
  in
  (env, winners, losers)

let take k l = List.filteri (fun i _ -> i < k) l

let vote_cert nodes =
  Cert.make ~iter:1 ~bit:true
    ~endorsements:(List.map (fun node -> (node, Bafmine.Eligibility.Ideal_ticket)) nodes)

let test_shm_cert_copy_same_verdict () =
  let env, winners, losers = mined_votes () in
  let q = Sub_hm.quorum env in
  Alcotest.(check bool) "enough winners" true (List.length winners >= q);
  let good = vote_cert (take q winners) and good' = vote_cert (take q winners) in
  let bad = vote_cert (take q losers) and bad' = vote_cert (take q losers) in
  Alcotest.(check bool) "copies are distinct values" true
    (good != good' && bad != bad');
  Alcotest.(check bool) "valid" true (Sub_hm.valid_cert env good);
  Alcotest.(check bool) "equal copy of a cached cert: valid" true
    (Sub_hm.valid_cert env good');
  Alcotest.(check bool) "invalid" false (Sub_hm.valid_cert env bad);
  Alcotest.(check bool) "equal copy of a rejected cert: invalid" false
    (Sub_hm.valid_cert env bad')

let test_shm_forged_endorsement_after_cache () =
  let env, winners, losers = mined_votes () in
  let q = Sub_hm.quorum env in
  Alcotest.(check bool) "valid cert cached" true
    (Sub_hm.valid_cert env (vote_cert (take q winners)));
  (* the same (iter, bit) and the same first q - 1 endorsers, but the
     last ticket is an ideal ticket its holder never won *)
  let forged = vote_cert (take (q - 1) winners @ [ List.hd losers ]) in
  Alcotest.(check bool) "forged endorsement rejected" false
    (Sub_hm.valid_cert env forged);
  Alcotest.(check bool) "not cached" false
    (Hashtbl.mem env.Sub_hm.cert_cache forged)

(* --- ba_run command line ---------------------------------------------------- *)

let ba_run_exe = "../bin/ba_run.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs [ba_run args] with stdout and stderr captured; returns the exit
   code and both outputs. *)
let ba_run args =
  let out = Filename.temp_file "ba_run" ".out"
  and err = Filename.temp_file "ba_run" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >%s 2>%s" ba_run_exe args (Filename.quote out)
         (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let test_cli_parameter_validation () =
  List.iter
    (fun args ->
      let code, _, stderr = ba_run args in
      Alcotest.(check int) (args ^ ": exit") 1 code;
      Alcotest.(check int)
        (args ^ ": one-line message")
        1
        (List.length (String.split_on_char '\n' (String.trim stderr))))
    [ "-p sub-hm -n 5 -f 9"; "-p sub-hm -n 11 --lambda 0"; "-p quadratic-hm -n 10" ]

let test_cli_sweep_jobs_identical () =
  let sweep jobs =
    let metrics = Filename.temp_file "ba_sweep" ".json" in
    let code, stdout, _ =
      ba_run
        (Printf.sprintf
           "-p sub-hm -n 101 -a split-vote -f 30 --lambda 20 --epochs 8 \
            --inputs split --seed 3 --reps 8 --jobs %d --metrics-json %s"
           jobs (Filename.quote metrics))
    in
    let json = read_file metrics in
    Sys.remove metrics;
    (code, stdout, json)
  in
  let code1, out1, json1 = sweep 1 and code4, out4, json4 = sweep 4 in
  Alcotest.(check int) "same exit code" code1 code4;
  Alcotest.(check string) "same stdout" out1 out4;
  Alcotest.(check string) "same metrics JSON" json1 json4

(* --- Broadcast reduction (§1.1) --------------------------------------------- *)

let test_broadcast_honest_sender () =
  let bb = Broadcast.of_ba qhm ~sender:0 in
  List.iter
    (fun bit ->
      let inputs = Array.make 9 bit in
      let result =
        Engine.run bb ~adversary:(passive ()) ~n:9 ~budget:0 ~inputs ~max_rounds:200
          ~seed:11L
      in
      let verdict = Properties.broadcast ~sender:0 ~input:bit result in
      Alcotest.(check bool)
        (Printf.sprintf "broadcast of %b ok" bit)
        true (Properties.ok verdict))
    [ false; true ]

let test_broadcast_silent_corrupt_sender_consistent () =
  let bb = Broadcast.of_ba qhm ~sender:0 in
  let adversary =
    { Engine.adv_name = "silence-sender";
      model = Corruption.Static;
      caps = { Capability.caps = [ Capability.Setup_corruption ]; budget_bound = None };
      setup = (fun _ ~n:_ ~budget:_ ~rng:_ -> [ 0 ]);
      intervene = (fun _ -> []) }
  in
  let inputs = Array.make 9 true in
  let result =
    Engine.run bb ~adversary ~n:9 ~budget:1 ~inputs ~max_rounds:200 ~seed:12L
  in
  let verdict = Properties.broadcast ~sender:0 ~input:true result in
  Alcotest.(check bool) "consistent despite silent sender" true
    verdict.Properties.consistent;
  Alcotest.(check bool) "terminated" true verdict.Properties.terminated;
  (* Validity is vacuous: the sender is corrupt. *)
  Alcotest.(check bool) "validity vacuous" true verdict.Properties.valid

let test_broadcast_over_subquadratic () =
  let params = Params.make ~lambda:40 ~max_epochs:60 () in
  let bb = Broadcast.of_ba (Sub_hm.protocol ~params ~world:`Hybrid) ~sender:3 in
  let inputs = Array.make 121 false in
  inputs.(3) <- true;
  let result =
    Engine.run bb ~adversary:(passive ()) ~n:121 ~budget:0 ~inputs
      ~max_rounds:((4 * 60) + 12) ~seed:13L
  in
  let verdict = Properties.broadcast ~sender:3 ~input:true result in
  Alcotest.(check bool) "broadcast over sub-hm ok" true (Properties.ok verdict)

let test_broadcast_over_warmup () =
  let bb = Broadcast.of_ba warmup ~sender:2 in
  let inputs = Array.make 7 false in
  inputs.(2) <- true;
  let result =
    Engine.run bb ~adversary:(passive ()) ~n:7 ~budget:0 ~inputs
      ~max_rounds:(warmup_rounds + 2) ~seed:14L
  in
  let verdict = Properties.broadcast ~sender:2 ~input:true result in
  Alcotest.(check bool) "broadcast over warmup ok" true (Properties.ok verdict)

let test_warmup_state_accessors () =
  (* Drive one node by hand through init and a proposal round and check
     the exposed belief/sticky state. *)
  let proto = warmup in
  let rng = Bacrypto.Rng.create 1L in
  let env = proto.Engine.make_env ~n:7 rng in
  let st = proto.Engine.init env ~rng ~n:7 ~me:3 ~input:true in
  Alcotest.(check bool) "belief = input" true (Warmup_third.belief st);
  Alcotest.(check bool) "sticky initially set (footnote 4)" true
    (Warmup_third.sticky st);
  (* Round 0 (propose round, empty inbox): non-leader stays silent. *)
  let st, sends = proto.Engine.step env st ~round:0 ~inbox:[] in
  Alcotest.(check int) "non-leader silent" 0 (List.length sends);
  (* Round 1 (ACK round): the sticky node ACKs its input. *)
  let _, sends = proto.Engine.step env st ~round:1 ~inbox:[] in
  Alcotest.(check int) "one ACK" 1 (List.length sends)

let test_sub3_belief_accessor () =
  let proto = sub3 in
  let rng = Bacrypto.Rng.create 2L in
  let env = proto.Engine.make_env ~n:120 rng in
  let st = proto.Engine.init env ~rng ~n:120 ~me:5 ~input:false in
  Alcotest.(check bool) "belief = input" false (Sub_third.belief st)

let test_sub3_verify_msg_rejects_forgery () =
  let proto = sub3 in
  let rng = Bacrypto.Rng.create 3L in
  let env = proto.Engine.make_env ~n:120 rng in
  (* A made-up credential claim never verifies. *)
  Alcotest.(check bool) "forged ACK rejected" false
    (Sub_third.verify_msg env ~sender:7
       (Sub_third.make_ack ~epoch:0 ~bit:true
          ~cred:Bafmine.Eligibility.Ideal_ticket))

(* --- Golden regression transcripts --------------------------------------------
   Exact outcomes for fixed seeds: any unintended change to protocol logic,
   RNG derivation, or engine delivery order shows up here first. *)

let golden proto ~n ~seed ~rounds ~multicasts ~bits label =
  let inputs = Scenario.split_inputs ~n in
  let result =
    Engine.run proto ~adversary:(passive ()) ~n ~budget:0 ~inputs
      ~max_rounds:300 ~seed
  in
  Alcotest.(check int) (label ^ " rounds") rounds result.Engine.rounds_used;
  Alcotest.(check int)
    (label ^ " multicasts")
    multicasts
    (Metrics.honest_multicasts result.Engine.metrics);
  Alcotest.(check int)
    (label ^ " bits")
    bits
    (Metrics.honest_multicast_bits result.Engine.metrics)

let test_golden_sub_hm () =
  golden
    (Sub_hm.protocol ~params:(Params.make ~lambda:40 ~max_epochs:40 ()) ~world:`Hybrid)
    ~n:201 ~seed:7L ~rounds:11 ~multicasts:243 ~bits:155216
    "sub-hm n=201 seed=7"

let test_golden_quadratic () =
  golden (Quadratic_hm.protocol ()) ~n:41 ~seed:9L ~rounds:7 ~multicasts:206
    ~bits:1079288 "quadratic-hm n=41 seed=9"

let test_golden_warmup () =
  golden
    (Warmup_third.protocol ~params:(Params.make ~lambda:10 ~max_epochs:12 ()))
    ~n:7 ~seed:5L ~rounds:25 ~multicasts:96 ~bits:29184
    "warmup n=7 seed=5"

(* --- Cross-protocol QCheck property ------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"qhm agreement on random inputs/seeds" ~count:15
      (pair int64 (list_of_size (Gen.return 9) bool))
      (fun (seed, input_list) ->
        assume (List.length input_list = 9);
        let inputs = Array.of_list input_list in
        let result, verdict =
          run_agreement qhm ~n:9 ~budget:0 ~inputs ~max_rounds:200 ~seed
        in
        ignore result;
        Properties.ok verdict);
    Test.make ~name:"warmup agreement on random inputs/seeds" ~count:15
      (pair int64 (list_of_size (Gen.return 7) bool))
      (fun (seed, input_list) ->
        assume (List.length input_list = 7);
        let inputs = Array.of_list input_list in
        let _, verdict =
          run_agreement warmup ~n:7 ~budget:0 ~inputs ~max_rounds:warmup_rounds
            ~seed
        in
        Properties.ok verdict);
  ]

let () =
  let qcheck =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba003 |]))
      qcheck_tests
  in
  Alcotest.run "core"
    [ ( "params",
        [ Alcotest.test_case "quorums" `Quick test_params_quorums;
          Alcotest.test_case "probabilities" `Quick test_params_probabilities;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "faulty bounds" `Quick test_params_faulty_bounds ] );
      ( "cert",
        [ Alcotest.test_case "dedup" `Quick test_cert_dedup;
          Alcotest.test_case "rank" `Quick test_cert_rank;
          Alcotest.test_case "well-formed" `Quick test_cert_well_formed;
          Alcotest.test_case "iter validation" `Quick test_cert_iter_validation ] );
      ( "warmup-third",
        [ Alcotest.test_case "validity unanimous" `Quick test_warmup_validity_unanimous;
          Alcotest.test_case "agreement split" `Quick test_warmup_agreement_split;
          Alcotest.test_case "linear multicasts" `Quick test_warmup_linear_multicasts;
          Alcotest.test_case "fixed duration" `Quick test_warmup_fixed_duration;
          Alcotest.test_case "round-robin leader" `Quick test_warmup_leader_round_robin ] );
      ( "sub-third",
        [ Alcotest.test_case "validity unanimous" `Quick test_sub3_validity_unanimous;
          Alcotest.test_case "agreement split" `Quick test_sub3_agreement_split;
          Alcotest.test_case "sublinear multicasts" `Quick test_sub3_sublinear_multicasts;
          Alcotest.test_case "real world" `Slow test_sub3_real_world_agrees;
          Alcotest.test_case "mining strings" `Quick test_sub3_mining_strings ] );
      ( "quadratic-hm",
        [ Alcotest.test_case "phase layout" `Quick test_qhm_phase_layout;
          Alcotest.test_case "validity unanimous" `Quick test_qhm_validity_unanimous;
          Alcotest.test_case "fast unanimous decision" `Quick
            test_qhm_unanimous_terminates_first_iteration;
          Alcotest.test_case "agreement split" `Quick test_qhm_agreement_split;
          Alcotest.test_case "expected constant rounds" `Quick
            test_qhm_expected_constant_rounds;
          Alcotest.test_case "quadratic communication" `Quick
            test_qhm_quadratic_communication;
          Alcotest.test_case "n validation" `Quick test_qhm_n_validation ] );
      ( "sub-hm",
        [ Alcotest.test_case "validity unanimous" `Slow test_shm_validity_unanimous;
          Alcotest.test_case "agreement split" `Slow test_shm_agreement_split;
          Alcotest.test_case "sublinear multicasts" `Quick test_shm_sublinear_multicasts;
          Alcotest.test_case "expected constant rounds" `Slow
            test_shm_expected_constant_rounds;
          Alcotest.test_case "real world" `Slow test_shm_real_world;
          Alcotest.test_case "mining strings" `Quick test_shm_mining_strings;
          Alcotest.test_case "interned mining strings" `Quick
            test_shm_interned_mining_strings;
          Alcotest.test_case "equal cert copy, same verdict" `Quick
            test_shm_cert_copy_same_verdict;
          Alcotest.test_case "forged endorsement after cache" `Quick
            test_shm_forged_endorsement_after_cache ] );
      ( "cli",
        [ Alcotest.test_case "parameter validation" `Quick
            test_cli_parameter_validation;
          Alcotest.test_case "sweep --jobs 1 = --jobs 4" `Quick
            test_cli_sweep_jobs_identical ] );
      ( "broadcast",
        [ Alcotest.test_case "honest sender" `Quick test_broadcast_honest_sender;
          Alcotest.test_case "silent corrupt sender" `Quick
            test_broadcast_silent_corrupt_sender_consistent;
          Alcotest.test_case "over warmup" `Quick test_broadcast_over_warmup;
          Alcotest.test_case "over sub-hm" `Slow test_broadcast_over_subquadratic ] );
      ( "state-accessors",
        [ Alcotest.test_case "warmup belief/sticky" `Quick test_warmup_state_accessors;
          Alcotest.test_case "sub3 belief" `Quick test_sub3_belief_accessor;
          Alcotest.test_case "sub3 forgery rejected" `Quick
            test_sub3_verify_msg_rejects_forgery ] );
      ( "golden",
        [ Alcotest.test_case "sub-hm transcript" `Quick test_golden_sub_hm;
          Alcotest.test_case "quadratic transcript" `Quick test_golden_quadratic;
          Alcotest.test_case "warmup transcript" `Quick test_golden_warmup ] );
      ("properties", qcheck) ]
