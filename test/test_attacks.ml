(* Tests for the adversary implementations: each attack must break exactly
   the protocol/configuration the paper says it breaks, and nothing else. *)

open Basim
open Bacore
open Baattacks


(* --- Eraser (Theorem 1/4, experiment E1) ------------------------------- *)

let shm_small = Params.make ~lambda:20 ~max_epochs:5 ()

let test_eraser_kills_sub_hm () =
  (* Budget 150 exceeds the protocol's total number of speakers under
     attack (≈ λ per live round), so every honest message is erased and
     no honest node can ever decide. *)
  let proto = Sub_hm.protocol ~params:shm_small ~world:`Hybrid in
  let inputs = Scenario.unanimous_inputs ~n:301 true in
  let result =
    Engine.run proto ~adversary:(Eraser.make ()) ~n:301 ~budget:150 ~inputs
      ~max_rounds:40 ~seed:20L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "termination broken" false verdict.Properties.terminated;
  (* Everything honest nodes sent was erased. *)
  Alcotest.(check int) "all multicasts erased"
    (Metrics.honest_multicasts result.Engine.metrics)
    (Metrics.removals result.Engine.metrics);
  Alcotest.(check bool) "erasures well below (εf/2)² for f=150" true
    (let f = 150.0 and eps = 0.5 in
     float_of_int (Metrics.removals result.Engine.metrics)
     < (eps *. f /. 2.0) ** 2.0)

let test_silencer_control_harmless () =
  (* Same corruption schedule without after-the-fact removal: the already
     -sent messages survive, quorums form, the protocol decides.  This is
     the modeling point of the whole paper. *)
  let params = Params.make ~lambda:20 ~max_epochs:12 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let inputs = Scenario.unanimous_inputs ~n:301 true in
  let result =
    Engine.run proto ~adversary:(Eraser.silencer ()) ~n:301 ~budget:90 ~inputs
      ~max_rounds:60 ~seed:21L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "protocol survives mere corruption" true
    (Properties.ok verdict)

let test_eraser_cannot_kill_quadratic () =
  (* n = 2f+1 speakers per round: the budget f is exhausted in round 0
     with f+1 honest voters left — exactly a quorum. *)
  let proto = Quadratic_hm.protocol () in
  let inputs = Scenario.unanimous_inputs ~n:41 true in
  let result =
    Engine.run proto ~adversary:(Eraser.make ()) ~n:41 ~budget:20 ~inputs
      ~max_rounds:200 ~seed:22L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "quadratic protocol survives the eraser" true
    (Properties.ok verdict)

let test_eraser_respects_budget () =
  let proto = Sub_hm.protocol ~params:shm_small ~world:`Hybrid in
  let inputs = Scenario.unanimous_inputs ~n:301 true in
  let result =
    Engine.run proto ~adversary:(Eraser.make ()) ~n:301 ~budget:10 ~inputs
      ~max_rounds:40 ~seed:23L
  in
  Alcotest.(check bool) "corruptions ≤ budget" true (result.Engine.corruptions <= 10)

(* --- Equivocator (§3.3 Remark, experiment E5) ---------------------------- *)

let equivocator_conflicts ~mode ~reps =
  (* Unanimous inputs: in the bit-specific protocol the opposite-bit ACK
     committee is empty up to rare fresh-mining wins, so "ample ACKs for
     both bits" is impossible; in the bit-agnostic protocol the mirrored
     committee reaches the quorum every epoch. *)
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Sub_third.protocol ~params ~world:`Hybrid ~mode in
  let trials =
    List.init reps (fun k ->
        let seed = Int64.of_int (3000 + k) in
        let inputs = Scenario.unanimous_inputs ~n:360 true in
        let env, result =
          Engine.run_env proto
            ~adversary:(Equivocator.make ())
            ~n:360 ~budget:110 ~inputs ~max_rounds:14 ~seed
        in
        (env.Sub_third.conflicts > 0, Properties.agreement ~inputs result))
  in
  let conflict_trials = List.length (List.filter fst trials) in
  let inconsistent =
    List.length (List.filter (fun (_, v) -> not v.Properties.consistent) trials)
  in
  (conflict_trials, inconsistent)

let test_equivocator_breaks_bit_agnostic () =
  let conflicts, _ = equivocator_conflicts ~mode:Sub_third.Bit_agnostic ~reps:10 in
  Alcotest.(check bool)
    (Printf.sprintf "within-epoch conflicts in %d/10 trials" conflicts)
    true (conflicts >= 8)

let test_equivocator_impotent_against_bit_specific () =
  let conflicts, inconsistent =
    equivocator_conflicts ~mode:Sub_third.Bit_specific ~reps:10
  in
  Alcotest.(check int) "no within-epoch conflicts" 0 conflicts;
  Alcotest.(check int) "no inconsistent outputs" 0 inconsistent

(* --- Chen-Micali equivocator (experiment E5b) -------------------------------- *)

let cm_attack ~erasure ~reps =
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Babaselines.Chen_micali.protocol ~params ~erasure in
  let outcomes =
    List.init reps (fun k ->
        let seed = Int64.of_int (8000 + k) in
        let inputs = Scenario.split_inputs ~n:360 in
        let env, result =
          Engine.run_env proto
            ~adversary:(Cm_equivocator.make ())
            ~n:360 ~budget:110 ~inputs ~max_rounds:14 ~seed
        in
        ( env.Babaselines.Chen_micali.conflicts > 0,
          Properties.agreement ~inputs result ))
  in
  ( List.length (List.filter fst outcomes),
    List.length (List.filter (fun (_, v) -> not v.Properties.consistent) outcomes) )

let test_cm_equivocator_blocked_by_erasure () =
  let conflicts, _ = cm_attack ~erasure:true ~reps:8 in
  Alcotest.(check int) "erased keys: no mirrored committees" 0 conflicts

let test_cm_equivocator_wins_without_erasure () =
  let conflicts, inconsistent = cm_attack ~erasure:false ~reps:8 in
  Alcotest.(check bool)
    (Printf.sprintf "conflicts in %d/8 trials" conflicts)
    true (conflicts >= 7);
  Alcotest.(check bool)
    (Printf.sprintf "inconsistent in %d/8 trials" inconsistent)
    true (inconsistent >= 6)

(* --- Split vote (experiment E4) -------------------------------------------- *)

let test_split_vote_sub_hm_below_half_safe () =
  (* λ must be large enough that the corrupt coalition's lone-vote
     committee stays below the λ/2 quorum except with probability
     exp(-Ω(ε²λ)) — at λ = 30 that "negligible" term is ≈ 2% per trial,
     so we test at λ = 40. *)
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let failures = ref 0 in
  for k = 0 to 5 do
    let seed = Int64.of_int (4000 + k) in
    let inputs = Scenario.unanimous_inputs ~n:200 true in
    let result =
      Engine.run proto ~adversary:(Split_vote.sub_hm ()) ~n:200 ~budget:60
        ~inputs ~max_rounds:170 ~seed
    in
    let verdict = Properties.agreement ~inputs result in
    if not (verdict.Properties.consistent && verdict.Properties.valid) then
      incr failures
  done;
  Alcotest.(check int) "safety holds below n/2" 0 !failures

let test_split_vote_sub_hm_above_half_breaks () =
  let params = Params.make ~lambda:40 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let failures = ref 0 in
  for k = 0 to 5 do
    let seed = Int64.of_int (5000 + k) in
    let inputs = Scenario.unanimous_inputs ~n:200 true in
    let result =
      Engine.run proto ~adversary:(Split_vote.sub_hm ()) ~n:200 ~budget:130
        ~inputs ~max_rounds:170 ~seed
    in
    let verdict = Properties.agreement ~inputs result in
    if not (Properties.ok verdict) then incr failures
  done;
  Alcotest.(check bool)
    (Printf.sprintf "broken in %d/6 trials past n/2" !failures)
    true (!failures >= 4)

let test_split_vote_sub_third_below_third_safe () =
  (* Split honest beliefs + corrupt double-ACKs: the per-bit committee is
     ((n−f)/2 + f)·λ/n, which crosses the 2λ/3 quorum exactly at f = n/3.
     Below it, good epochs converge and outputs agree. *)
  let params = Params.make ~lambda:60 ~max_epochs:14 () in
  let proto =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let failures = ref 0 in
  for k = 0 to 5 do
    let seed = Int64.of_int (6000 + k) in
    let inputs = Scenario.split_inputs ~n:200 in
    let result =
      Engine.run proto ~adversary:(Split_vote.sub_third ()) ~n:200 ~budget:20
        ~inputs ~max_rounds:32 ~seed
    in
    let verdict = Properties.agreement ~inputs result in
    if not verdict.Properties.consistent then incr failures
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/6 consistency failures below n/3" !failures)
    true (!failures <= 1)

let test_split_vote_sub_third_above_third_breaks () =
  (* Past n/3, "ample ACKs" appear for both bits epoch after epoch, the
     split never heals, and outputs disagree in a large fraction of
     trials. *)
  let params = Params.make ~lambda:60 ~max_epochs:14 () in
  let proto =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let failures = ref 0 in
  for k = 0 to 5 do
    let seed = Int64.of_int (7000 + k) in
    let inputs = Scenario.split_inputs ~n:200 in
    let result =
      Engine.run proto ~adversary:(Split_vote.sub_third ()) ~n:200 ~budget:95
        ~inputs ~max_rounds:32 ~seed
    in
    let verdict = Properties.agreement ~inputs result in
    if not verdict.Properties.consistent then incr failures
  done;
  Alcotest.(check bool)
    (Printf.sprintf "broken in %d/6 trials past n/3" !failures)
    true (!failures >= 2)

(* --- Attacks against the compiled (real) world -------------------------------- *)

let test_real_world_safe_under_split_vote () =
  (* The Appendix-E claim, adversarially: the compiled protocol keeps its
     safety under the same double-voting attack as the hybrid one. *)
  let params = Params.make ~lambda:24 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Real in
  let inputs = Scenario.unanimous_inputs ~n:61 true in
  let result =
    Engine.run proto ~adversary:(Split_vote.sub_hm ()) ~n:61 ~budget:18
      ~inputs ~max_rounds:170 ~seed:60L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "real world safe below n/2" true (Properties.ok verdict)

let test_real_world_eraser_still_lethal () =
  (* ... and the lower bound does not care about the crypto either: the
     strongly adaptive eraser kills the compiled protocol just the same. *)
  let params = Params.make ~lambda:16 ~max_epochs:4 () in
  let proto = Sub_hm.protocol ~params ~world:`Real in
  let inputs = Scenario.unanimous_inputs ~n:121 true in
  let result =
    Engine.run proto ~adversary:(Eraser.make ()) ~n:121 ~budget:60 ~inputs
      ~max_rounds:30 ~seed:61L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "termination broken" false verdict.Properties.terminated

(* --- Takeover (experiment E8) ------------------------------------------------ *)

let test_takeover_flips_static_committee () =
  let proto = Babaselines.Static_committee.protocol ~committee_size:7 in
  let inputs = Scenario.unanimous_inputs ~n:60 false in
  let result =
    Engine.run proto ~adversary:(Takeover.make ~force:true ()) ~n:60 ~budget:10
      ~inputs ~max_rounds:5 ~seed:30L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "validity violated" false verdict.Properties.valid;
  (* Every honest node ends up with the adversary's bit. *)
  Array.iteri
    (fun i out ->
      if not result.Engine.corrupt.(i) then
        Alcotest.(check (option bool)) "forced output" (Some true) out)
    result.Engine.outputs

let test_same_budget_cannot_take_over_sub_hm () =
  (* The identical budget aimed at the sub-hm protocol: no public
     committee to corrupt, and double-voting with 10 nodes is noise. *)
  let params = Params.make ~lambda:30 ~max_epochs:40 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let inputs = Scenario.unanimous_inputs ~n:60 false in
  let result =
    Engine.run proto ~adversary:(Split_vote.sub_hm ()) ~n:60 ~budget:10 ~inputs
      ~max_rounds:170 ~seed:31L
  in
  let verdict = Properties.agreement ~inputs result in
  Alcotest.(check bool) "sub-hm unaffected" true (Properties.ok verdict)

(* --- Dolev–Reischuk isolation (experiment E1b) -------------------------------- *)

let test_dr_isolation_violates_consistency () =
  let proto = Babaselines.Sparse_relay.protocol ~d:3 in
  let inputs = Array.make 20 true in
  let result =
    Engine.run proto ~adversary:(Dolev_reischuk.make ~victim:19 ()) ~n:20
      ~budget:3 ~inputs ~max_rounds:20 ~seed:40L
  in
  let verdict = Properties.broadcast ~sender:0 ~input:true result in
  Alcotest.(check bool) "consistency violated" false verdict.Properties.consistent;
  Alcotest.(check (option bool)) "victim defaults to 0" (Some false)
    result.Engine.outputs.(19)

let test_dr_fails_with_insufficient_budget () =
  (* d = 3 predecessors but only budget 2: one honest predecessor still
     reaches the victim. *)
  let proto = Babaselines.Sparse_relay.protocol ~d:3 in
  let inputs = Array.make 20 true in
  let result =
    Engine.run proto ~adversary:(Dolev_reischuk.make ~victim:19 ()) ~n:20
      ~budget:2 ~inputs ~max_rounds:20 ~seed:41L
  in
  let verdict = Properties.broadcast ~sender:0 ~input:true result in
  Alcotest.(check bool) "redundancy above budget defeats the attack" true
    (Properties.ok verdict)

let test_dr_other_nodes_unaffected () =
  let proto = Babaselines.Sparse_relay.protocol ~d:2 in
  let inputs = Array.make 15 true in
  let result =
    Engine.run proto ~adversary:(Dolev_reischuk.make ~victim:14 ()) ~n:15
      ~budget:2 ~inputs ~max_rounds:20 ~seed:42L
  in
  (* Every honest node other than the victim still gets the bit. *)
  Array.iteri
    (fun i out ->
      if (not result.Engine.corrupt.(i)) && i <> 14 then
        Alcotest.(check (option bool))
          (Printf.sprintf "node %d learned" i)
          (Some true) out)
    result.Engine.outputs

(* --- Setup necessity (Theorem 3, experiment E6) ------------------------------- *)

let test_setup_necessity_contradiction () =
  let o = Setup_necessity.run ~n:50 ~committee_size:8 ~seed:50L in
  Alcotest.(check (option bool)) "Q decides 0" (Some false) o.Setup_necessity.q_output;
  Alcotest.(check (option bool)) "Q' decides 1" (Some true) o.Setup_necessity.q'_output;
  Alcotest.(check bool) "contradiction" true o.Setup_necessity.contradiction;
  Alcotest.(check bool) "node 1 disagrees with one side" true
    (Some o.Setup_necessity.node1_output <> o.Setup_necessity.q_output
    || Some o.Setup_necessity.node1_output <> o.Setup_necessity.q'_output)

let test_setup_necessity_corruptions_bounded () =
  let o = Setup_necessity.run ~n:200 ~committee_size:12 ~seed:51L in
  Alcotest.(check bool)
    (Printf.sprintf "corruptions %d ≤ multicast complexity %d"
       o.Setup_necessity.corruptions_needed o.Setup_necessity.multicast_complexity)
    true
    (o.Setup_necessity.corruptions_needed <= o.Setup_necessity.multicast_complexity);
  Alcotest.(check bool) "sublinear in n" true
    (o.Setup_necessity.corruptions_needed < 200 / 4)

let test_setup_necessity_validation () =
  Alcotest.check_raises "committee too large"
    (Invalid_argument "Setup_necessity.run: committee larger than {2..n}")
    (fun () -> ignore (Setup_necessity.run ~n:5 ~committee_size:5 ~seed:1L))

(* --- Pinned property tests ---------------------------------------------------- *)

let attacks_qcheck_tests =
  (* The takeover's guarantee is seed-independent: whatever committee
     the CRS selects, forcing it flips every honest output. *)
  [ QCheck.Test.make ~name:"takeover forces the adversary's bit (any seed)"
      ~count:12
      QCheck.(make ~print:string_of_int Gen.(0 -- 10_000))
      (fun seed ->
        let proto = Babaselines.Static_committee.protocol ~committee_size:7 in
        let inputs = Scenario.unanimous_inputs ~n:60 false in
        let result =
          Engine.run proto
            ~adversary:(Takeover.make ~force:true ())
            ~n:60 ~budget:10 ~inputs ~max_rounds:5 ~seed:(Int64.of_int seed)
        in
        let forced = ref true in
        Array.iteri
          (fun i out ->
            if (not result.Engine.corrupt.(i)) && out <> Some true then
              forced := false)
          result.Engine.outputs;
        !forced) ]

let () =
  Alcotest.run "attacks"
    [ ( "eraser",
        [ Alcotest.test_case "kills sub-hm" `Quick test_eraser_kills_sub_hm;
          Alcotest.test_case "silencer control" `Quick test_silencer_control_harmless;
          Alcotest.test_case "quadratic survives" `Quick test_eraser_cannot_kill_quadratic;
          Alcotest.test_case "budget respected" `Quick test_eraser_respects_budget ] );
      ( "equivocator",
        [ Alcotest.test_case "breaks bit-agnostic" `Quick
            test_equivocator_breaks_bit_agnostic;
          Alcotest.test_case "impotent vs bit-specific" `Quick
            test_equivocator_impotent_against_bit_specific ] );
      ( "cm-equivocator",
        [ Alcotest.test_case "blocked by erasure" `Quick
            test_cm_equivocator_blocked_by_erasure;
          Alcotest.test_case "wins without erasure" `Quick
            test_cm_equivocator_wins_without_erasure ] );
      ( "split-vote",
        [ Alcotest.test_case "sub-hm safe below 1/2" `Slow
            test_split_vote_sub_hm_below_half_safe;
          Alcotest.test_case "sub-hm breaks above 1/2" `Slow
            test_split_vote_sub_hm_above_half_breaks;
          Alcotest.test_case "sub-third safe below 1/3" `Slow
            test_split_vote_sub_third_below_third_safe;
          Alcotest.test_case "sub-third breaks above 1/3" `Slow
            test_split_vote_sub_third_above_third_breaks ] );
      ( "real-world",
        [ Alcotest.test_case "safe under split-vote" `Slow
            test_real_world_safe_under_split_vote;
          Alcotest.test_case "eraser still lethal" `Slow
            test_real_world_eraser_still_lethal ] );
      ( "takeover",
        [ Alcotest.test_case "flips static committee" `Quick
            test_takeover_flips_static_committee;
          Alcotest.test_case "sub-hm immune at same budget" `Quick
            test_same_budget_cannot_take_over_sub_hm ] );
      ( "dolev-reischuk",
        [ Alcotest.test_case "isolation violates consistency" `Quick
            test_dr_isolation_violates_consistency;
          Alcotest.test_case "insufficient budget fails" `Quick
            test_dr_fails_with_insufficient_budget;
          Alcotest.test_case "others unaffected" `Quick test_dr_other_nodes_unaffected ] );
      ( "setup-necessity",
        [ Alcotest.test_case "contradiction" `Quick test_setup_necessity_contradiction;
          Alcotest.test_case "corruptions bounded" `Quick
            test_setup_necessity_corruptions_bounded;
          Alcotest.test_case "validation" `Quick test_setup_necessity_validation ] );
      ( "qcheck",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba00a |]))
          attacks_qcheck_tests ) ]
