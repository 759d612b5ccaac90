(* Benchmark harness.

   Part 1 regenerates every experiment table (E1–E11, the paper's
   theorem-level claims) — the output recorded in EXPERIMENTS.md.

   Part 2 times an E2-style Monte-Carlo sweep sequentially and on the
   --jobs domain pool, checks the aggregates are bit-identical, and
   records the measured speedup.

   Part 3 is a Bechamel suite: one Test.make per experiment workload (a
   single representative trial of each), plus micro-benchmarks of the
   cryptographic substrate.

     dune exec bench/main.exe              # full run
     dune exec bench/main.exe -- --quick   # reduced repetitions
     dune exec bench/main.exe -- --jobs 4  # trial parallelism
     dune exec bench/main.exe -- --out BENCH_2.json --against BENCH_1.json
                                           # write elsewhere + regression gate
*)

open Bechamel
open Toolkit
open Basim
open Bacore

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let flag_value name =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let jobs =
  match Option.bind (flag_value "--jobs") int_of_string_opt with
  | Some j when j >= 1 -> j
  | Some _ | None -> Bapar.Pool.default_jobs ()

(* --against FILE: after writing the report, diff it against FILE and
   exit nonzero on a regression past --threshold (default 20%). *)
let against = flag_value "--against"

(* --out FILE: where to write the report (default BENCH_1.json;
   successor baselines go to BENCH_2.json, BENCH_3.json, etc. — the
   committed baseline CI gates against is currently BENCH_5.json). *)
let bench_json_path =
  match flag_value "--out" with Some path -> path | None -> "BENCH_1.json"

let threshold =
  match Option.bind (flag_value "--threshold") float_of_string_opt with
  | Some t when t > 0.0 -> t
  | Some _ | None -> 0.2

let () = Baexperiments.Common.set_jobs jobs

(* ---------- Part 1: experiment tables --------------------------------- *)

let () = Baexperiments.All.run_all ~quick ()

(* ---------- Part 2: parallel trial-runner speedup ---------------------- *)

(* An E2-style sweep: passive sub-hm at n = 401, the workload every
   large-n scaling experiment is made of. Timed once sequentially and
   once on the pool; the aggregates must be bit-identical (that is the
   Bapar contract), and the ratio is the machine's measured trial-level
   speedup, recorded in BENCH_1.json. *)
let sweep_trials = if quick then 4 else 12

let speedup_sweep ~jobs () =
  let params = Params.make ~lambda:40 ~max_epochs:60 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  Baexperiments.Common.measure ~jobs ~reps:sweep_trials ~seed:2L
    (fun s ->
      let inputs = Scenario.random_inputs ~n:401 s in
      let result =
        Engine.run proto
          ~adversary:(Engine.passive ~name:"none" ~model:Corruption.Adaptive)
          ~n:401 ~budget:0 ~inputs ~max_rounds:250 ~seed:s
      in
      (result, Properties.agreement ~inputs result))

let time_s f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let parallel_summary =
  print_endline "\n### Parallel trial runner (E2-style sweep, n = 401)\n";
  let seq_s, seq_rates = time_s (speedup_sweep ~jobs:1) in
  let par_s, par_rates = time_s (speedup_sweep ~jobs) in
  let identical =
    Baobs.Json.to_string (Baexperiments.Common.rates_to_json seq_rates)
    = Baobs.Json.to_string (Baexperiments.Common.rates_to_json par_rates)
  in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  Printf.printf "jobs 1: %.3f s   jobs %d: %.3f s   speedup: %.2fx   \
                 aggregates identical: %b\n"
    seq_s jobs par_s speedup identical;
  if not identical then begin
    prerr_endline "bench: parallel aggregates diverged from sequential";
    exit 1
  end;
  (* jobs/recommended_domains/trials pin the measurement conditions: a
     0.79x "speedup" is expected on a 1-core container and meaningless
     without them in the recorded trajectory. *)
  Baobs.Json.Obj
    [ ("jobs", Baobs.Json.Int jobs);
      ( "recommended_domains",
        Baobs.Json.Int (Domain.recommended_domain_count ()) );
      ("trials", Baobs.Json.Int sweep_trials);
      ("seq_s", Baobs.Json.Float seq_s);
      ("par_s", Baobs.Json.Float par_s);
      ("speedup", Baobs.Json.Float speedup);
      ("deterministic", Baobs.Json.Bool identical) ]

(* ---------- Part 3: Bechamel ------------------------------------------- *)

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

let run_sub_hm ~n ~lambda ~world ~seed () =
  let params = Params.make ~lambda ~max_epochs:60 () in
  let proto = Sub_hm.protocol ~params ~world in
  let inputs = Scenario.split_inputs ~n in
  ignore
    (Engine.run proto ~adversary:(passive ()) ~n ~budget:0 ~inputs
       ~max_rounds:250 ~seed)

let experiment_tests =
  [ Test.make ~name:"e1.eraser-vs-sub-hm"
      (Staged.stage (fun () ->
           let params = Params.make ~lambda:20 ~max_epochs:5 () in
           let proto = Sub_hm.protocol ~params ~world:`Hybrid in
           let inputs = Scenario.unanimous_inputs ~n:401 true in
           ignore
             (Engine.run proto ~adversary:(Baattacks.Eraser.make ()) ~n:401
                ~budget:150 ~inputs ~max_rounds:40 ~seed:1L)));
    Test.make ~name:"e1b.dolev-reischuk-isolation"
      (Staged.stage (fun () ->
           let proto = Babaselines.Sparse_relay.protocol ~d:8 in
           let inputs = Array.make 41 true in
           ignore
             (Engine.run proto
                ~adversary:(Baattacks.Dolev_reischuk.make ~victim:40 ())
                ~n:41 ~budget:20 ~inputs ~max_rounds:46 ~seed:1L)));
    Test.make ~name:"e2.sub-hm-n801"
      (Staged.stage (run_sub_hm ~n:801 ~lambda:40 ~world:`Hybrid ~seed:2L));
    Test.make ~name:"e3.quadratic-hm-n101"
      (Staged.stage (fun () ->
           let inputs = Scenario.split_inputs ~n:101 in
           ignore
             (Engine.run (Quadratic_hm.protocol ()) ~adversary:(passive ())
                ~n:101 ~budget:0 ~inputs ~max_rounds:200 ~seed:3L)));
    Test.make ~name:"e3.nakamoto-k8"
      (Staged.stage (fun () ->
           let inputs = Scenario.unanimous_inputs ~n:50 true in
           ignore
             (Engine.run
                (Babaselines.Nakamoto.protocol ~p:0.004 ~confirmations:8)
                ~adversary:(passive ()) ~n:50 ~budget:0 ~inputs
                ~max_rounds:4000 ~seed:4L)));
    Test.make ~name:"e4.split-vote-sub-hm"
      (Staged.stage (fun () ->
           let params = Params.make ~lambda:40 ~max_epochs:40 () in
           let proto = Sub_hm.protocol ~params ~world:`Hybrid in
           let inputs = Scenario.unanimous_inputs ~n:200 true in
           ignore
             (Engine.run proto ~adversary:(Baattacks.Split_vote.sub_hm ())
                ~n:200 ~budget:60 ~inputs ~max_rounds:170 ~seed:5L)));
    Test.make ~name:"e5.equivocator-bit-agnostic"
      (Staged.stage (fun () ->
           let params = Params.make ~lambda:20 ~max_epochs:5 () in
           let proto =
             Sub_third.protocol ~params ~world:`Hybrid
               ~mode:Sub_third.Bit_agnostic
           in
           let inputs = Scenario.split_inputs ~n:360 in
           ignore
             (Engine.run proto ~adversary:(Baattacks.Equivocator.make ())
                ~n:360 ~budget:110 ~inputs ~max_rounds:14 ~seed:6L)));
    Test.make ~name:"e5b.cm-equivocator-no-erasure"
      (Staged.stage (fun () ->
           let params = Params.make ~lambda:20 ~max_epochs:5 () in
           let proto =
             Babaselines.Chen_micali.protocol ~params ~erasure:false
           in
           let inputs = Scenario.split_inputs ~n:360 in
           ignore
             (Engine.run proto ~adversary:(Baattacks.Cm_equivocator.make ())
                ~n:360 ~budget:110 ~inputs ~max_rounds:14 ~seed:6L)));
    Test.make ~name:"e6.two-world-experiment"
      (Staged.stage (fun () ->
           ignore
             (Baattacks.Setup_necessity.run ~n:200 ~committee_size:12
                ~seed:7L)));
    Test.make ~name:"e7.sub-hm-n601"
      (Staged.stage (run_sub_hm ~n:601 ~lambda:40 ~world:`Hybrid ~seed:8L));
    Test.make ~name:"e8.committee-takeover"
      (Staged.stage (fun () ->
           let proto =
             Babaselines.Static_committee.protocol ~committee_size:12
           in
           let inputs = Scenario.unanimous_inputs ~n:200 false in
           ignore
             (Engine.run proto
                ~adversary:(Baattacks.Takeover.make ~force:true ())
                ~n:200 ~budget:24 ~inputs ~max_rounds:6 ~seed:9L)));
    Test.make ~name:"e9.sub-hm-real-world-n61"
      (Staged.stage (run_sub_hm ~n:61 ~lambda:24 ~world:`Real ~seed:10L));
    Test.make ~name:"e10.broadcast-over-sub-hm"
      (Staged.stage (fun () ->
           let params = Params.make ~lambda:40 ~max_epochs:60 () in
           let bb =
             Broadcast.of_ba (Sub_hm.protocol ~params ~world:`Hybrid) ~sender:0
           in
           let inputs = Array.make 201 false in
           inputs.(0) <- true;
           ignore
             (Engine.run bb ~adversary:(passive ()) ~n:201 ~budget:0 ~inputs
                ~max_rounds:254 ~seed:11L)));
    Test.make ~name:"e11.sub-hm-lambda80"
      (Staged.stage (fun () ->
           let params = Params.make ~lambda:80 ~max_epochs:40 () in
           let proto = Sub_hm.protocol ~params ~world:`Hybrid in
           let inputs = Scenario.unanimous_inputs ~n:200 true in
           ignore
             (Engine.run proto ~adversary:(Baattacks.Split_vote.sub_hm ())
                ~n:200 ~budget:80 ~inputs ~max_rounds:170 ~seed:12L))) ]

let crypto_tests =
  let rng = Bacrypto.Rng.create 99L in
  let pki = Bacrypto.Pki.setup ~n:8 rng in
  let sk = Bacrypto.Pki.secret_key pki 0 in
  let pk = Bacrypto.Pki.public_key pki 0 in
  let params = Bacrypto.Pki.params pki in
  let payload = String.make 1024 'x' in
  let key = Bacrypto.Prf.gen rng in
  let counter = ref 0 in
  let precomputed = Bacrypto.Vrf.eval params sk "bench-verify" in
  [ Test.make ~name:"sha256-1KiB"
      (Staged.stage (fun () -> ignore (Bacrypto.Sha256.digest_string payload)));
    Test.make ~name:"hmac-1KiB"
      (Staged.stage (fun () -> ignore (Bacrypto.Hmac.mac ~key payload)));
    Test.make ~name:"vrf-eval"
      (Staged.stage (fun () ->
           incr counter;
           ignore (Bacrypto.Vrf.eval params sk (string_of_int !counter))));
    Test.make ~name:"vrf-verify"
      (Staged.stage (fun () ->
           ignore (Bacrypto.Vrf.verify params pk "bench-verify" precomputed)));
    Test.make ~name:"fmine-mine"
      (Staged.stage
         (let fmine = Bafmine.Fmine.create (Bacrypto.Rng.create 1L) in
          fun () ->
            incr counter;
            ignore
              (Bafmine.Fmine.mine fmine ~node:(!counter mod 1000)
                 ~msg:"Vote:1:0" ~p:0.1))) ]

let estimates results =
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.map (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (t :: _) -> Some t
           | Some [] | None -> None
         in
         (name, ns))

let report named =
  List.iter
    (fun (name, ns) ->
      let estimate =
        match ns with
        | Some t -> Printf.sprintf "%12.0f ns/run" t
        | None -> "(no estimate)"
      in
      Printf.printf "%-45s %s\n" name estimate)
    named

(* One seeded run per headline scenario, recorded as engine counter
   summaries in the JSON report: perf numbers are only comparable
   across commits if the work they measure (rounds, multicasts, bits)
   is pinned alongside them. *)
let engine_counter_summaries () =
  let summarize name (result : Engine.result) =
    Baobs.Json.Obj
      [ ("scenario", Baobs.Json.String name);
        ("rounds_used", Baobs.Json.Int result.Engine.rounds_used);
        ("corruptions", Baobs.Json.Int result.Engine.corruptions);
        ("metrics", Metrics.to_json result.Engine.metrics) ]
  in
  let eraser_n401 () =
    let params = Params.make ~lambda:20 ~max_epochs:5 () in
    let proto = Sub_hm.protocol ~params ~world:`Hybrid in
    let inputs = Scenario.unanimous_inputs ~n:401 true in
    Engine.run proto ~adversary:(Baattacks.Eraser.make ()) ~n:401 ~budget:150
      ~inputs ~max_rounds:40 ~seed:1L
  in
  let passive_n401 () =
    let params = Params.make ~lambda:40 ~max_epochs:60 () in
    let proto = Sub_hm.protocol ~params ~world:`Hybrid in
    let inputs = Scenario.split_inputs ~n:401 in
    Engine.run proto ~adversary:(passive ()) ~n:401 ~budget:0 ~inputs
      ~max_rounds:250 ~seed:2L
  in
  [ summarize "e1.eraser-vs-sub-hm-n401" (eraser_n401 ());
    summarize "e2.sub-hm-passive-n401" (passive_n401 ()) ]

(* One recorded e2.sub-hm-n801 run: the per-round GC/memory series the
   ROADMAP's million-node item gates on. Peak heap and allocated
   words/round are only meaningful against the pinned workload above,
   so they live in the same report. *)
let resource_summary () =
  let open Baobs.Json in
  Baobs.Resource.enable ();
  let recorder = Baobs.Resource.create () in
  let params = Params.make ~lambda:40 ~max_epochs:60 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let inputs = Scenario.split_inputs ~n:801 in
  let result =
    Engine.run proto ~resource:recorder ~adversary:(passive ()) ~n:801
      ~budget:0 ~inputs ~max_rounds:250 ~seed:2L
  in
  Baobs.Resource.disable ();
  let rows = Baobs.Resource.rows recorder in
  let peak_heap =
    List.fold_left
      (fun acc r -> max acc r.Baobs.Resource.row_top_heap_words)
      0 rows
  in
  let minor_gcs, major_gcs =
    List.fold_left
      (fun (mi, ma) r ->
        (mi + r.Baobs.Resource.minor_gcs, ma + r.Baobs.Resource.major_gcs))
      (0, 0) rows
  in
  let words_per_round =
    match Baobs.Resource.allocation_summary recorder with
    | Some s -> Float s.Bastats.Summary.mean
    | None -> Null
  in
  Obj
    [ ("scenario", String "e2.sub-hm-n801");
      ("rounds_used", Int result.Engine.rounds_used);
      ("rows", Int (List.length rows));
      ("peak_heap_words", Int peak_heap);
      ("allocated_words_per_round", words_per_round);
      ("minor_gcs", Int minor_gcs);
      ("major_gcs", Int major_gcs) ]

(* ---------- Scale: the sparse engine at n = 10^3 .. 10^5 --------------- *)

(* The million-node trajectory measured directly: one seeded passive
   sub-HM trial per decade through the crowd-sparse path, recording wall
   time, peak heap and allocated words/round. Memory flatness at
   n = 10^5 is gated in CI by `ba_obs mem --check`; recording the same
   numbers here lets BENCH baselines track the trajectory across
   commits. *)
let scale_summary () =
  let open Baobs.Json in
  print_endline "\n### Sparse engine scale (passive sub-hm, crowd hook)\n";
  List.map
    (fun n ->
      Baobs.Resource.enable ();
      let recorder = Baobs.Resource.create () in
      let params = Params.make ~lambda:40 ~max_epochs:60 () in
      let proto = Sub_hm.protocol ~params ~world:`Hybrid in
      let inputs = Scenario.split_inputs ~n in
      let wall_s, result =
        time_s (fun () ->
            Engine.run proto ~resource:recorder
              ~sparse:(Sub_hm.sparse_step ())
              ~adversary:(passive ()) ~n ~budget:0 ~inputs ~max_rounds:250
              ~seed:2L)
      in
      Baobs.Resource.disable ();
      let rows = Baobs.Resource.rows recorder in
      let peak_heap =
        List.fold_left
          (fun acc r -> max acc r.Baobs.Resource.row_top_heap_words)
          0 rows
      in
      let words_per_round =
        match Baobs.Resource.allocation_summary recorder with
        | Some s -> Some s.Bastats.Summary.mean
        | None -> None
      in
      Printf.printf
        "n=%-7d rounds=%-3d wall %8.3f s   peak heap %10d words   \
         alloc/round %s\n"
        n result.Engine.rounds_used wall_s peak_heap
        (match words_per_round with
        | Some w -> Printf.sprintf "%12.0f words" w
        | None -> "(none)");
      Obj
        [ ("scenario", String (Printf.sprintf "scale.sub-hm-sparse-n%d" n));
          ("n", Int n);
          ("rounds_used", Int result.Engine.rounds_used);
          ("wall_s", Float wall_s);
          ("peak_heap_words", Int peak_heap);
          ( "allocated_words_per_round",
            match words_per_round with Some w -> Float w | None -> Null ) ])
    [ 1_000; 10_000; 100_000 ]

let write_bench_json ~quota_s named =
  let open Baobs.Json in
  let results =
    List.map
      (fun (name, ns) ->
        Obj
          [ ("name", String name);
            ("ns_per_run", match ns with Some t -> Float t | None -> Null) ])
      named
  in
  let json =
    Obj
      [ ("schema", String "ba-bench/v1");
        ("quick", Bool quick);
        ("quota_s", Float quota_s);
        ("parallel", parallel_summary);
        ("results", List results);
        ("engine_counters", List (engine_counter_summaries ()));
        ("resource", resource_summary ());
        ("scale", List (scale_summary ())) ]
  in
  let oc = open_out bench_json_path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d estimates)\n" bench_json_path
    (List.length named)

let () =
  print_endline "\n### Bechamel micro/macro benchmarks\n";
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then Time.second 0.1 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:100 ~quota ~kde:None () in
  let grouped =
    Test.make_grouped ~name:"ba"
      [ Test.make_grouped ~name:"experiments" experiment_tests;
        Test.make_grouped ~name:"crypto" crypto_tests ]
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let named = estimates results in
  report named;
  write_bench_json ~quota_s:(if quick then 0.1 else 0.5) named;
  print_endline "\nbench: done";
  (* Regression gate: diff the report just written against a recorded
     baseline. Exit nonzero so CI can gate (soft or hard) on it. *)
  match against with
  | None -> ()
  | Some base_path ->
      let read_json path =
        let ic = open_in_bin path in
        let contents =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        Baobs.Json.of_string (String.trim contents)
      in
      let cmp =
        Baobs.Bench_compare.diff ~threshold ~base:(read_json base_path)
          ~current:(read_json bench_json_path) ()
      in
      Printf.printf "\n### Bench comparison vs %s\n\n%s" base_path
        (Baobs.Bench_compare.render cmp);
      exit (Baobs.Bench_compare.exit_code cmp)
