(* Tests for the telemetry layer (Baobs) and its engine integration:
   JSON round-trips, metric series vs. Metrics aggregates, JSONL trace
   sinks, per-round resource rows, trace reports, causal analysis, and
   the readers' robustness to truncated or edited files. *)

open Basim
open Bacore

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

(* --- Json ------------------------------------------------------------------ *)

let sample_json =
  Baobs.Json.(
    Obj
      [ ("null", Null);
        ("bool", Bool true);
        ("int", Int (-42));
        ("float", Float 3.25);
        ("mean", Float 117.09999999999991);
        ("string", String "quote \" backslash \\ newline \n tab \t");
        ("list", List [ Int 1; Float 2.5; String "x"; Obj [] ]);
        ("nested", Obj [ ("inner", List [ Bool false; Null ]) ]) ])

let test_json_roundtrip () =
  let s = Baobs.Json.to_string sample_json in
  let parsed = Baobs.Json.of_string s in
  Alcotest.(check bool) "roundtrip equal" true (parsed = sample_json);
  Alcotest.(check string) "stable reprint" s (Baobs.Json.to_string parsed)

let test_json_parse_whitespace () =
  let parsed =
    Baobs.Json.of_string "  { \"a\" : [ 1 , 2.0 ,\n \"b\" ] , \"c\": null } "
  in
  Baobs.Json.(
    Alcotest.(check bool) "parsed" true
      (parsed = Obj [ ("a", List [ Int 1; Float 2.0; String "b" ]); ("c", Null) ]))

let test_json_parse_errors () =
  let bad s =
    match Baobs.Json.of_string s with
    | exception Baobs.Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "unterminated string" true (bad "\"abc");
  Alcotest.(check bool) "bare word" true (bad "bogus")

let test_rates_json_roundtrip () =
  let rates =
    { Baexperiments.Common.trials = 10;
      consistency_fail = 1;
      validity_fail = 0;
      termination_fail = 2;
      total_rounds = 115;
      total_multicasts = 1171;
      total_multicast_bits = 62124;
      total_unicasts = 0;
      total_removals = 400;
      total_corruptions = 400 }
  in
  let json = Baexperiments.Common.rates_to_json rates in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check bool) "rates roundtrip" true (parsed = json);
  Alcotest.(check int) "trials"
    10
    Baobs.Json.(as_int (member_exn "trials" parsed));
  Alcotest.(check (float 1e-9)) "mean_multicasts" 117.1
    Baobs.Json.(as_float (member_exn "mean_multicasts" parsed))

(* --- Series vs Metrics ----------------------------------------------------- *)

let run_sub_hm_with_series ~n ~lambda ~max_epochs ~budget ~adversary ~inputs
    ~seed =
  let params = Params.make ~lambda ~max_epochs () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let buf = Buffer.create 4096 in
  let sink = Baobs.Jsonl.to_buffer buf in
  let result =
    Engine.run
      ~tracer:(Trace.jsonl_tracer sink)
      proto ~adversary ~n ~budget ~inputs
      ~max_rounds:((4 * max_epochs) + 12) ~seed
  in
  (result, Metrics.series result.Engine.metrics, Buffer.contents buf)

(* Rebuild the Definition-7 accounting from a JSONL trace, cell by
   (round, node, kind) cell: erased honest sends appear as [removed]
   events carrying their shape. Unlabeled traces omit an injection's
   bits, so that one kind is not replayed. *)
let replay_of_jsonl text =
  let cells = Hashtbl.create 256 in
  let add round node (kind : Baobs.Series.kind) by =
    if by <> 0 then
      Hashtbl.replace cells (round, node, kind)
        (by + Option.value (Hashtbl.find_opt cells (round, node, kind)) ~default:0)
  in
  List.iter
    (fun line ->
      if line <> "" then begin
        let j = Baobs.Json.of_string line in
        let int k = Baobs.Json.(as_int (member_exn k j)) in
        let honest_send node =
          let round = int "round" and bits = int "bits" in
          if Baobs.Json.(as_bool (member_exn "multicast" j)) then begin
            add round node Baobs.Series.Multicast 1;
            add round node Baobs.Series.Multicast_bits bits
          end
          else begin
            let recipients = int "recipients" in
            add round node Baobs.Series.Unicast recipients;
            add round node Baobs.Series.Unicast_bits (recipients * bits)
          end
        in
        match Baobs.Json.(as_string (member_exn "event" j)) with
        | "sent" -> honest_send (int "node")
        | "removed" ->
            add (int "round") (int "victim") Baobs.Series.Removal 1;
            honest_send (int "victim")
        | "injected" -> add (int "round") (int "src") Baobs.Series.Injection 1
        | "corrupted" -> add (int "round") (int "node") Baobs.Series.Corruption 1
        | _ -> ()
      end)
    (String.split_on_char '\n' text);
  cells

let cell_string (round, node, kind) v =
  Printf.sprintf "r%d n%d %s=%d" round node (Baobs.Series.kind_name kind) v

(* The trace replay is the independent check of the engine's one
   accounting path: the aggregates and every series cell must equal
   what the trace says happened. *)
let check_trace_matches_metrics name (result : Engine.result) series jsonl =
  let m = result.Engine.metrics in
  let replayed = replay_of_jsonl jsonl in
  let replay_total kind =
    Hashtbl.fold
      (fun (_, _, k) v acc -> if k = kind then acc + v else acc)
      replayed 0
  in
  Alcotest.(check int) (name ^ ": multicasts") (Metrics.honest_multicasts m)
    (replay_total Baobs.Series.Multicast);
  Alcotest.(check int)
    (name ^ ": multicast bits")
    (Metrics.honest_multicast_bits m)
    (replay_total Baobs.Series.Multicast_bits);
  Alcotest.(check int) (name ^ ": unicasts") (Metrics.honest_unicasts m)
    (replay_total Baobs.Series.Unicast);
  Alcotest.(check int) (name ^ ": removals") (Metrics.removals m)
    (replay_total Baobs.Series.Removal);
  Alcotest.(check int) (name ^ ": injections") (Metrics.injections m)
    (replay_total Baobs.Series.Injection);
  let cells_of series =
    Baobs.Series.fold series
      (fun acc ~round ~node kind v ->
        if kind = Baobs.Series.Injection_bits then acc
        else cell_string (round, node, kind) v :: acc)
      []
    |> List.sort String.compare
  in
  let recorded = cells_of series in
  Alcotest.(check (list string))
    (name ^ ": series cells = trace replay")
    (List.sort String.compare
       (Hashtbl.fold (fun key v acc -> cell_string key v :: acc) replayed []))
    recorded;
  (* The library's replay (read by Report, Causal and Trace_lint) too. *)
  let replay =
    Metrics.of_events ~n:(Baobs.Series.n_nodes series)
      (Trace.events_of_jsonl jsonl)
  in
  Alcotest.(check (list string)) (name ^ ": Metrics.of_events = series")
    recorded (cells_of (Metrics.series replay));
  Alcotest.(check int) (name ^ ": replayed rounds") (Metrics.rounds m)
    (Metrics.rounds replay)

let test_series_matches_metrics_e1 () =
  (* E1 scenario: strongly adaptive eraser vs sub-hm — exercises
     removals, dynamic corruptions, and the erased-send accounting. *)
  let result, series, jsonl =
    run_sub_hm_with_series ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  Alcotest.(check bool) "some removals happened" true
    (Metrics.removals result.Engine.metrics > 0);
  check_trace_matches_metrics "e1" result series jsonl;
  Alcotest.(check int) "series corruption total = tracker count"
    result.Engine.corruptions
    (Baobs.Series.total series Baobs.Series.Corruption)

let test_series_matches_metrics_e2 () =
  (* E2 scenario: passive multicast-scaling run. *)
  let result, series, jsonl =
    run_sub_hm_with_series ~n:201 ~lambda:20 ~max_epochs:10 ~budget:0
      ~adversary:(passive ())
      ~inputs:(Scenario.split_inputs ~n:201)
      ~seed:2L
  in
  Alcotest.(check bool) "decided" true result.Engine.all_honest_decided;
  check_trace_matches_metrics "e2" result series jsonl;
  (* Round sums across the whole series reproduce the aggregate. *)
  let sum = ref 0 in
  for round = -1 to Baobs.Series.max_round series do
    sum := !sum + Baobs.Series.round_total series ~round Baobs.Series.Multicast
  done;
  Alcotest.(check int) "per-round sums = aggregate"
    (Metrics.honest_multicasts result.Engine.metrics)
    !sum

let test_series_json_and_csv () =
  let result, series, _ =
    run_sub_hm_with_series ~n:101 ~lambda:20 ~max_epochs:5 ~budget:0
      ~adversary:(passive ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 false)
      ~seed:3L
  in
  let json = Baobs.Series.to_json series in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check bool) "series json roundtrip" true (parsed = json);
  let totals = Baobs.Json.member_exn "totals" parsed in
  Alcotest.(check int) "json totals match metrics"
    (Metrics.honest_multicasts result.Engine.metrics)
    Baobs.Json.(as_int (member_exn "multicasts" totals));
  (* CSV: header plus one row per (round, node) cell group, each row
     with the full kind column set. *)
  let csv = Baobs.Series.to_csv series in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (match lines with
  | header :: rows ->
      Alcotest.(check int) "csv columns" 10
        (List.length (String.split_on_char ',' header));
      Alcotest.(check bool) "csv has rows" true (List.length rows > 0);
      List.iter
        (fun row ->
          Alcotest.(check int) "row arity" 10
            (List.length (String.split_on_char ',' row)))
        rows
  | [] -> Alcotest.fail "empty csv")

let test_jsonl_sink_valid_lines () =
  let _, _, jsonl =
    run_sub_hm_with_series ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check bool) "nonempty trace" true (List.length lines > 0);
  List.iter
    (fun line ->
      match Baobs.Json.of_string line with
      | Baobs.Json.Obj _ as j ->
          let kind = Baobs.Json.(as_string (member_exn "event" j)) in
          Alcotest.(check bool) ("known kind " ^ kind) true
            (List.mem kind
               [ "round_started"; "sent"; "corrupted"; "removed"; "injected";
                 "halted" ])
      | _ -> Alcotest.fail "JSONL line is not an object")
    lines

(* --- Csv edge cases -------------------------------------------------------- *)

let test_csv_quoting () =
  Alcotest.(check string) "plain field untouched" "abc" (Baobs.Csv.field "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Baobs.Csv.field "a,b");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Baobs.Csv.field "a\nb");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Baobs.Csv.field "a\"b");
  Alcotest.(check string) "row joins quoted cells" "x,\"y,z\",\"q\"\"\""
    (Baobs.Csv.row [ "x"; "y,z"; "q\"" ]);
  Alcotest.(check string) "no rows = header only" "a,b\n"
    (Baobs.Csv.to_string ~header:[ "a"; "b" ] [])

let test_series_empty_exports () =
  let series = Baobs.Series.create ~n:5 in
  let csv = Baobs.Series.to_csv series in
  Alcotest.(check int) "csv is header only" 1
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  let json = Baobs.Series.to_json series in
  Alcotest.(check int) "zero total"
    0
    Baobs.Json.(
      as_int (member_exn "multicasts" (member_exn "totals" json)));
  Alcotest.(check int) "max_round of empty" (-2) (Baobs.Series.max_round series)

(* --- Bench compare ---------------------------------------------------------- *)

let bench_json results =
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-bench/v1");
      ( "results",
        Baobs.Json.List
          (List.map
             (fun (name, ns) ->
               Baobs.Json.Obj
                 [ ("name", Baobs.Json.String name);
                   ( "ns_per_run",
                     match ns with
                     | Some v -> Baobs.Json.Float v
                     | None -> Baobs.Json.Null ) ])
             results) ) ]

let test_bench_compare_identical () =
  let report =
    bench_json [ ("a", Some 100.0); ("b", Some 2.0e6); ("c", None) ]
  in
  let cmp = Baobs.Bench_compare.diff ~base:report ~current:report () in
  Alcotest.(check bool) "no regressions" false
    (Baobs.Bench_compare.has_regressions cmp);
  Alcotest.(check int) "exit 0 on identical" 0
    (Baobs.Bench_compare.exit_code cmp)

let test_bench_compare_regression () =
  let base = bench_json [ ("a", Some 100.0); ("b", Some 2.0e6) ] in
  let current = bench_json [ ("a", Some 100.0); ("b", Some 4.0e6) ] in
  let cmp = Baobs.Bench_compare.diff ~base ~current () in
  Alcotest.(check int) "exit nonzero on a 2x regression" 1
    (Baobs.Bench_compare.exit_code cmp);
  (match Baobs.Bench_compare.regressions cmp with
  | [ r ] ->
      Alcotest.(check string) "the regressed benchmark" "b"
        r.Baobs.Bench_compare.name;
      Alcotest.(check (float 1e-9)) "ratio 2x" 2.0
        (match r.Baobs.Bench_compare.ratio with Some x -> x | None -> nan)
  | rows ->
      Alcotest.fail
        (Printf.sprintf "expected one regression, got %d" (List.length rows)));
  (* The comparison artifact is valid JSON and records the count. *)
  let json = Baobs.Bench_compare.to_json cmp in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check int) "json regression count" 1
    Baobs.Json.(as_int (member_exn "regressions" parsed))

let test_bench_compare_statuses () =
  let base =
    bench_json
      [ ("gone", Some 10.0); ("same", Some 100.0); ("faster", Some 100.0);
        ("null", None) ]
  in
  let current =
    bench_json
      [ ("same", Some 105.0); ("faster", Some 50.0); ("new", Some 7.0);
        ("null", None) ]
  in
  let cmp = Baobs.Bench_compare.diff ~base ~current () in
  let status name =
    match
      List.find_opt
        (fun r -> r.Baobs.Bench_compare.name = name)
        cmp.Baobs.Bench_compare.rows
    with
    | Some r -> Baobs.Bench_compare.status_name r.Baobs.Bench_compare.status
    | None -> "absent"
  in
  Alcotest.(check string) "removed" "removed" (status "gone");
  Alcotest.(check string) "added" "added" (status "new");
  Alcotest.(check string) "unchanged" "unchanged" (status "same");
  Alcotest.(check string) "improvement" "improvement" (status "faster");
  Alcotest.(check string) "no estimate" "no-estimate" (status "null");
  Alcotest.(check int) "none of these gate" 0
    (Baobs.Bench_compare.exit_code cmp)

(* --- Report ----------------------------------------------------------------- *)

let totals_from_round_table report =
  (* Recompute the aggregates purely from the per-round table — the
     acceptance criterion: the table alone reproduces Metrics. *)
  List.fold_left
    (fun (m, mb, u, r) (_, c) ->
      ( m + c.Baobs_report.Report.multicasts,
        mb + c.Baobs_report.Report.multicast_bits,
        u + c.Baobs_report.Report.unicasts,
        r + c.Baobs_report.Report.removals ))
    (0, 0, 0, 0)
    (Baobs_report.Report.rounds report)

let test_report_reproduces_metrics_e1 () =
  (* Seeded E1: strongly adaptive eraser vs sub-hm, the run whose trace
     carries removals — Definition-7 accounting must survive the
     trace -> JSONL -> re-parse -> report pipeline exactly. *)
  let result, _, jsonl =
    run_sub_hm_with_series ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  let report = Baobs_report.Report.of_jsonl_string jsonl in
  let m = result.Engine.metrics in
  let multicasts, multicast_bits, unicasts, removals =
    totals_from_round_table report
  in
  Alcotest.(check bool) "scenario has removals" true (Metrics.removals m > 0);
  Alcotest.(check int) "per-round multicasts = Metrics"
    (Metrics.honest_multicasts m) multicasts;
  Alcotest.(check int) "per-round multicast bits = Metrics (Definition 7)"
    (Metrics.honest_multicast_bits m)
    multicast_bits;
  Alcotest.(check int) "per-round unicasts = Metrics"
    (Metrics.honest_unicasts m) unicasts;
  Alcotest.(check int) "per-round removals = Metrics" (Metrics.removals m)
    removals;
  (* The same aggregates via the totals record and per-node table. *)
  let t = Baobs_report.Report.totals report in
  Alcotest.(check int) "totals multicasts" (Metrics.honest_multicasts m)
    t.Baobs_report.Report.multicasts;
  Alcotest.(check int) "node-table multicasts"
    (Metrics.honest_multicasts m)
    (List.fold_left
       (fun acc (_, c) -> acc + c.Baobs_report.Report.multicasts)
       0
       (Baobs_report.Report.nodes report));
  Alcotest.(check int) "corruptions = engine count" result.Engine.corruptions
    t.Baobs_report.Report.corruptions;
  (* Internal consistency gate used by CI. *)
  match Baobs_report.Report.check report with
  | Ok () -> ()
  | Error errors -> Alcotest.fail (String.concat "; " errors)

let test_report_exports () =
  let _, _, jsonl =
    run_sub_hm_with_series ~n:101 ~lambda:20 ~max_epochs:5 ~budget:0
      ~adversary:(passive ())
      ~inputs:(Scenario.split_inputs ~n:101)
      ~seed:3L
  in
  let report = Baobs_report.Report.of_jsonl_string jsonl in
  (* JSON round-trips and its totals equal the accessors. *)
  let json = Baobs_report.Report.to_json ~k:3 report in
  let parsed = Baobs.Json.of_string (Baobs.Json.to_string json) in
  Alcotest.(check bool) "report json roundtrip" true (parsed = json);
  let t = Baobs_report.Report.totals report in
  Alcotest.(check int) "json totals multicasts"
    t.Baobs_report.Report.multicasts
    Baobs.Json.(as_int (member_exn "multicasts" (member_exn "totals" parsed)));
  Alcotest.(check bool) "top talkers truncated to k" true
    (List.length Baobs.Json.(as_list (member_exn "top_talkers" parsed)) <= 3);
  (* p50/p95/p99 summary present for multicast sizes. *)
  (match Baobs_report.Report.multicast_size_summary report with
  | Some s ->
      Alcotest.(check bool) "p50 <= p95 <= p99" true
        (s.Bastats.Summary.p50 <= s.Bastats.Summary.p95
        && s.Bastats.Summary.p95 <= s.Bastats.Summary.p99)
  | None -> Alcotest.fail "expected multicast sizes");
  (* CSV: header + one row per round, constant arity. *)
  let csv = Baobs_report.Report.to_csv report in
  (match List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) with
  | header :: rows ->
      Alcotest.(check int) "csv rows = rounds with activity"
        (List.length (Baobs_report.Report.rounds report))
        (List.length rows);
      let arity l = List.length (String.split_on_char ',' l) in
      List.iter
        (fun row -> Alcotest.(check int) "csv row arity" (arity header) (arity row))
        rows
  | [] -> Alcotest.fail "empty report csv");
  (* Text rendering contains all three table titles. *)
  let text = Baobs_report.Report.to_text report in
  let contains needle =
    let nn = String.length needle and tn = String.length text in
    let rec scan i =
      i + nn <= tn && (String.sub text i nn = needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun title ->
      Alcotest.(check bool) ("text mentions " ^ title) true (contains title))
    [ "Per-round timeline"; "Top talkers"; "Message sizes" ]

let test_report_empty_trace () =
  let report = Baobs_report.Report.of_events [] in
  Alcotest.(check int) "no events" 0 (Baobs_report.Report.event_count report);
  Alcotest.(check (list int)) "no rounds" []
    (List.map fst (Baobs_report.Report.rounds report));
  Alcotest.(check bool) "no sizes" true
    (Baobs_report.Report.multicast_size_summary report = None);
  (match Baobs_report.Report.check report with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  (* Exporters cope with emptiness. *)
  Alcotest.(check bool) "csv is header only" true
    (List.length
       (List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' (Baobs_report.Report.to_csv report)))
    = 1);
  Alcotest.(check bool) "json still valid" true
    (Baobs.Json.of_string
       (Baobs.Json.to_string (Baobs_report.Report.to_json report))
    = Baobs_report.Report.to_json report)

(* An unlabeled honest send of 8 bits. *)
let send round node multicast recipients =
  Trace.Sent
    { round; node; multicast; recipients; bits = 8; id = Trace.no_id;
      kind = Trace.no_kind; targets = [] }

let test_report_zero_recipient_row () =
  (* A send to no one records no series cell; its round and its sender
     still get a row. *)
  let report =
    Baobs_report.Report.of_events
      [ Trace.Round_started { round = 0 }; send 0 0 true 3;
        Trace.Round_started { round = 1 }; send 1 2 false 0;
        Trace.Round_started { round = 2 };
        Trace.Halted { round = 2; node = 1; output = Some true } ]
  in
  Alcotest.(check (list int)) "round rows" [ 0; 1; 2 ]
    (List.map fst (Baobs_report.Report.rounds report));
  Alcotest.(check (list int)) "node rows" [ 0; 1; 2 ]
    (List.map fst (Baobs_report.Report.nodes report));
  Alcotest.(check bool) "consistent" true
    (Baobs_report.Report.check report = Ok ())

(* --- Sink path validation --------------------------------------------------- *)

let test_validate_path () =
  Alcotest.(check bool) "missing parent rejected" true
    (match Baobs.Jsonl.validate_path "/nonexistent-xyz/trace.jsonl" with
    | Error _ -> true
    | Ok () -> false);
  Alcotest.(check bool) "existing directory as target rejected" true
    (match Baobs.Jsonl.validate_path "." with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "cwd-relative file accepted" true
    (Baobs.Jsonl.validate_path "some-new-file.jsonl" = Ok ());
  let tmp = Filename.temp_file "baobs" ".jsonl" in
  Alcotest.(check bool) "existing file accepted (overwrite)" true
    (Baobs.Jsonl.validate_path tmp = Ok ());
  Sys.remove tmp

(* --- Resource telemetry ----------------------------------------------------- *)

let test_resource_delta_nonnegative () =
  let before = Baobs.Resource.sample () in
  (* Allocate enough to move the minor counter for sure. *)
  let junk = ref [] in
  for i = 0 to 10_000 do
    junk := (i, string_of_int i) :: !junk
  done;
  ignore (List.length !junk);
  let after = Baobs.Resource.sample () in
  let d = Baobs.Resource.delta ~before ~after in
  Alcotest.(check bool) "allocated > 0" true
    (d.Baobs.Resource.allocated_words > 0.0);
  Alcotest.(check bool) "promoted >= 0" true
    (d.Baobs.Resource.promoted_words >= 0.0);
  Alcotest.(check bool) "minor gcs >= 0" true
    (d.Baobs.Resource.minor_collections >= 0);
  Alcotest.(check bool) "major gcs >= 0" true
    (d.Baobs.Resource.major_collections >= 0);
  Alcotest.(check bool) "compactions >= 0" true
    (d.Baobs.Resource.compactions >= 0);
  (* Degenerate window: a delta over one sample is all-zero. *)
  let z = Baobs.Resource.delta ~before ~after:before in
  Alcotest.(check bool) "self-delta zero" true
    (z.Baobs.Resource.allocated_words = 0.0
    && z.Baobs.Resource.minor_collections = 0)

(* The recorder rides the trace, as in [ba_run --resource-json]: the
   caller opens the setup row, round starts roll the rows, and the
   caller closes the last one. *)
let run_sub_hm_with_resource ~resource ~seed =
  let n = 101 in
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let buf = Buffer.create 4096 in
  let jsonl = Trace.jsonl_tracer (Baobs.Jsonl.to_buffer buf) in
  let tracer e =
    Option.iter (fun r -> Trace.resource_tracer r e) resource;
    jsonl e
  in
  Option.iter (Baobs.Resource.open_round ~round:(-1)) resource;
  let result =
    Engine.run ~tracer proto
      ~adversary:(Baattacks.Eraser.make ())
      ~n ~budget:30
      ~inputs:(Scenario.unanimous_inputs ~n true)
      ~max_rounds:32 ~seed
  in
  Option.iter Baobs.Resource.close resource;
  (result, Buffer.contents buf)

let test_resource_recorder_rows () =
  let r = Baobs.Resource.create () in
  let result, _ = run_sub_hm_with_resource ~resource:(Some r) ~seed:7L in
  let rows = Baobs.Resource.rows r in
  (* One setup row (round -1) plus one row per executed round. *)
  Alcotest.(check int) "row count" (result.Engine.rounds_used + 1)
    (List.length rows);
  Alcotest.(check (list int)) "round numbering"
    (List.init (result.Engine.rounds_used + 1) (fun i -> i - 1))
    (List.map (fun row -> row.Baobs.Resource.round) rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "allocated >= 0" true
        (row.Baobs.Resource.row_allocated_words >= 0.0);
      Alcotest.(check bool) "heap > 0" true
        (row.Baobs.Resource.row_heap_words > 0))
    rows;
  (* The streaming summary covers exactly the executed rounds. *)
  match Baobs.Resource.allocation_summary r with
  | Some s ->
      Alcotest.(check int) "summary count" result.Engine.rounds_used
        s.Bastats.Summary.count
  | None -> Alcotest.fail "expected an allocation summary"

let test_resource_trace_byte_identical () =
  (* The determinism contract: recording reads GC counters only, so the
     same seeded run emits byte-for-byte the same trace with or
     without a recorder riding the tracer. *)
  let _, plain = run_sub_hm_with_resource ~resource:None ~seed:11L in
  let r = Baobs.Resource.create () in
  let _, recorded = run_sub_hm_with_resource ~resource:(Some r) ~seed:11L in
  Alcotest.(check bool) "recorder saw the run" true
    (Baobs.Resource.rows r <> []);
  Alcotest.(check string) "traces byte-identical" plain recorded

let test_resource_json_roundtrip () =
  let r = Baobs.Resource.create () in
  let _ = run_sub_hm_with_resource ~resource:(Some r) ~seed:3L in
  let json =
    Baobs.Resource.to_json ~meta:[ ("protocol", Baobs.Json.String "sub-hm") ] r
  in
  (* Serialize → reparse → the analysis sees the recorder's rows. *)
  let report =
    Baobs.Resource.report_of_json
      (Baobs.Json.of_string (Baobs.Json.to_string json))
  in
  Alcotest.(check int) "rows survive the round-trip"
    (List.length (Baobs.Resource.rows r))
    (List.length (Baobs.Resource.report_rows report));
  List.iter2
    (fun a b ->
      Alcotest.(check int) "round" a.Baobs.Resource.round
        b.Baobs.Resource.round;
      Alcotest.(check int) "ns" a.Baobs.Resource.ns b.Baobs.Resource.ns;
      Alcotest.(check bool) "allocated equal" true
        (a.Baobs.Resource.row_allocated_words
        = b.Baobs.Resource.row_allocated_words))
    (Baobs.Resource.rows r)
    (Baobs.Resource.report_rows report);
  (* CSV: header plus one line per row. *)
  let csv_lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Baobs.Resource.to_csv r))
  in
  Alcotest.(check int) "csv lines"
    (1 + List.length (Baobs.Resource.rows r))
    (List.length csv_lines);
  (* Foreign schemas refused, including v1, whose rows carry no ns. *)
  List.iter
    (fun tag ->
      Alcotest.(check bool) (tag ^ " refused") true
        (match
           Baobs.Resource.report_of_json
             (Baobs.Json.Obj [ ("schema", Baobs.Json.String tag) ])
         with
        | exception Baobs.Json.Parse_error _ -> true
        | _ -> false))
    [ "nope/v1"; "ba-resource/v1" ]

(* Row times are monotonic-clock windows that open where the previous
   one closed, so they are never negative and together fit inside the
   wall time measured around the recorded run. *)
let test_resource_ns_within_wall_time () =
  let r = Baobs.Resource.create () in
  let t0 = Monotonic_clock.now () in
  let _ = run_sub_hm_with_resource ~resource:(Some r) ~seed:5L in
  let wall = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  let rows = Baobs.Resource.rows r in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d ns >= 0" row.Baobs.Resource.round)
        true
        (row.Baobs.Resource.ns >= 0))
    rows;
  let total =
    List.fold_left (fun acc row -> acc + row.Baobs.Resource.ns) 0 rows
  in
  Alcotest.(check bool)
    (Printf.sprintf "rows sum %d ns <= wall %d ns" total wall)
    true
    (total > 0 && total <= wall);
  Alcotest.(check int) "totals.ns is the row sum" total
    Baobs.Json.(
      as_int (member_exn "ns" (member_exn "totals" (Baobs.Resource.to_json r))))

let synthetic_resource_json rows =
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-resource/v2");
      ( "rounds",
        Baobs.Json.List
          (List.mapi
             (fun i allocated ->
               Baobs.Json.Obj
                 [ ("round", Baobs.Json.Int i);
                   ("ns", Baobs.Json.Int 1000);
                   ("allocated_words", Baobs.Json.Float allocated);
                   ("promoted_words", Baobs.Json.Float 0.0);
                   ("minor_gcs", Baobs.Json.Int 0);
                   ("major_gcs", Baobs.Json.Int 0);
                   ("heap_words", Baobs.Json.Int 1000);
                   ("top_heap_words", Baobs.Json.Int 1000) ])
             rows) ) ]

let test_resource_flatness_verdicts () =
  (* Steady allocation with per-epoch bursts and a decision-round spike:
     the shape a healthy protocol run produces — flat. *)
  let healthy =
    [ 900_000.0; 250_000.0; 0.0; 0.0; 250_000.0; 0.0; 0.0; 250_000.0;
      0.0; 0.0; 250_000.0; 0.0; 0.0; 250_000.0; 1_000_000.0; 950_000.0 ]
  in
  let f =
    Baobs.Resource.flatness
      (Baobs.Resource.report_of_json (synthetic_resource_json healthy))
  in
  Alcotest.(check bool) "bursty-but-steady is flat" true
    f.Baobs.Resource.flat;
  (* Linear growth in most rounds — a leak — is not flat. *)
  let leaking = List.init 16 (fun i -> 100_000.0 +. (25_000.0 *. float_of_int i)) in
  let f =
    Baobs.Resource.flatness
      (Baobs.Resource.report_of_json (synthetic_resource_json leaking))
  in
  Alcotest.(check bool) "linear growth is not flat" false
    f.Baobs.Resource.flat;
  Alcotest.(check bool) "drift positive" true (f.Baobs.Resource.drift > 0.0);
  (* Too few rounds to fit: trivially flat. *)
  let f =
    Baobs.Resource.flatness
      (Baobs.Resource.report_of_json
         (synthetic_resource_json [ 1.0; 2.0; 3.0 ]))
  in
  Alcotest.(check bool) "short run trivially flat" true
    f.Baobs.Resource.flat

(* --- Report rounds window ---------------------------------------------------- *)

let test_report_rounds_window () =
  let _, _, jsonl =
    run_sub_hm_with_series ~n:101 ~lambda:20 ~max_epochs:5 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  let full = Baobs_report.Report.of_jsonl_string jsonl in
  let lo, hi = (1, 2) in
  let windowed = Baobs_report.Report.of_jsonl_string ~rounds:(lo, hi) jsonl in
  (* The windowed totals equal the full report's per-round rows summed
     over the window — the --check sums recompute over the window. *)
  let expect field =
    List.fold_left
      (fun acc (round, c) -> if lo <= round && round <= hi then acc + field c else acc)
      0
      (Baobs_report.Report.rounds full)
  in
  let t = Baobs_report.Report.totals windowed in
  Alcotest.(check int) "windowed multicasts"
    (expect (fun c -> c.Baobs_report.Report.multicasts))
    t.Baobs_report.Report.multicasts;
  Alcotest.(check int) "windowed multicast bits"
    (expect (fun c -> c.Baobs_report.Report.multicast_bits))
    t.Baobs_report.Report.multicast_bits;
  Alcotest.(check int) "windowed removals"
    (expect (fun c -> c.Baobs_report.Report.removals))
    t.Baobs_report.Report.removals;
  Alcotest.(check bool) "only windowed rounds remain" true
    (List.for_all
       (fun (round, _) -> lo <= round && round <= hi)
       (Baobs_report.Report.rounds windowed));
  Alcotest.(check bool) "window shrinks the event list" true
    (Baobs_report.Report.event_count windowed
    < Baobs_report.Report.event_count full);
  (match Baobs_report.Report.check windowed with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  (* An empty window is a usage error, not an empty report. *)
  Alcotest.check_raises "inverted window"
    (Invalid_argument "Report.of_events: empty rounds window") (fun () ->
      ignore (Baobs_report.Report.of_jsonl_string ~rounds:(3, 1) jsonl))

(* --- Trace collector fixes -------------------------------------------------- *)

let test_collector_memoized_events () =
  let c = Trace.collector () in
  for round = 0 to 99 do
    Trace.observe c (Trace.Round_started { round })
  done;
  let a = Trace.events c in
  let b = Trace.events c in
  Alcotest.(check bool) "memoized list reused" true (a == b);
  Alcotest.(check int) "count without events" 100
    (Trace.count c (function Trace.Round_started _ -> true | _ -> false));
  Trace.observe c (Trace.Round_started { round = 100 });
  Alcotest.(check int) "cache invalidated on observe" 101
    (List.length (Trace.events c));
  Alcotest.(check int) "length" 101 (Trace.length c)

(* --- Causal analysis --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A three-node execution whose happens-before DAG fits on paper:
     round 0: node 0 multicasts (kind "a"); node 2 is corrupted.
     round 1: corrupt 2 injects to node 1 (kind "x"); honest 1 sends to
              node 0; a second send of node 1 to node 0 is erased.
     round 2: nodes 0 and 1 halt.
   Taint sources: Corrupted(2,0) -> states (2,1),(2,2); the injection
   taints (1,2); the severed send taints its would-be recipient (0,2).
   Cones (memory + delivery edges, severed edge absent):
     node 0 @ 2: {(0,2),(0,1),(0,0),(1,1),(1,0)}   -> 5 states, 1 tainted
     node 1 @ 2: {(1,2),(1,1),(1,0),(2,1),(2,0),(0,0)} -> 6 states, 2 tainted *)
let hand_built_events =
  [ Trace.Round_started { round = 0 };
    Trace.Sent
      { round = 0; node = 0; multicast = true; recipients = 3; bits = 8;
        id = 0; kind = "a"; targets = [] };
    Trace.Corrupted { round = 0; node = 2 };
    Trace.Round_started { round = 1 };
    Trace.Injected
      { round = 1; src = 2; recipients = 1; bits = 4; id = 1; kind = "x";
        targets = [ 1 ] };
    Trace.Sent
      { round = 1; node = 1; multicast = false; recipients = 1; bits = 8;
        id = 2; kind = "a"; targets = [ 0 ] };
    Trace.Removed
      { round = 1; victim = 1; multicast = false; recipients = 1; bits = 8;
        id = 3; kind = "a"; targets = [ 0 ] };
    Trace.Round_started { round = 2 };
    Trace.Halted { round = 2; node = 0; output = Some true };
    Trace.Halted { round = 2; node = 1; output = Some true } ]

let causal_ok a =
  match Baobs_report.Causal.check a with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e)

let test_causal_hand_built_taint () =
  let a = Baobs_report.Causal.of_events hand_built_events in
  causal_ok a;
  Alcotest.(check int) "inferred n" 3 (Baobs_report.Causal.n a);
  Alcotest.(check int) "rounds" 3 (Baobs_report.Causal.rounds a);
  let s = Baobs_report.Causal.summary a in
  Alcotest.(check int) "delivered" 2 s.Baobs_report.Causal.s_delivered;
  Alcotest.(check int) "severed" 1 s.Baobs_report.Causal.s_severed;
  Alcotest.(check int) "injected" 1 s.Baobs_report.Causal.s_injected;
  Alcotest.(check int) "nothing approximated" 0 s.Baobs_report.Causal.s_approx;
  Alcotest.(check int) "states" 9 s.Baobs_report.Causal.s_states;
  (* 3 multicast edges + 1 unicast + 1 injection; the severed send
     contributes none. *)
  Alcotest.(check int) "delivery edges" 5 s.Baobs_report.Causal.s_edges;
  (match Baobs_report.Causal.decisions a with
  | [ d0; d1 ] ->
      Alcotest.(check int) "first decision is node 0" 0
        d0.Baobs_report.Causal.d_node;
      Alcotest.(check int) "node 0 cone" 5 d0.Baobs_report.Causal.d_cone_states;
      (* The erased send is the ONLY adversary influence on node 0: its
         absence taints the deciding state itself. *)
      Alcotest.(check int) "node 0 tainted = severed influence" 1
        d0.Baobs_report.Causal.d_tainted_states;
      Alcotest.(check int) "node 1 cone" 6 d1.Baobs_report.Causal.d_cone_states;
      Alcotest.(check int) "node 1 tainted = corrupt sender + injection" 2
        d1.Baobs_report.Causal.d_tainted_states;
      Alcotest.(check int) "node 0 critical path" 2
        d0.Baobs_report.Causal.d_critical_path;
      Alcotest.(check int) "node 1 critical path" 2
        d1.Baobs_report.Causal.d_critical_path;
      Alcotest.(check bool) "taint fractions" true
        (Baobs_report.Causal.taint_fraction d0 = 1.0 /. 5.0
        && Baobs_report.Causal.taint_fraction d1 = 2.0 /. 6.0)
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected 2 decisions, got %d" (List.length ds)));
  (* Definition-7 flow matrix: the severed round-1 send still counts in
     kind "a"'s unicast totals and as a removal. *)
  let flow round kind =
    match
      List.find_opt
        (fun f ->
          f.Baobs_report.Causal.f_round = round
          && f.Baobs_report.Causal.f_kind = kind)
        (Baobs_report.Causal.flows a)
    with
    | Some f -> f
    | None -> Alcotest.fail (Printf.sprintf "missing flow (%d, %s)" round kind)
  in
  let f0 = flow 0 "a" in
  Alcotest.(check int) "round-0 multicasts" 1 f0.Baobs_report.Causal.f_multicasts;
  Alcotest.(check int) "round-0 multicast bits" 8
    f0.Baobs_report.Causal.f_multicast_bits;
  let f1 = flow 1 "a" in
  Alcotest.(check int) "round-1 unicasts include the erased send" 2
    f1.Baobs_report.Causal.f_unicasts;
  Alcotest.(check int) "round-1 unicast bits" 16
    f1.Baobs_report.Causal.f_unicast_bits;
  Alcotest.(check int) "round-1 removals" 1 f1.Baobs_report.Causal.f_removals;
  let fx = flow 1 "x" in
  Alcotest.(check int) "round-1 injections" 1 fx.Baobs_report.Causal.f_injections;
  Alcotest.(check int) "round-1 injection bits" 4
    fx.Baobs_report.Causal.f_injection_bits

let test_causal_chrome_flow_shape () =
  let a = Baobs_report.Causal.of_events hand_built_events in
  let doc = Baobs_report.Causal.to_chrome a in
  let events = Baobs.Json.(as_list (member_exn "traceEvents" doc)) in
  let phase e = Baobs.Json.(as_string (member_exn "ph" e)) in
  let count p = List.length (List.filter (fun e -> phase e = p) events) in
  (* One flow start per message that found a consumer; one finish per
     delivery edge; every finish binds to the enclosing slice. *)
  Alcotest.(check int) "flow starts = delivered + injected" 3 (count "s");
  Alcotest.(check int) "flow finishes = delivery edges" 5 (count "f");
  Alcotest.(check bool) "finishes bind enclosing slice" true
    (List.for_all
       (fun e ->
         phase e <> "f"
         || Baobs.Json.(
              match member "bp" e with
              | Some (String "e") -> true
              | _ -> false))
       events);
  (* The removal surfaces as an instant on the victim's thread. *)
  Alcotest.(check bool) "removal instant present" true
    (List.exists
       (fun e ->
         phase e = "i"
         && Baobs.Json.(as_string (member_exn "name" e)) = "removed:a")
       events);
  (* One slice per (node, round) state. *)
  Alcotest.(check int) "state slices" 9 (count "X")

let run_sub_hm_causal ~n ~budget ~adversary ~inputs ~seed =
  let params = Params.make ~lambda:20 ~max_epochs:5 () in
  let proto = Sub_hm.protocol ~params ~world:`Hybrid in
  let c = Trace.collector () in
  let result =
    Engine.run ~tracer:(Trace.observe c) ~labeler:Sub_hm.msg_kind proto
      ~adversary ~n ~budget ~inputs ~max_rounds:32 ~seed
  in
  (result, Baobs_report.Causal.of_events ~n (Trace.events c))

let sum_flows field a =
  List.fold_left (fun acc f -> acc + field f) 0 (Baobs_report.Causal.flows a)

let test_causal_e1_eraser_all_decisions_tainted () =
  (* Seeded E1: every honest decision sits downstream of an erased
     message — nonzero taint across the board, with exact recipient
     sets (labeled run, nothing approximated). *)
  let result, a =
    run_sub_hm_causal ~n:101 ~budget:30
      ~adversary:(Baattacks.Eraser.make ())
      ~inputs:(Scenario.unanimous_inputs ~n:101 true)
      ~seed:7L
  in
  causal_ok a;
  Alcotest.(check int) "labeled run is exact" 0
    (Baobs_report.Causal.approx_messages a);
  let ds = Baobs_report.Causal.decisions a in
  Alcotest.(check bool) "decisions recorded" true (List.length ds > 0);
  Alcotest.(check bool) "every decision tainted" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_tainted_states > 0) ds);
  Alcotest.(check bool) "taint is a strict subset of each cone" true
    (List.for_all
       (fun d ->
         d.Baobs_report.Causal.d_tainted_states
         <= d.Baobs_report.Causal.d_cone_states)
       ds);
  (* Every flow row carries a protocol label. *)
  Alcotest.(check bool) "flow kinds labeled" true
    (List.for_all
       (fun f -> f.Baobs_report.Causal.f_kind <> "")
       (Baobs_report.Causal.flows a));
  (* Cone-independent cross-check: the flow matrix sums to Metrics. *)
  let m = result.Engine.metrics in
  Alcotest.(check int) "flow multicasts = Metrics"
    (Metrics.honest_multicasts m)
    (sum_flows (fun f -> f.Baobs_report.Causal.f_multicasts) a);
  Alcotest.(check int) "flow multicast bits = Metrics"
    (Metrics.honest_multicast_bits m)
    (sum_flows (fun f -> f.Baobs_report.Causal.f_multicast_bits) a);
  Alcotest.(check int) "flow removals = Metrics" (Metrics.removals m)
    (sum_flows (fun f -> f.Baobs_report.Causal.f_removals) a);
  Alcotest.(check bool) "scenario has removals" true (Metrics.removals m > 0)

let test_causal_e2_passive_zero_taint () =
  (* Seeded E2 shape: no adversary events, so taint must be zero at
     every decision — the attribution never invents influence. *)
  let _, a =
    run_sub_hm_causal ~n:201 ~budget:0 ~adversary:(passive ())
      ~inputs:(Scenario.split_inputs ~n:201)
      ~seed:3L
  in
  causal_ok a;
  let ds = Baobs_report.Causal.decisions a in
  Alcotest.(check int) "all nodes decide" 201 (List.length ds);
  Alcotest.(check bool) "zero taint everywhere" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_tainted_states = 0) ds);
  Alcotest.(check bool) "cones nonempty" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_cone_states > 0) ds)

let test_causal_e8_takeover_all_decisions_tainted () =
  (* Seeded E8: the takeover corrupts the public committee, so every
     honest decision flows through corrupted state. *)
  let proto = Babaselines.Static_committee.protocol ~committee_size:7 in
  let n = 60 in
  let c = Trace.collector () in
  let result =
    Engine.run ~tracer:(Trace.observe c)
      ~labeler:Babaselines.Static_committee.msg_kind proto
      ~adversary:(Baattacks.Takeover.make ~force:true ())
      ~n ~budget:10
      ~inputs:(Scenario.unanimous_inputs ~n false)
      ~max_rounds:5 ~seed:30L
  in
  let a = Baobs_report.Causal.of_events ~n (Trace.events c) in
  causal_ok a;
  let ds = Baobs_report.Causal.decisions a in
  Alcotest.(check int) "every honest node decides"
    (n - result.Engine.corruptions)
    (List.length ds);
  Alcotest.(check bool) "every decision tainted" true
    (List.for_all (fun d -> d.Baobs_report.Causal.d_tainted_states > 0) ds);
  Alcotest.(check bool) "injections visible in the flow matrix" true
    (sum_flows (fun f -> f.Baobs_report.Causal.f_injections) a > 0)

let test_causal_legacy_fixture_replay () =
  (* Committed pre-causal traces: every line reserializes byte for byte
     (of_json defaults the causal fields to sentinels, to_json omits
     them), and the analyses accept the legacy format. *)
  let check_lines fixture =
    List.iter
      (fun line ->
        if line <> "" then
          Alcotest.(check string) "legacy line reserializes byte-identically"
            line
            (Baobs.Json.to_string
               (Trace.to_json (Trace.of_json (Baobs.Json.of_string line)))))
      (String.split_on_char '\n' fixture)
  in
  let e1 = read_file "fixtures/legacy_e1_trace.jsonl" in
  check_lines e1;
  let a = Baobs_report.Causal.of_jsonl_string e1 in
  causal_ok a;
  Alcotest.(check bool) "legacy eraser trace shows taint" true
    (List.exists
       (fun d -> d.Baobs_report.Causal.d_tainted_states > 0)
       (Baobs_report.Causal.decisions a));
  (match Baobs_report.Report.check (Baobs_report.Report.of_jsonl_string e1) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  let split = read_file "fixtures/legacy_split_trace.jsonl" in
  check_lines split;
  let b = Baobs_report.Causal.of_jsonl_string split in
  causal_ok b;
  (* Targeted injections without recorded recipient lists are counted as
     over-approximated, not silently treated as exact. *)
  Alcotest.(check bool) "legacy targeted sends flagged approximate" true
    (Baobs_report.Causal.approx_messages b > 0)

(* [text] with its [i]-th event (from 0; -1 is the last) rewritten. *)
let edit_event text i f =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let i = if i < 0 then List.length lines + i else i in
  String.concat "\n"
    (List.mapi
       (fun k l ->
         if k <> i then l
         else
           Baobs.Json.to_string
             (Trace.to_json (f (Trace.of_json (Baobs.Json.of_string l)))))
       lines)
  ^ "\n"

let refused what expected f =
  match f () with
  | _ -> Alcotest.fail (what ^ " accepted")
  | exception Baobs.Json.Parse_error e -> Alcotest.(check string) what expected e

let test_causal_inferred_n () =
  (* Without -n the node count is the multicasts' recipient count, so a
     forged id is an out-of-range error, not a 200001-node grid. *)
  let forged =
    edit_event (read_file "fixtures/legacy_e1_trace.jsonl") (-1) (function
      | Trace.Halted h -> Trace.Halted { h with node = 200000 }
      | _ -> Alcotest.fail "the fixture ends with a halt")
  in
  refused "forged id" "event 26 (halted): node 200000 outside [0, 9)"
    (fun () -> Baobs_report.Causal.of_jsonl_string forged);
  (* Report sizes nothing from ids: the same trace still reads. *)
  Alcotest.(check int) "report reads it" 26
    (Baobs_report.Report.event_count
       (Baobs_report.Report.of_jsonl_string forged));
  let no_multicast =
    [ Trace.Round_started { round = 0 };
      Trace.Halted { round = 0; node = 2; output = None } ]
  in
  refused "no multicast"
    "no multicast in the trace to infer the node count from; pass -n"
    (fun () -> Baobs_report.Causal.of_events no_multicast);
  Alcotest.(check int) "explicit n" 4
    (Baobs_report.Causal.n (Baobs_report.Causal.of_events ~n:4 no_multicast));
  refused "disagreeing multicasts"
    "event 3 (sent): multicast to 5 recipients, earlier multicasts to 3"
    (fun () ->
      Baobs_report.Causal.of_events
        [ Trace.Round_started { round = 0 }; send 0 0 true 3; send 0 0 true 5 ])

(* A trace cut off mid-line (a crashed or interrupted writer) must be
   reported with the line it broke on, by both JSONL readers. *)
let test_truncated_trace_names_line () =
  let lines =
    String.split_on_char '\n' (read_file "fixtures/legacy_e1_trace.jsonl")
  in
  let keep = 11 in
  let last = List.nth lines (keep - 1) in
  let truncated =
    String.concat "\n" (List.filteri (fun i _ -> i < keep - 1) lines)
    ^ "\n"
    ^ String.sub last 0 (String.length last / 2)
  in
  let prefix = Printf.sprintf "line %d: " keep in
  List.iter
    (fun (reader, parse) ->
      match parse truncated with
      | () -> Alcotest.fail (reader ^ ": truncated trace parsed")
      | exception Baobs.Json.Parse_error e ->
          Alcotest.(check string)
            (reader ^ ": error names the line")
            prefix
            (String.sub e 0 (min (String.length e) (String.length prefix))))
    [ ("report", fun t -> ignore (Baobs_report.Report.of_jsonl_string t));
      ("causal", fun t -> ignore (Baobs_report.Causal.of_jsonl_string t)) ]

(* --- Reader robustness ---------------------------------------------------- *)

(* Every reader of a file a run leaves behind must answer a truncated or
   hand-edited copy with a result or [Json.Parse_error] — the error
   [ba_obs] turns into one line and exit 1 — never with another
   exception. The inputs are prefixes of the legacy trace fixture and
   copies with one member replaced by an out-of-range node id or round
   (the fixture has n = 9) or a value of the wrong type. *)

let fuzz_n = 9

let fuzz_values =
  Baobs.Json.
    [ Int (-7); Int (-1); Int fuzz_n; Int (fuzz_n + 3); String "x"; Null;
      List []; Float 1.5 ]

let rec member_count = function
  | Baobs.Json.Obj fields ->
      List.fold_left (fun acc (_, v) -> acc + 1 + member_count v) 0 fields
  | Baobs.Json.List items ->
      List.fold_left (fun acc v -> acc + member_count v) 0 items
  | Baobs.Json.(Null | Bool _ | Int _ | Float _ | String _) -> 0

(* Replace the [k]-th object member's value, counting members in
   pre-order. *)
let replace_member json k value =
  let seen = ref 0 in
  let rec go = function
    | Baobs.Json.Obj fields ->
        Baobs.Json.Obj
          (List.map
             (fun (key, v) ->
               let here = !seen in
               incr seen;
               if here = k then (key, value) else (key, go v))
             fields)
    | Baobs.Json.List items -> Baobs.Json.List (List.map go items)
    | Baobs.Json.(Null | Bool _ | Int _ | Float _ | String _) as j -> j
  in
  go json

let mutate_json json ~member ~value =
  replace_member json
    (member mod member_count json)
    (List.nth fuzz_values (value mod List.length fuzz_values))

let truncate text cut = String.sub text 0 (cut mod (String.length text + 1))

let fuzz_trace =
  lazy (read_file "fixtures/legacy_e1_trace.jsonl")

(* A recorded ba-resource document of the fixture's configuration. *)
let fuzz_resource =
  lazy
    (let r = Baobs.Resource.create () in
     let params = Params.make ~lambda:4 ~max_epochs:3 () in
     Baobs.Resource.open_round r ~round:(-1);
     ignore
       (Engine.run ~tracer:(Trace.resource_tracer r)
          (Sub_third.protocol ~params ~world:`Hybrid
             ~mode:Sub_third.Bit_specific)
          ~adversary:(Baattacks.Eraser.make ()) ~n:fuzz_n ~budget:3
          ~inputs:(Scenario.unanimous_inputs ~n:fuzz_n true)
          ~max_rounds:24 ~seed:7L);
     Baobs.Resource.close r;
     Baobs.Json.to_string (Baobs.Resource.to_json r))

let trace_readers =
  [ ("Report.of_jsonl_string",
     fun t -> ignore (Baobs_report.Report.of_jsonl_string t));
    ("Causal.of_jsonl_string",
     fun t -> ignore (Baobs_report.Causal.of_jsonl_string t));
    ("Causal.of_jsonl_string ~n",
     fun t -> ignore (Baobs_report.Causal.of_jsonl_string ~n:fuzz_n t));
    ("Trace_lint.verify",
     fun t ->
       ignore
         (Bacheck.Trace_lint.verify ~model:Corruption.Adaptive ~budget:3
            (Trace.events_of_jsonl t))) ]

let json_reader name read = (name, fun t -> ignore (read (Baobs.Json.of_string t)))

let resource_readers =
  [ json_reader "Resource.report_of_json" Baobs.Resource.report_of_json ]

let fuzz_bench =
  lazy
    (Baobs.Json.to_string
       (bench_json [ ("ba/crypto/sha256", Some 120.5); ("ba/e2/sub-hm", None) ]))

let bench_readers =
  let base () = Baobs.Json.of_string (Lazy.force fuzz_bench) in
  [ json_reader "Bench_compare.results_of_json"
      Baobs.Bench_compare.results_of_json;
    json_reader "Bench_compare.diff" (fun j ->
        Baobs.Bench_compare.diff ~base:(base ()) ~current:j ()) ]

let fuzz_summary =
  lazy
    (Baobs.Json.to_string
       (Baobs_report.Causal.to_json
          (Baobs_report.Causal.of_jsonl_string (Lazy.force fuzz_trace))))

let summary_readers =
  [ json_reader "Causal.summary_of_json" Baobs_report.Causal.summary_of_json ]

(* [true] when every reader returns or raises [Json.Parse_error]. *)
let readers_survive readers text =
  List.for_all
    (fun (name, read) ->
      match read text with
      | () | (exception Baobs.Json.Parse_error _) -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s raised %s on:\n%s" name
            (Printexc.to_string e) text)
    readers

let mutate_trace text ~line ~member ~value =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let line = line mod List.length lines in
  String.concat "\n"
    (List.mapi
       (fun i l ->
         if i <> line then l
         else
           Baobs.Json.to_string
             (mutate_json (Baobs.Json.of_string l) ~member ~value))
       lines)
  ^ "\n"

let reader_fuzz_tests =
  let arb = QCheck.(quad (int_bound 100_000) small_nat small_nat small_nat) in
  let doc_fuzz name doc readers =
    QCheck.Test.make ~name ~count:300 arb (fun (cut, _, member, value) ->
        let doc = Lazy.force doc in
        readers_survive readers (truncate doc cut)
        && readers_survive readers
             (Baobs.Json.to_string
                (mutate_json (Baobs.Json.of_string doc) ~member ~value)))
  in
  [ QCheck.Test.make ~name:"trace readers: truncated fixture" ~count:300 arb
      (fun (cut, _, _, _) ->
        readers_survive trace_readers (truncate (Lazy.force fuzz_trace) cut));
    QCheck.Test.make ~name:"trace readers: one member mutated" ~count:500 arb
      (fun (_, line, member, value) ->
        readers_survive trace_readers
          (mutate_trace (Lazy.force fuzz_trace) ~line ~member ~value));
    doc_fuzz "resource reader: truncated or mutated" fuzz_resource
      resource_readers;
    doc_fuzz "bench readers: truncated or mutated" fuzz_bench bench_readers;
    doc_fuzz "causal summary: cut or mutated" fuzz_summary summary_readers ]

(* A well-formed line can still name a round no run reached; the report
   refuses it before sizing its per-round series from it. *)
let test_report_forged_round () =
  refused "forged round" "event 9 (sent): round 700000000 outside [-1, 1]"
    (fun () ->
      Baobs_report.Report.of_jsonl_string
        (edit_event (Lazy.force fuzz_trace) 8 (function
          | Trace.Sent e -> Trace.Sent { e with round = 700000000 }
          | _ -> Alcotest.fail "event 9 of the fixture is a send")))

let test_causal_off_byte_identity () =
  (* Re-run the committed fixture's exact configuration on today's
     engine with causal recording off: the JSONL must match the
     pre-causal bytes. *)
  let fixture = read_file "fixtures/legacy_e1_trace.jsonl" in
  let params = Params.make ~lambda:4 ~max_epochs:3 () in
  let proto =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let regen ?labeler () =
    let buf = Buffer.create 1024 in
    let _ =
      Engine.run
        ~tracer:(Trace.jsonl_tracer (Baobs.Jsonl.to_buffer buf))
        ?labeler proto
        ~adversary:(Baattacks.Eraser.make ())
        ~n:9 ~budget:3
        ~inputs:(Scenario.unanimous_inputs ~n:9 true)
        ~max_rounds:24 ~seed:7L
    in
    Buffer.contents buf
  in
  Alcotest.(check string) "recording off = legacy bytes" fixture (regen ());
  (* The same run with a labeler must carry kind labels — proving the
     identity above is not vacuous. *)
  let labeled = regen ~labeler:Sub_third.msg_kind () in
  Alcotest.(check bool) "labeled run differs" true (labeled <> fixture);
  let contains s sub =
    let nn = String.length sub and tn = String.length s in
    let rec scan i = i + nn <= tn && (String.sub s i nn = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "labeled run records kinds" true
    (contains labeled "\"kind\":")

let ba_run_exe = "../bin/ba_run.exe"

let test_ba_run_causal_json_end_to_end () =
  (* The CLI rejects a doomed --causal-json destination before running
     (same validate_path contract as --trace-jsonl)... *)
  let base =
    ba_run_exe
    ^ " -p sub-third -n 9 -a eraser -f 3 --lambda 4 --epochs 3 --inputs ones \
       --seed 7"
  in
  let run cmd = Sys.command (cmd ^ " >/dev/null 2>/dev/null") in
  Alcotest.(check int) "doomed path rejected up front" 1
    (run (base ^ " --causal-json /nonexistent-xyz/causal.json"));
  (* ...and a good path receives a parseable ba-causal/v1 document. *)
  let tmp = Filename.temp_file "ba_causal" ".json" in
  Alcotest.(check int) "run with --causal-json succeeds" 0
    (run (base ^ " --causal-json " ^ tmp));
  let s =
    Baobs_report.Causal.summary_of_json (Baobs.Json.of_string (read_file tmp))
  in
  Sys.remove tmp;
  Alcotest.(check int) "document matches the run" 9 s.Baobs_report.Causal.s_n;
  Alcotest.(check bool) "decisions recorded" true
    (List.length s.Baobs_report.Causal.s_decisions > 0)

(* qcheck: ba-causal/v1 is an exact codec — summary_of_json inverts
   summary_to_json on arbitrary (well-typed) summaries, not just ones an
   analysis produced. *)
let causal_summary_gen =
  let open QCheck.Gen in
  let decision =
    small_nat >>= fun d_node ->
    small_nat >>= fun d_round ->
    oneofl [ None; Some true; Some false ] >>= fun d_output ->
    small_nat >>= fun d_cone_states ->
    small_nat >>= fun d_tainted_states ->
    small_nat >>= fun d_critical_path ->
    return
      { Baobs_report.Causal.d_node; d_round; d_output; d_cone_states;
        d_tainted_states; d_critical_path }
  in
  let flow =
    small_nat >>= fun f_round ->
    oneofl [ ""; "propose"; "vote"; "status"; "commit" ] >>= fun f_kind ->
    small_nat >>= fun f_multicasts ->
    small_nat >>= fun f_multicast_bits ->
    small_nat >>= fun f_unicasts ->
    small_nat >>= fun f_unicast_bits ->
    small_nat >>= fun f_removals ->
    small_nat >>= fun f_injections ->
    small_nat >>= fun f_injection_bits ->
    return
      { Baobs_report.Causal.f_round; f_kind; f_multicasts; f_multicast_bits;
        f_unicasts; f_unicast_bits; f_removals; f_injections; f_injection_bits }
  in
  small_nat >>= fun s_n ->
  small_nat >>= fun s_rounds ->
  small_nat >>= fun s_delivered ->
  small_nat >>= fun s_severed ->
  small_nat >>= fun s_injected ->
  small_nat >>= fun s_approx ->
  small_nat >>= fun s_states ->
  small_nat >>= fun s_edges ->
  list_size (int_bound 5) decision >>= fun s_decisions ->
  list_size (int_bound 5) flow >>= fun s_flows ->
  return
    { Baobs_report.Causal.s_n; s_rounds; s_delivered; s_severed; s_injected;
      s_approx; s_states; s_edges; s_decisions; s_flows }

let causal_qcheck_tests =
  [ QCheck.Test.make ~name:"summary → ba-causal/v1 json → summary" ~count:200
      (QCheck.make
         ~print:(fun s ->
           Baobs.Json.to_string (Baobs_report.Causal.summary_to_json s))
         causal_summary_gen)
      (fun s ->
        Baobs_report.Causal.summary_of_json
          (Baobs.Json.of_string
             (Baobs.Json.to_string (Baobs_report.Causal.summary_to_json s)))
        = s) ]

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "whitespace" `Quick test_json_parse_whitespace;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "rates" `Quick test_rates_json_roundtrip ] );
      ( "csv",
        [ Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "empty series exports" `Quick
            test_series_empty_exports ] );
      ( "bench-compare",
        [ Alcotest.test_case "identical inputs exit 0" `Quick
            test_bench_compare_identical;
          Alcotest.test_case "2x regression exits nonzero" `Quick
            test_bench_compare_regression;
          Alcotest.test_case "statuses" `Quick test_bench_compare_statuses ] );
      ( "report",
        [ Alcotest.test_case "e1 reproduces Metrics" `Quick
            test_report_reproduces_metrics_e1;
          Alcotest.test_case "exports" `Quick test_report_exports;
          Alcotest.test_case "empty trace" `Quick test_report_empty_trace;
          Alcotest.test_case "rounds window" `Quick test_report_rounds_window;
          Alcotest.test_case "zero-recipient send keeps its row" `Quick
            test_report_zero_recipient_row ]
      );
      ( "resource",
        [ Alcotest.test_case "delta nonnegative" `Quick
            test_resource_delta_nonnegative;
          Alcotest.test_case "recorder rows" `Quick test_resource_recorder_rows;
          Alcotest.test_case "trace byte-identical" `Quick
            test_resource_trace_byte_identical;
          Alcotest.test_case "json roundtrip" `Quick
            test_resource_json_roundtrip;
          Alcotest.test_case "ns within wall time" `Quick
            test_resource_ns_within_wall_time;
          Alcotest.test_case "flatness verdicts" `Quick
            test_resource_flatness_verdicts ] );
      ( "reader-fuzz",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xf022 |]))
          reader_fuzz_tests
        @ [ Alcotest.test_case "report refuses a forged round" `Quick
              test_report_forged_round ] );
      ( "sink-path",
        [ Alcotest.test_case "validate_path" `Quick test_validate_path ] );
      ( "series",
        [ Alcotest.test_case "e1 eraser scenario" `Quick
            test_series_matches_metrics_e1;
          Alcotest.test_case "e2 passive scenario" `Quick
            test_series_matches_metrics_e2;
          Alcotest.test_case "json + csv export" `Quick test_series_json_and_csv ] );
      ( "jsonl",
        [ Alcotest.test_case "valid lines" `Quick test_jsonl_sink_valid_lines ] );
      ( "collector",
        [ Alcotest.test_case "memoization" `Quick test_collector_memoized_events ] );
      ( "causal",
        Alcotest.test_case "hand-built taint cone" `Quick
          test_causal_hand_built_taint
        :: Alcotest.test_case "chrome flow shape" `Quick
             test_causal_chrome_flow_shape
        :: Alcotest.test_case "e1 eraser: all decisions tainted" `Quick
             test_causal_e1_eraser_all_decisions_tainted
        :: Alcotest.test_case "e2 passive: zero taint" `Quick
             test_causal_e2_passive_zero_taint
        :: Alcotest.test_case "e8 takeover: all decisions tainted" `Quick
             test_causal_e8_takeover_all_decisions_tainted
        :: Alcotest.test_case "legacy fixture replay" `Quick
             test_causal_legacy_fixture_replay
        :: Alcotest.test_case "inferred n ignores forged ids" `Quick
             test_causal_inferred_n
        :: Alcotest.test_case "truncated trace names the line" `Quick
             test_truncated_trace_names_line
        :: Alcotest.test_case "recording off is byte-identical" `Quick
             test_causal_off_byte_identity
        :: Alcotest.test_case "ba_run --causal-json end to end" `Quick
             test_ba_run_causal_json_end_to_end
        :: List.map
             (QCheck_alcotest.to_alcotest
                ~rand:(Random.State.make [| 0xba009 |]))
             causal_qcheck_tests ) ]
