(* Tests for the benchmark itself: the wrappers are transparent, they
   attribute every nanosecond of Engine.run, the tail rule, and the
   metric tables agree with BENCHMARK.json. *)

open Perfbench

(* The three workload shapes at a size the test suite can afford. *)
let small =
  [ { Workload.dense_801 with n = 41; corpus = 2 };
    { Workload.sparse_100k with n = 401; corpus = 2 };
    { Workload.attack_real_201 with n = 41; adversary = Workload.Split_vote 12; corpus = 2 } ]

let outputs_string (r : Basim.Engine.result) =
  String.concat ""
    (Array.to_list
       (Array.map
          (function None -> "-" | Some true -> "1" | Some false -> "0")
          r.Basim.Engine.outputs))

let metrics_json (r : Basim.Engine.result) =
  Baobs.Json.to_string (Basim.Metrics.to_json r.Basim.Engine.metrics)

let test_transparent shape () =
  for i = 0 to shape.Workload.corpus - 1 do
    let buf = Buffer.create 1024 in
    let _, plain = Workload.execute shape ~buf i in
    let plain_trace = Buffer.contents buf in
    let layers = Layers.create () in
    let _, wrapped = Workload.execute ~layers shape ~buf i in
    Alcotest.(check string) "metrics JSON" (metrics_json plain) (metrics_json wrapped);
    Alcotest.(check string) "outputs" (outputs_string plain) (outputs_string wrapped);
    Alcotest.(check string) "trace bytes" plain_trace (Buffer.contents buf);
    Alcotest.(check bool) "some node stepped" true
      (Layers.calls layers Layers.Step + Layers.calls layers Layers.Sparse_hook > 0)
  done;
  if shape.Workload.trace_sink then begin
    let buf = Buffer.create 1024 in
    ignore (Workload.execute shape ~buf 0);
    Alcotest.(check bool) "trace sink wrote" true (Buffer.length buf > 0)
  end

let test_digest_and_attribution shape () =
  let buf = Buffer.create 1024 in
  let plain = Workload.run_instance shape ~buf 0 in
  let layers = Layers.create () in
  let wrapped = Workload.run_instance ~layers shape ~buf 0 in
  Alcotest.(check bool) "decided" true (plain.Workload.ok && wrapped.Workload.ok);
  Alcotest.(check string) "digest" plain.Workload.digest wrapped.Workload.digest;
  (* Every span nests inside the Run span, so self times add up to the
     wrapped Engine.run, which the instance's run stamps enclose. *)
  let self = List.fold_left (fun acc s -> acc + Layers.self_ns layers s) 0 Layers.all_spans in
  Alcotest.(check bool) "self times within Engine.run" true
    (self <= wrapped.Workload.run_ns && self * 10 >= wrapped.Workload.run_ns * 9);
  Alcotest.(check bool) "setup inside the run" true
    (wrapped.Workload.setup_ns > 0 && wrapped.Workload.setup_ns < wrapped.Workload.run_ns);
  let rows = Layers.rows layers in
  Alcotest.(check int) "one row per round" wrapped.Workload.rounds (List.length rows)

(* run_instance compacts the heap before it starts, a forced major
   collection that the process-wide counter sees and the instance's own
   GC counts must not. *)
let test_gc_excludes_compaction () =
  let shape = List.hd small in
  let buf = Buffer.create 1024 in
  let before = (Gc.quick_stat ()).Gc.major_collections in
  let o = Workload.run_instance shape ~buf 0 in
  let around = (Gc.quick_stat ()).Gc.major_collections - before in
  Alcotest.(check bool) "decided" true o.Workload.ok;
  Alcotest.(check bool) "compaction left out" true
    (o.Workload.major_collections >= 0 && o.Workload.major_collections < around);
  let again = Workload.run_instance shape ~buf 0 in
  Gc.compact ();
  Gc.compact ();
  let after_compactions = Workload.run_instance shape ~buf 0 in
  Alcotest.(check int) "extra compactions do not add major collections"
    again.Workload.major_collections after_compactions.Workload.major_collections

let test_tail () =
  let xs k = Array.init k (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "10 samples: none" true (Report.tail (xs 10) = None);
  (match Report.tail (xs 11) with
  | Some (_, v, count) ->
      Alcotest.(check (float 0.)) "11 samples: the minimum" 1. v;
      Alcotest.(check int) "count" 11 count
  | None -> Alcotest.fail "11 samples: expected a tail");
  (match Report.tail (xs 100) with
  | Some (pct, v, count) ->
      Alcotest.(check (float 1e-9)) "p90 of 100" 90. pct;
      Alcotest.(check (float 0.)) "value with 10 above" 90. v;
      Alcotest.(check int) "count" 100 count
  | None -> Alcotest.fail "100 samples: expected a tail");
  let shuffled = [| 5.; 3.; 12.; 1.; 9.; 11.; 2.; 8.; 4.; 10.; 7.; 6. |] in
  match Report.tail shuffled with
  | Some (_, v, _) -> Alcotest.(check (float 0.)) "unsorted input" 2. v
  | None -> Alcotest.fail "12 samples: expected a tail"

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Baobs.Json.of_string s

let table key =
  List.map
    (fun m ->
      ( Baobs.Json.as_string (Baobs.Json.member_exn "name" m),
        Baobs.Json.as_string (Baobs.Json.member_exn "unit" m) ))
    (Baobs.Json.as_list (Baobs.Json.member_exn key (benchmark_json ())))

let pair = Alcotest.(list (pair string string))

(* The metric-name grammar: a letter or digit, then at most 63 more of
   [A-Za-z0-9_.-]. *)
let valid_name s =
  let n = String.length s in
  let word = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  n > 0 && n <= 64 && word s.[0]
  && String.for_all (fun c -> word c || c = '_' || c = '.' || c = '-') s

let test_tables () =
  Alcotest.check pair "end_to_end" (table "end_to_end") Report.end_to_end;
  Alcotest.check pair "per_layer" (table "per_layer") Report.per_layer;
  let workloads =
    List.map
      (fun w -> Baobs.Json.as_string (Baobs.Json.member_exn "name" w))
      (Baobs.Json.as_list (Baobs.Json.member_exn "workloads" (benchmark_json ())))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("workload " ^ name) true (Workload.find name <> None))
    workloads;
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) ("grammar " ^ name) true (valid_name name))
    (Report.end_to_end @ Report.per_layer);
  Alcotest.(check bool) "bad grammar" false (valid_name "a b");
  Alcotest.(check bool) "leading dot" false (valid_name ".a")

let test_result_line () =
  let metrics = List.map (fun (name, _) -> (name, 1.5)) Report.end_to_end in
  let line =
    Report.result_line ~table:Report.end_to_end ~correct:true ~attempted:3 ~failed:0
      metrics
  in
  let j = Baobs.Json.of_string line in
  Alcotest.(check int) "attempted" 3 (Baobs.Json.as_int (Baobs.Json.member_exn "attempted" j));
  let emitted =
    match Baobs.Json.member_exn "metrics" j with
    | Baobs.Json.Obj fields -> List.map fst fields
    | Baobs.Json.Null | Baobs.Json.Bool _ | Baobs.Json.Int _ | Baobs.Json.Float _
    | Baobs.Json.String _ | Baobs.Json.List _ ->
        Alcotest.fail "metrics is not an object"
  in
  Alcotest.(check (list string)) "names" (List.map fst Report.end_to_end) emitted;
  let refuses metrics =
    match
      Report.result_line ~table:Report.end_to_end ~correct:true ~attempted:1
        ~failed:0 metrics
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "missing metric" true (refuses (List.tl metrics));
  Alcotest.(check bool) "unknown metric" true (refuses (("bogus", 1.) :: List.tl metrics));
  Alcotest.(check bool) "non-finite" true
    (refuses (("decisions_per_s", Float.nan) :: List.tl metrics))

let () =
  let per_shape f label =
    List.map
      (fun s -> Alcotest.test_case (label ^ " " ^ s.Workload.name) `Quick (f s))
      small
  in
  Alcotest.run "perfbench"
    [ ("transparent", per_shape test_transparent "wrapped = unwrapped");
      ("attribution", per_shape test_digest_and_attribution "digest and self times");
      ( "report",
        [ Alcotest.test_case "tail rule: >= 10 samples beyond" `Quick test_tail;
          Alcotest.test_case "gc counts leave out the compaction" `Quick
            test_gc_excludes_compaction;
          Alcotest.test_case "tables match BENCHMARK.json" `Quick test_tables;
          Alcotest.test_case "result line names exactly the table" `Quick
            test_result_line ] ) ]
