let end_to_end =
  [ ("decisions_per_s", "1/s");
    ("ns_per_node_round", "ns");
    ("instance_s_p50", "s");
    ("instance_s_tail", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("alloc_words_per_node_round", "words");
    ("multicasts_per_decision", "count");
    ("bits_per_decision", "bit") ]

(* Per decision unless the unit says per call. *)
let per_call name = [ (name ^ ".calls", "count/decision"); (name ^ ".ns_per_call", "ns"); (name ^ ".ms", "ms/decision") ]

let per_layer =
  [ ("bacore.step.calls", "count/decision");
    ("bacore.step.self_ns_per_call", "ns");
    ("bacore.step.self_ms", "ms/decision");
    ("bacore.sparse_hook.self_ms", "ms/decision");
    ("bacore.init.ms", "ms/decision");
    ("bacore.make_env.ms", "ms/decision");
    ("bacore.msg_bits.calls", "count/decision");
    ("bacore.msg_bits.ms", "ms/decision");
    ("bacore.cert_cache.entries", "count/decision") ]
  @ per_call "bafmine.mine"
  @ per_call "bafmine.sample"
  @ per_call "bafmine.verify"
  @ per_call "bafmine.verify_many"
  @ [ ("bafmine.mine.win_ratio", "ratio");
      ("bafmine.sample.win_ratio", "ratio");
      ("bafmine.fmine.attempts", "count/decision");
      ("bafmine.fmine.successes", "count/decision");
      ("bacrypto.calib_sha256_1KiB_ns", "ns");
      ("basim.run.self_ms", "ms/decision");
      ("basim.rounds", "count/decision");
      ("basim.deliveries", "count/decision");
      ("basim.injections", "count/decision");
      ("baattacks.setup.ms", "ms/decision");
      ("baattacks.intervene.calls", "count/decision");
      ("baattacks.intervene.self_ms", "ms/decision");
      ("baattacks.actions.corrupt", "count/decision");
      ("baattacks.actions.inject", "count/decision");
      ("baattacks.actions.remove", "count/decision");
      ("baobs.tracer.events", "count/decision");
      ("baobs.tracer.ns_per_event", "ns");
      ("baobs.tracer.bytes", "B/decision");
      ("gc.minor_collections", "count/decision");
      ("gc.major_collections", "count/decision");
      ("gc.promoted_words", "words/decision");
      ("harness.trace_overhead_frac", "frac");
      ("harness.coverage_frac", "frac") ]

let median xs =
  if Array.length xs = 0 then invalid_arg "Report.median: empty";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  Bastats.Summary.quantile sorted 0.5

(* The tail rule: at least this many samples beyond the percentile. *)
let min_beyond = 10

let tail xs =
  let count = Array.length xs in
  if count < min_beyond + 1 then None
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    (* Rank k (1-based) leaves count - k samples above it. *)
    let k = count - min_beyond in
    Some (100. *. float_of_int k /. float_of_int count, sorted.(k - 1), count)
  end

let result_line ~table ~correct ~attempted ~failed metrics =
  let names = List.map fst metrics in
  let expected = List.map fst table in
  if
    List.length names <> List.length expected
    || not (List.for_all (fun n -> List.mem n names) expected)
  then
    invalid_arg
      (Printf.sprintf "Report.result_line: metrics [%s] do not match the table"
         (String.concat ", " names));
  let metric (name, value) =
    if not (Float.is_finite value) then
      invalid_arg (Printf.sprintf "Report.result_line: %s is not finite" name);
    ( name,
      Baobs.Json.Obj
        [ ("value", Baobs.Json.Float value);
          ("unit", Baobs.Json.String (List.assoc name table)) ] )
  in
  Baobs.Json.to_string
    (Baobs.Json.Obj
       [ ("correct", Baobs.Json.Bool correct);
         ("attempted", Baobs.Json.Int attempted);
         ("failed", Baobs.Json.Int failed);
         ("metrics", Baobs.Json.Obj (List.map metric metrics)) ])
