(* The repository benchmark: one workload, one process, one domain.

     bench.exe --workload dense-801 --seed 1 --seconds 55 --trace 0

   A closed loop runs the workload's corpus of BA instances back to
   back in corpus order for --seconds. Every seed runs the same corpus
   in the same order: heap history depends on the order, and shuffling
   it per seed moved the peak heap by 5% between seeds; --seed only
   draws the calibration kernel's inputs. With --trace 0 it prints the
   end-to-end metrics; with --trace 1 it alternates an untraced pass
   and a traced one and prints the per-layer metrics and the per-round
   breakdown. Human-readable lines come first; the last line of stdout
   is the JSON result. Exit 1 on bad arguments, 2 when a gate fails:
   an instance whose digest changes between runs of it (including
   traced against untraced), or coverage below 90%. *)

open Perfbench

let fail_usage msg =
  Printf.eprintf "bench: %s\nusage: bench.exe --workload %s --seed N \
                  --seconds S --trace 0|1\n"
    msg
    (String.concat "|" (List.map (fun s -> s.Workload.name) Workload.all));
  exit 1

let gate msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | arg :: _ -> fail_usage ("unexpected argument " ^ arg)
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get key =
    match List.assoc_opt key args with
    | Some v -> v
    | None -> fail_usage ("missing --" ^ key)
  in
  let int_arg key ~min =
    match int_of_string_opt (get key) with
    | Some v when v >= min -> v
    | Some _ | None -> fail_usage (Printf.sprintf "--%s must be an integer >= %d" key min)
  in
  List.iter
    (fun (key, _) ->
      if not (List.mem key [ "workload"; "seed"; "seconds"; "trace" ]) then
        fail_usage ("unknown option --" ^ key))
    args;
  let shape =
    match Workload.find (get "workload") with
    | Some s -> s
    | None -> fail_usage ("unknown workload " ^ get "workload")
  in
  let seed = int_arg "seed" ~min:0 in
  let seconds = int_arg "seconds" ~min:1 in
  let trace =
    match get "trace" with
    | "0" -> false
    | "1" -> true
    | _ -> fail_usage "--trace must be 0 or 1"
  in
  (shape, seed, seconds, trace)

(* The engine reads BA_INTRA_JOBS for intra-trial parallelism; the
   benchmark measures the single-domain program only. *)
let check_env () =
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | None | Some "1" -> ()
      | Some v ->
          fail_usage
            (Printf.sprintf "%s=%s: the benchmark runs on one domain; unset it or set it to 1"
               var v))
    [ "BA_INTRA_JOBS"; "BA_JOBS" ]

(* SHA-256 of a freshly filled 1 KiB buffer per hash, drawn from the
   seed, so the kernel never sees the same input twice: median ns per
   hash over batches. *)
let calibrate ~seed =
  let batch = 64 in
  let rng = Random.State.make [| seed |] in
  let fresh () =
    let b = Bytes.create 1024 in
    for w = 0 to 127 do
      Bytes.set_int64_le b (8 * w) (Random.State.bits64 rng)
    done;
    Bytes.unsafe_to_string b
  in
  let per_hash =
    Array.init 41 (fun _ ->
        let inputs = Array.init batch (fun _ -> fresh ()) in
        let t0 = Clock.now_ns () in
        Array.iter (fun s -> ignore (Bacrypto.Sha256.digest_string s)) inputs;
        float_of_int (Clock.now_ns () - t0) /. float_of_int batch)
  in
  Report.median per_hash

(* Per-instance digests, checked across every run of an instance in
   this process: the program is deterministic and the wrappers are
   transparent, so a second digest must equal the first. *)
let record_digest digests (o : Workload.outcome) ~traced =
  if String.equal digests.(o.index) "" then digests.(o.index) <- o.digest
  else if not (String.equal digests.(o.index) o.digest) then
    gate
      (Printf.sprintf "instance %d (engine seed %Ld): %s digest %s differs from %s"
         o.index (Workload.instance_seed o.index)
         (if traced then "traced" else "repeated")
         o.digest digests.(o.index))

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let ms ns = float_of_int ns /. 1e6

let div a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let print_summary shape ~digests (outcomes : Workload.outcome list) ~elapsed_ns =
  let attempted = List.length outcomes in
  let failed = List.filter (fun (o : Workload.outcome) -> not o.ok) outcomes in
  let first_pass =
    List.filter_map
      (fun i -> List.find_opt (fun (o : Workload.outcome) -> o.index = i) outcomes)
      (List.init shape.Workload.corpus Fun.id)
  in
  Printf.printf "corpus: %d instances (engine seeds 1..%d); ran %d (%.2f passes) in %.3f s\n"
    shape.Workload.corpus shape.Workload.corpus attempted
    (div attempted shape.Workload.corpus)
    (float_of_int elapsed_ns /. 1e9);
  Printf.printf "digest: %s (per pass: rounds=%d multicasts=%d bits=%d)\n"
    (Bacrypto.Sha256.to_hex
       (Bacrypto.Sha256.digest_concat (Array.to_list digests)))
    (sum (fun (o : Workload.outcome) -> o.rounds) first_pass)
    (sum (fun (o : Workload.outcome) -> o.multicasts) first_pass)
    (sum (fun (o : Workload.outcome) -> o.bits) first_pass);
  Printf.printf "failed_frac: %.6g (%d of %d)\n"
    (div (List.length failed) attempted)
    (List.length failed) attempted;
  List.iter
    (fun (o : Workload.outcome) ->
      Printf.printf "  failed: instance %d (engine seed %Ld)%s\n" o.index
        (Workload.instance_seed o.index)
        (if String.equal o.error "" then ": agreement violated" else ": " ^ o.error))
    failed;
  (attempted, List.length failed)

(* Host-speed probe, run from a compacted heap before every instance:
   Stdlib hash-table inserts and lookups, allocation-heavy like the
   workloads and independent of the repository's code. On a shared
   2-vCPU VM the host slowed whole runs by up to 50% for minutes: with
   per-instance minima alone the quartile spread of decisions_per_s
   over ten runs was 24-37%, and with each instance run scaled by the
   probes around it, 4-8%. *)
let probe_ns () =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let table = Hashtbl.create 16 in
  for i = 0 to 25_000 do
    Hashtbl.replace table (i * 7919) (Some i)
  done;
  let hits = ref 0 in
  for i = 0 to 25_000 do
    if Hashtbl.mem table (i * 31) then incr hits
  done;
  ignore (Sys.opaque_identity !hits);
  Clock.now_ns () - t0

(* The probe duration timings are scaled to: about its median on the
   2-vCPU VM the benchmark was built on, so scaled times read close to
   host seconds there. *)
let reference_probe_ns = 6e6

(* Instances run in corpus order, cycling, from a first full pass until
   the next instance would overrun the deadline (judged by its previous
   duration), so the whole budget is measured. Each instance run's times
   are scaled by [reference_probe_ns] over the mean of the probes just
   before and after it. Timings are then per-instance minima over the
   run, aggregated over the corpus: every instance counts once however
   many times it ran, and other processes on the host only ever add
   time, so the fastest run is the least disturbed one. The tail alone
   is taken over every instance run, since a tail over the corpus's few
   instances would sit near its median. *)
let untraced shape ~seconds =
  let k = shape.Workload.corpus in
  let buf = Buffer.create 65536 in
  let digests = Array.make k "" in
  (* Per instance, its runs as (position in the run order, outcome). *)
  let runs = Array.make k [] in
  let probes = ref [] and position = ref 0 in
  let probe () = probes := probe_ns () :: !probes in
  let t_start = Clock.now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  let rec loop i ~first_pass =
    let fits =
      match runs.(i) with
      | [] -> true
      | (_, (o : Workload.outcome)) :: _ -> Clock.now_ns () + o.wall_ns <= deadline
    in
    if first_pass || fits then begin
      probe ();
      let o = Workload.run_instance shape ~buf i in
      record_digest digests o ~traced:false;
      runs.(i) <- (!position, o) :: runs.(i);
      incr position;
      let next = (i + 1) mod k in
      loop next ~first_pass:(first_pass && next <> 0)
    end
  in
  loop 0 ~first_pass:true;
  probe ();
  let elapsed_ns = Clock.now_ns () - t_start in
  let probes = Array.of_list (List.rev !probes) in
  let scale j = 2. *. reference_probe_ns /. float_of_int (probes.(j) + probes.(j + 1)) in
  let scaled_s f (j, o) = float_of_int (f o) *. scale j /. 1e9 in
  let outcomes = List.concat_map (fun rs -> List.rev_map snd rs) (Array.to_list runs) in
  let attempted, failed = print_summary shape ~digests outcomes ~elapsed_ns in
  Printf.printf "host probe: median %.3f ms, scaled to %.3f ms\n"
    (Report.median (Array.map (fun p -> float_of_int p /. 1e6) probes))
    (reference_probe_ns /. 1e6);
  let fastest_s f =
    Array.map (fun rs -> List.fold_left (fun m r -> Float.min m (scaled_s f r)) infinity rs) runs
  in
  let wall = fastest_s (fun (o : Workload.outcome) -> o.wall_ns) in
  let tail =
    match
      Report.tail
        (Array.of_list
           (List.concat_map
              (List.map (scaled_s (fun (o : Workload.outcome) -> o.wall_ns)))
              (Array.to_list runs)))
    with
    | Some (pct, v, count) ->
        Printf.printf "instance_s_tail: p%.1f = %.6f s (%d instance runs, 10 beyond)\n"
          pct v count;
        v
    | None ->
        fail_usage
          (Printf.sprintf "%d instances ran; instance_s_tail needs 11: raise --seconds"
             attempted)
  in
  (* Simulated work is deterministic per instance: take its first run. *)
  let first = Array.map (fun rs -> snd (List.hd (List.rev rs))) runs in
  let ok = List.filter (fun i -> first.(i).Workload.ok) (List.init k Fun.id) in
  let node_rounds = float_of_int (max 1 (sum (fun i -> first.(i).Workload.node_rounds) ok)) in
  let per_instance f = div (sum (fun (o : Workload.outcome) -> f o) (Array.to_list first)) k in
  let metrics =
    [ ("decisions_per_s", float_of_int (List.length ok) /. Array.fold_left ( +. ) 0. wall);
      ("ns_per_node_round", sumf (fun i -> wall.(i) *. 1e9) ok /. node_rounds);
      ("instance_s_p50", Report.median wall);
      ("instance_s_tail", tail);
      ("setup_s", Report.median (fastest_s (fun (o : Workload.outcome) -> o.setup_ns)));
      ( "peak_heap_mb",
        float_of_int (Gc.quick_stat ()).Gc.top_heap_words
        *. float_of_int (Sys.word_size / 8)
        /. 1e6 );
      ( "alloc_words_per_node_round",
        sumf (fun i -> first.(i).Workload.minor_words) ok /. node_rounds );
      ("multicasts_per_decision", per_instance (fun o -> o.multicasts));
      ("bits_per_decision", per_instance (fun o -> o.bits)) ]
  in
  (attempted, failed, metrics)

let print_rounds layers =
  let spans = List.filter (fun s -> s <> Layers.Run) Layers.all_spans in
  let rows = Layers.rows layers in
  let self_in (row : Layers.row) s = row.row_self_ns.(Layers.index s) in
  let used =
    List.filter (fun s -> List.exists (fun (_, row) -> self_in row s > 0) rows) spans
  in
  let basim (row : Layers.row) =
    row.ns - List.fold_left (fun acc s -> acc + self_in row s) 0 spans
  in
  let short s =
    let name = Layers.span_name s in
    let dot = String.index name '.' + 1 in
    String.sub name dot (String.length name - dot)
  in
  Printf.printf "per-round breakdown (mean ms per instance reaching the round):\n";
  Printf.printf "%5s %5s %9s" "round" "inst" "host_ms";
  List.iter (fun s -> Printf.printf " %11s" (short s)) used;
  Printf.printf " %9s %10s\n" "basim" "minor_kw";
  List.iter
    (fun (r, (row : Layers.row)) ->
      let per x = ms x /. float_of_int row.instances in
      Printf.printf "%5d %5d %9.3f" r row.instances (per row.ns);
      List.iter (fun s -> Printf.printf " %11.3f" (per (self_in row s))) used;
      Printf.printf " %9.3f %10.1f\n" (per (basim row))
        (row.minor_words /. 1e3 /. float_of_int row.instances))
    rows;
  match
    List.fold_left
      (fun best (r, (row : Layers.row)) ->
        match best with
        | Some (_, (b : Layers.row)) when b.ns >= row.ns -> best
        | Some _ | None -> Some (r, row))
      None rows
  with
  | None -> ()
  | Some (r, row) ->
      let top, top_ns =
        List.fold_left
          (fun (bn, bv) s ->
            let v = self_in row s in
            if v > bv then (Layers.span_name s, v) else (bn, bv))
          ("basim.run", basim row) spans
      in
      Printf.printf
        "costliest round: %d (%.3f ms over %d instances; top layer %s, %.3f ms)\n"
        r (ms row.ns) row.instances top (ms top_ns)

let traced shape ~seconds ~calib =
  let buf = Buffer.create 65536 in
  let digests = Array.make shape.Workload.corpus "" in
  let layers = Layers.create () in
  let t_start = Clock.now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  let plain = ref [] and wrapped = ref [] and pairs = ref 0 and last = ref 0 in
  while !pairs = 0 || Clock.now_ns () + !last <= deadline do
    let p0 = Clock.now_ns () in
    for i = 0 to shape.Workload.corpus - 1 do
      let o = Workload.run_instance shape ~buf i in
      record_digest digests o ~traced:false;
      plain := o :: !plain
    done;
    for i = 0 to shape.Workload.corpus - 1 do
      let o = Workload.run_instance ~layers shape ~buf i in
      record_digest digests o ~traced:true;
      wrapped := o :: !wrapped
    done;
    last := Clock.now_ns () - p0;
    incr pairs
  done;
  let elapsed_ns = Clock.now_ns () - t_start in
  let plain = List.rev !plain and wrapped = List.rev !wrapped in
  let attempted, failed =
    print_summary shape ~digests (plain @ wrapped) ~elapsed_ns
  in
  print_endline "traced digest: equal to the untraced digest for every instance";
  let coverage =
    List.fold_left
      (fun acc (o : Workload.outcome) -> Float.min acc (div o.run_ns o.wall_ns))
      1. wrapped
  in
  if coverage < 0.9 then
    gate (Printf.sprintf "coverage %.4f: Engine.run and its setup spans cover \
                          under 90%% of an instance" coverage);
  Printf.printf "coverage: Engine.run covers >= %.4f of every traced instance\n" coverage;
  let run_ns = sum (fun (o : Workload.outcome) -> o.run_ns) wrapped in
  Printf.printf "self-time shares of Engine.run:";
  List.iter
    (fun s ->
      let v = Layers.self_ns layers s in
      if v > 0 then Printf.printf " %s=%.1f%%" (Layers.span_name s) (100. *. div v run_ns))
    Layers.all_spans;
  print_newline ();
  print_rounds layers;
  let decisions = List.length wrapped in
  let per_decision x = float_of_int x /. float_of_int decisions in
  let self s = Layers.self_ns layers s and calls s = Layers.calls layers s in
  let per_call name s =
    [ (name ^ ".calls", per_decision (calls s));
      (name ^ ".ns_per_call", div (self s) (calls s));
      (name ^ ".ms", ms (self s) /. float_of_int decisions) ]
  in
  let self_ms s = ms (self s) /. float_of_int decisions in
  let corrupt, inject, remove = Layers.actions layers in
  let field f = per_decision (sum f wrapped) in
  let plain_mean f =
    sumf (fun (o : Workload.outcome) -> f o) plain /. float_of_int (List.length plain)
  in
  let metrics =
    [ ("bacore.step.calls", per_decision (calls Layers.Step));
      ("bacore.step.self_ns_per_call", div (self Layers.Step) (calls Layers.Step));
      ("bacore.step.self_ms", self_ms Layers.Step);
      ("bacore.sparse_hook.self_ms", self_ms Layers.Sparse_hook);
      ("bacore.init.ms", self_ms Layers.Init);
      ("bacore.make_env.ms", self_ms Layers.Make_env);
      ("bacore.msg_bits.calls", per_decision (calls Layers.Msg_bits));
      ("bacore.msg_bits.ms", self_ms Layers.Msg_bits);
      ("bacore.cert_cache.entries", field (fun (o : Workload.outcome) -> o.cert_entries)) ]
    @ per_call "bafmine.mine" Layers.Mine
    @ per_call "bafmine.sample" Layers.Sample
    @ per_call "bafmine.verify" Layers.Verify
    @ per_call "bafmine.verify_many" Layers.Verify_many
    @ [ ("bafmine.mine.win_ratio", div (Layers.mine_wins layers) (calls Layers.Mine));
        ("bafmine.sample.win_ratio", div (Layers.sample_wins layers) (calls Layers.Sample));
        ("bafmine.fmine.attempts", field (fun (o : Workload.outcome) -> o.fmine_attempts));
        ("bafmine.fmine.successes", field (fun (o : Workload.outcome) -> o.fmine_successes));
        ("bacrypto.calib_sha256_1KiB_ns", calib);
        ("basim.run.self_ms", self_ms Layers.Run);
        ("basim.rounds", field (fun (o : Workload.outcome) -> o.rounds));
        ("basim.deliveries", field (fun (o : Workload.outcome) -> o.deliveries));
        ("basim.injections", field (fun (o : Workload.outcome) -> o.injections));
        ("baattacks.setup.ms", self_ms Layers.Adv_setup);
        ("baattacks.intervene.calls", per_decision (calls Layers.Intervene));
        ("baattacks.intervene.self_ms", self_ms Layers.Intervene);
        ("baattacks.actions.corrupt", per_decision corrupt);
        ("baattacks.actions.inject", per_decision inject);
        ("baattacks.actions.remove", per_decision remove);
        ("baobs.tracer.events", per_decision (calls Layers.Tracer));
        ("baobs.tracer.ns_per_event", div (self Layers.Tracer) (calls Layers.Tracer));
        ("baobs.tracer.bytes", field (fun (o : Workload.outcome) -> o.trace_bytes));
        ("gc.minor_collections", plain_mean (fun o -> float_of_int o.minor_collections));
        ("gc.major_collections", plain_mean (fun o -> float_of_int o.major_collections));
        ("gc.promoted_words", plain_mean (fun o -> o.promoted_words));
        ( "harness.trace_overhead_frac",
          div
            (sum (fun (o : Workload.outcome) -> o.wall_ns) wrapped)
            (sum (fun (o : Workload.outcome) -> o.wall_ns) plain)
          -. 1. );
        ("harness.coverage_frac", coverage) ]
  in
  (attempted, failed, metrics)

let () =
  let shape, seed, seconds, trace = parse_args () in
  check_env ();
  let calib = calibrate ~seed in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%d trace=%d\n"
    shape.Workload.name seed seconds (if trace then 1 else 0);
  Printf.printf "host: nproc=%d ocaml=%s calib_sha256_1KiB_ns=%.1f BA_INTRA_JOBS=%s BA_JOBS=%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version calib
    (Option.value (Sys.getenv_opt "BA_INTRA_JOBS") ~default:"unset")
    (Option.value (Sys.getenv_opt "BA_JOBS") ~default:"unset");
  let table, (attempted, failed, metrics) =
    if trace then (Report.per_layer, traced shape ~seconds ~calib)
    else (Report.end_to_end, untraced shape ~seconds)
  in
  print_endline
    (Report.result_line ~table ~correct:(failed = 0) ~attempted ~failed metrics)
