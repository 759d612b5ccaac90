(* Trace analytics over the replay of a trace through
   [Basim.Metrics.of_events]; the report adds only what its [Series]
   does not hold: halts and the message-size histograms. *)

open Basim
module S = Baobs.Series

type counts = {
  multicasts : int;
  multicast_bits : int;
  unicasts : int;        (* targeted sends × recipients *)
  unicast_bits : int;    (* recipients × bits per targeted send *)
  removals : int;
  injections : int;
  corruptions : int;
  halts : int;
}

let zero =
  { multicasts = 0;
    multicast_bits = 0;
    unicasts = 0;
    unicast_bits = 0;
    removals = 0;
    injections = 0;
    corruptions = 0;
    halts = 0 }

let add c (kind : S.kind) v =
  match kind with
  | S.Multicast -> { c with multicasts = c.multicasts + v }
  | S.Multicast_bits -> { c with multicast_bits = c.multicast_bits + v }
  | S.Unicast -> { c with unicasts = c.unicasts + v }
  | S.Unicast_bits -> { c with unicast_bits = c.unicast_bits + v }
  | S.Removal -> { c with removals = c.removals + v }
  | S.Injection -> { c with injections = c.injections + v }
  | S.Corruption -> { c with corruptions = c.corruptions + v }
  | S.Injection_bits -> c

(* The report's columns, in output order. *)
let fields c =
  [ ("multicasts", c.multicasts);
    ("multicast_bits", c.multicast_bits);
    ("unicasts", c.unicasts);
    ("unicast_bits", c.unicast_bits);
    ("removals", c.removals);
    ("injections", c.injections);
    ("corruptions", c.corruptions);
    ("halts", c.halts) ]

module Int_map = Map.Make (Int)

type t = {
  events : Trace.event list;
  totals : counts;
  rounds : (int * counts) list;
  nodes : (int * counts) list;
  multicast_sizes : Bastats.Histogram.t;  (* bits per honest multicast *)
  unicast_sizes : Bastats.Histogram.t;    (* bits per honest targeted send *)
}

(* Series storage is sparse in nodes, so the replay can size itself
   from the ids the trace names: a forged id costs one cell, not an
   n-wide table, and one past [Series.max_nodes] is refused by the
   validation. *)
let n_of_ids events =
  let top =
    List.fold_left
      (fun acc e ->
        match e with
        | Trace.Round_started _ -> acc
        | Trace.Sent { node = i; targets; _ }
        | Trace.Removed { victim = i; targets; _ }
        | Trace.Injected { src = i; targets; _ } ->
            List.fold_left max (max acc i) targets
        | Trace.Corrupted { node = i; _ } | Trace.Halted { node = i; _ } ->
            max acc i)
      0 events
  in
  min top (S.max_nodes - 1) + 1

let of_events ?rounds events =
  let in_window =
    match rounds with
    | None -> fun _ -> true
    | Some (lo, hi) ->
        if lo > hi then invalid_arg "Report.of_events: empty rounds window";
        fun r -> lo <= r && r <= hi
  in
  let series = Metrics.series (Metrics.of_events ~n:(n_of_ids events) events) in
  let events = List.filter (fun e -> in_window (Trace.round_of e)) events in
  let multicast_sizes = Bastats.Histogram.create ()
  and unicast_sizes = Bastats.Histogram.create () in
  let tally (total, by_round, by_node) ~round ~node f =
    let bump key =
      Int_map.update key (fun c -> Some (f (Option.value c ~default:zero)))
    in
    (f total, bump round by_round, bump node by_node)
  in
  (* Rows come from the events, not the cells: a halt has no cell, nor
     has a send to zero recipients, and each still shows as a row. *)
  let acc =
    List.fold_left
      (fun acc e ->
        let round = Trace.round_of e in
        match e with
        | Trace.Round_started _ -> acc
        | Trace.Sent { node; multicast; bits; _ }
        | Trace.Removed { victim = node; multicast; bits; _ } ->
            Bastats.Histogram.add
              (if multicast then multicast_sizes else unicast_sizes)
              bits;
            tally acc ~round ~node Fun.id
        | Trace.Injected { src = node; _ } | Trace.Corrupted { node; _ } ->
            tally acc ~round ~node Fun.id
        | Trace.Halted { node; _ } ->
            tally acc ~round ~node (fun c -> { c with halts = c.halts + 1 }))
      (zero, Int_map.empty, Int_map.empty)
      events
  in
  let totals, by_round, by_node =
    S.fold series
      (fun acc ~round ~node kind v ->
        if in_window round then tally acc ~round ~node (fun c -> add c kind v)
        else acc)
      acc
  in
  { events;
    totals;
    rounds = Int_map.bindings by_round;
    nodes = Int_map.bindings by_node;
    multicast_sizes;
    unicast_sizes }

let of_jsonl_string ?rounds text =
  of_events ?rounds (Trace.events_of_jsonl text)

(* ---------- accessors --------------------------------------------------- *)

let event_count t = List.length t.events

let totals t = t.totals

let rounds t = t.rounds

let nodes t = t.nodes

let top_talkers ?(k = 10) t =
  let by_load (i1, c1) (i2, c2) =
    (* Heaviest multicast bit-load first (the paper's figure of merit),
       unicast bits then node id as tie-breaks. *)
    match Int.compare c2.multicast_bits c1.multicast_bits with
    | 0 -> (
        match Int.compare c2.unicast_bits c1.unicast_bits with
        | 0 -> Int.compare i1 i2
        | c -> c)
    | c -> c
  in
  List.filteri (fun i _ -> i < k) (List.sort by_load (nodes t))

let size_summary histogram =
  match
    List.concat_map
      (fun (v, c) -> List.init c (fun _ -> v))
      (Bastats.Histogram.bins histogram)
  with
  | [] -> None
  | samples -> Some (Bastats.Summary.of_ints samples)

let multicast_size_summary t = size_summary t.multicast_sizes

let unicast_size_summary t = size_summary t.unicast_sizes

(* ---------- consistency check ------------------------------------------- *)

(* The produce→analyze round-trip CI gates on: every event re-serializes
   to the JSON it was parsed from (to_json/of_json inverses), and the
   per-round and per-node tables sum back to the totals. *)
let check t =
  let values c = List.map snd (fields c) in
  let sums rows =
    List.fold_left
      (fun acc (_, c) -> List.map2 ( + ) acc (values c))
      (values zero) rows
  in
  let mismatches label rows =
    List.concat
      (List.map2
         (fun (name, total) sum ->
           if total = sum then []
           else
             [ Printf.sprintf "%s: totals=%d %s sum=%d" name total label sum ])
         (fields t.totals) (sums rows))
  in
  let roundtrip_errors =
    List.filter_map
      (fun e ->
        let j = Trace.to_json e in
        if Trace.of_json j = e then None
        else
          Some
            (Printf.sprintf "event does not round-trip: %s"
               (Baobs.Json.to_string j)))
      t.events
  in
  match
    mismatches "per-round" (rounds t)
    @ mismatches "per-node" (nodes t)
    @ roundtrip_errors
  with
  | [] -> Ok ()
  | errors -> Error errors

(* ---------- exporters --------------------------------------------------- *)

let counts_columns = List.map fst (fields zero)

let counts_cells c = List.map (fun (_, v) -> string_of_int v) (fields c)

let round_table t =
  let table =
    Bastats.Table.create ~title:"Per-round timeline"
      ~columns:("round" :: counts_columns)
  in
  List.iter
    (fun (round, c) ->
      Bastats.Table.add_row table (string_of_int round :: counts_cells c))
    (rounds t);
  Bastats.Table.add_row table ("total" :: counts_cells t.totals);
  table

let talkers_table ?k t =
  let table =
    Bastats.Table.create ~title:"Top talkers (by multicast bits)"
      ~columns:("node" :: counts_columns)
  in
  List.iter
    (fun (node, c) ->
      Bastats.Table.add_row table (string_of_int node :: counts_cells c))
    (top_talkers ?k t);
  table

let sizes_table t =
  let table =
    Bastats.Table.create ~title:"Message sizes (bits)"
      ~columns:[ "kind"; "count"; "mean"; "min"; "p50"; "p95"; "p99"; "max" ]
  in
  let row kind summary =
    match summary with
    | None -> ()
    | Some (s : Bastats.Summary.t) ->
        Bastats.Table.add_row table
          [ kind;
            string_of_int s.Bastats.Summary.count;
            Bastats.Table.fmt_float s.Bastats.Summary.mean;
            Bastats.Table.fmt_float s.Bastats.Summary.min;
            Bastats.Table.fmt_float s.Bastats.Summary.p50;
            Bastats.Table.fmt_float s.Bastats.Summary.p95;
            Bastats.Table.fmt_float s.Bastats.Summary.p99;
            Bastats.Table.fmt_float s.Bastats.Summary.max ]
  in
  row "multicast" (multicast_size_summary t);
  row "unicast" (unicast_size_summary t);
  table

let to_text ?k t =
  String.concat "\n"
    [ Printf.sprintf "events: %d" (event_count t);
      Bastats.Table.render (round_table t);
      Bastats.Table.render (talkers_table ?k t);
      Bastats.Table.render (sizes_table t) ]

let counts_json c = List.map (fun (k, v) -> (k, Baobs.Json.Int v)) (fields c)

let summary_json = function
  | None -> Baobs.Json.Null
  | Some (s : Bastats.Summary.t) ->
      Baobs.Json.Obj
        [ ("count", Baobs.Json.Int s.Bastats.Summary.count);
          ("mean", Baobs.Json.Float s.Bastats.Summary.mean);
          ("min", Baobs.Json.Float s.Bastats.Summary.min);
          ("p50", Baobs.Json.Float s.Bastats.Summary.p50);
          ("p95", Baobs.Json.Float s.Bastats.Summary.p95);
          ("p99", Baobs.Json.Float s.Bastats.Summary.p99);
          ("max", Baobs.Json.Float s.Bastats.Summary.max) ]

let to_json ?k t =
  let keyed name bindings =
    Baobs.Json.List
      (List.map
         (fun (key, c) ->
           Baobs.Json.Obj ((name, Baobs.Json.Int key) :: counts_json c))
         bindings)
  in
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-report/v1");
      ("events", Baobs.Json.Int (event_count t));
      ("totals", Baobs.Json.Obj (counts_json t.totals));
      ("rounds", keyed "round" (rounds t));
      ("nodes", keyed "node" (nodes t));
      ("top_talkers", keyed "node" (top_talkers ?k t));
      ( "sizes",
        Baobs.Json.Obj
          [ ("multicast", summary_json (multicast_size_summary t));
            ("unicast", summary_json (unicast_size_summary t)) ] ) ]

let to_csv t =
  Baobs.Csv.to_string
    ~header:("round" :: counts_columns)
    (List.map
       (fun (round, c) -> string_of_int round :: counts_cells c)
       (rounds t))
