(* Trace analytics: fold a (re-parsed) execution trace into per-round,
   per-node, and per-size views with Definition-7 accounting — erased
   honest sends ([Removed] events, which carry the erased send's shape)
   still count toward honest multicasts/unicasts, exactly as
   [Basim.Metrics] counts them, so a report's totals reproduce the
   engine's aggregates for the same run. *)

open Basim

type counts = {
  mutable multicasts : int;
  mutable multicast_bits : int;
  mutable unicasts : int;        (* targeted sends × recipients *)
  mutable unicast_bits : int;    (* recipients × bits per targeted send *)
  mutable removals : int;
  mutable injections : int;
  mutable corruptions : int;
  mutable halts : int;
}

let zero_counts () =
  { multicasts = 0;
    multicast_bits = 0;
    unicasts = 0;
    unicast_bits = 0;
    removals = 0;
    injections = 0;
    corruptions = 0;
    halts = 0 }

type t = {
  events : Trace.event list;
  totals : counts;
  per_round : (int, counts) Hashtbl.t;
  per_node : (int, counts) Hashtbl.t;
  multicast_sizes : Bastats.Histogram.t;  (* bits per honest multicast *)
  unicast_sizes : Bastats.Histogram.t;    (* bits per honest targeted send *)
}

let bucket table key =
  match Hashtbl.find_opt table key with
  | Some c -> c
  | None ->
      let c = zero_counts () in
      Hashtbl.add table key c;
      c

let of_events ?rounds events =
  let events =
    match rounds with
    | None -> events
    | Some (lo, hi) ->
        if lo > hi then invalid_arg "Report.of_events: empty rounds window";
        List.filter
          (fun e ->
            let r = Trace.round_of e in
            lo <= r && r <= hi)
          events
  in
  let t =
    { events;
      totals = zero_counts ();
      per_round = Hashtbl.create 64;
      per_node = Hashtbl.create 64;
      multicast_sizes = Bastats.Histogram.create ();
      unicast_sizes = Bastats.Histogram.create () }
  in
  let record event =
    let tally round node f =
      f t.totals;
      f (bucket t.per_round round);
      match node with None -> () | Some i -> f (bucket t.per_node i)
    in
    let honest_send ~round ~node ~multicast ~recipients ~bits =
      if multicast then begin
        tally round node (fun c ->
            c.multicasts <- c.multicasts + 1;
            c.multicast_bits <- c.multicast_bits + bits);
        Bastats.Histogram.add t.multicast_sizes bits
      end
      else begin
        tally round node (fun c ->
            c.unicasts <- c.unicasts + recipients;
            c.unicast_bits <- c.unicast_bits + (recipients * bits));
        Bastats.Histogram.add t.unicast_sizes bits
      end
    in
    match event with
    | Trace.Round_started _ -> ()
    | Trace.Sent { round; node; multicast; recipients; bits; _ } ->
        honest_send ~round ~node:(Some node) ~multicast ~recipients ~bits
    | Trace.Removed { round; victim; multicast; recipients; bits; _ } ->
        (* Definition 7: the erased send still counts for its sender. *)
        honest_send ~round ~node:(Some victim) ~multicast ~recipients ~bits;
        tally round (Some victim) (fun c -> c.removals <- c.removals + 1)
    | Trace.Injected { round; src; _ } ->
        tally round (Some src) (fun c -> c.injections <- c.injections + 1)
    | Trace.Corrupted { round; node } ->
        tally round (Some node) (fun c -> c.corruptions <- c.corruptions + 1)
    | Trace.Halted { round; node; output = _ } ->
        tally round (Some node) (fun c -> c.halts <- c.halts + 1)
  in
  List.iter record events;
  t

let of_jsonl_string ?rounds text =
  of_events ?rounds (Trace.events_of_jsonl text)

(* ---------- accessors --------------------------------------------------- *)

let events t = t.events

let event_count t = List.length t.events

let totals t = t.totals

let sorted_bindings table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let rounds t = sorted_bindings t.per_round

let nodes t = sorted_bindings t.per_node

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

let multicast_sizes t = t.multicast_sizes

let unicast_sizes t = t.unicast_sizes

(* ---------- consistency check ------------------------------------------- *)

(* The produce→analyze round-trip CI gates on: every event re-serializes
   to the JSON it was parsed from (to_json/of_json inverses), and the
   per-round and per-node tables sum back to the totals. *)
let check t =
  let sum field =
    List.fold_left (fun acc (_, c) -> acc + field c) 0
  in
  let mismatch name total per_round per_node =
    if total <> per_round then
      Some
        (Printf.sprintf "%s: totals=%d per-round sum=%d" name total per_round)
    else if total <> per_node then
      Some (Printf.sprintf "%s: totals=%d per-node sum=%d" name total per_node)
    else None
  in
  let fields =
    [ ("multicasts", (fun c -> c.multicasts));
      ("multicast_bits", (fun c -> c.multicast_bits));
      ("unicasts", (fun c -> c.unicasts));
      ("unicast_bits", (fun c -> c.unicast_bits));
      ("removals", (fun c -> c.removals));
      ("injections", (fun c -> c.injections));
      ("corruptions", (fun c -> c.corruptions));
      ("halts", (fun c -> c.halts)) ]
  in
  let table_errors =
    List.filter_map
      (fun (name, field) ->
        mismatch name (field t.totals)
          (sum field (rounds t))
          (sum field (nodes t)))
      fields
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
  match table_errors @ roundtrip_errors with
  | [] -> Ok ()
  | errors -> Error errors

(* ---------- exporters --------------------------------------------------- *)

let counts_cells c =
  [ string_of_int c.multicasts;
    string_of_int c.multicast_bits;
    string_of_int c.unicasts;
    string_of_int c.unicast_bits;
    string_of_int c.removals;
    string_of_int c.injections;
    string_of_int c.corruptions;
    string_of_int c.halts ]

let counts_columns =
  [ "multicasts"; "multicast_bits"; "unicasts"; "unicast_bits"; "removals";
    "injections"; "corruptions"; "halts" ]

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

let counts_json c =
  Baobs.Json.Obj
    (List.map2
       (fun name cell -> (name, Baobs.Json.Int (int_of_string cell)))
       counts_columns (counts_cells c))

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
           match counts_json c with
           | Baobs.Json.Obj fields ->
               Baobs.Json.Obj ((name, Baobs.Json.Int key) :: fields)
           | Baobs.Json.Null | Baobs.Json.Bool _ | Baobs.Json.Int _
           | Baobs.Json.Float _ | Baobs.Json.String _ | Baobs.Json.List _ ->
               assert false)
         bindings)
  in
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String "ba-report/v1");
      ("events", Baobs.Json.Int (event_count t));
      ("totals", counts_json t.totals);
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
