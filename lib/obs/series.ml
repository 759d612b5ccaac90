type kind =
  | Multicast
  | Multicast_bits
  | Unicast
  | Unicast_bits
  | Removal
  | Injection
  | Injection_bits
  | Corruption

let all_kinds =
  [ Multicast; Multicast_bits; Unicast; Unicast_bits; Removal; Injection;
    Injection_bits; Corruption ]

let n_kinds = 8

let kind_index = function
  | Multicast -> 0
  | Multicast_bits -> 1
  | Unicast -> 2
  | Unicast_bits -> 3
  | Removal -> 4
  | Injection -> 5
  | Injection_bits -> 6
  | Corruption -> 7

let kind_name = function
  | Multicast -> "multicasts"
  | Multicast_bits -> "multicast_bits"
  | Unicast -> "unicasts"
  | Unicast_bits -> "unicast_bits"
  | Removal -> "removals"
  | Injection -> "injections"
  | Injection_bits -> "injection_bits"
  | Corruption -> "corruptions"

(* Rounds are stored at index [round + 1] so that setup-time events
   (round -1, matching the trace convention) have a bucket. Buckets are
   sparse hash tables keyed by [node * n_kinds + kind]: committee-based
   protocols have only O(λ) speakers per round, so dense n-wide arrays
   would waste most of their space. *)
type t = {
  n : int;
  mutable buckets : (int, int) Hashtbl.t option array;
  mutable used : int;  (* highest occupied index + 1 *)
  totals : int array;  (* per kind, summed as cells are recorded *)
}

let max_nodes = max_int / n_kinds

let create ~n =
  if n <= 0 || n > max_nodes then invalid_arg "Series.create: n out of range";
  { n; buckets = Array.make 8 None; used = 0; totals = Array.make n_kinds 0 }

let n_nodes t = t.n

let bucket t idx =
  if idx >= Array.length t.buckets then begin
    let cap = max (idx + 1) (2 * Array.length t.buckets) in
    let grown = Array.make cap None in
    Array.blit t.buckets 0 grown 0 (Array.length t.buckets);
    t.buckets <- grown
  end;
  if idx >= t.used then t.used <- idx + 1;
  match t.buckets.(idx) with
  | Some b -> b
  | None ->
      let b = Hashtbl.create 32 in
      t.buckets.(idx) <- Some b;
      b

let record ?(by = 1) t ~round ~node kind =
  if round < -1 then invalid_arg "Series.record: round < -1";
  if node < 0 || node >= t.n then invalid_arg "Series.record: node out of range";
  if by <> 0 then begin
    let b = bucket t (round + 1) in
    let ki = kind_index kind in
    let key = (node * n_kinds) + ki in
    let prev = match Hashtbl.find_opt b key with Some v -> v | None -> 0 in
    Hashtbl.replace b key (prev + by);
    t.totals.(ki) <- t.totals.(ki) + by
  end

let max_round t = t.used - 2

let fold t f acc =
  let acc = ref acc in
  for idx = 0 to t.used - 1 do
    match t.buckets.(idx) with
    | None -> ()
    | Some b ->
        (* Sort within the bucket for deterministic iteration order. *)
        Hashtbl.fold (fun key v l -> (key, v) :: l) b []
        |> List.sort (fun (k1, v1) (k2, v2) ->
               match Int.compare k1 k2 with 0 -> Int.compare v1 v2 | c -> c)
        |> List.iter (fun (key, v) ->
               let node = key / n_kinds in
               let kind = List.nth all_kinds (key mod n_kinds) in
               acc := f !acc ~round:(idx - 1) ~node kind v)
  done;
  !acc

let total t kind = t.totals.(kind_index kind)

let round_total t ~round kind =
  if round + 1 < 0 || round + 1 >= t.used then 0
  else
    match t.buckets.(round + 1) with
    | None -> 0
    | Some b ->
        let ki = kind_index kind in
        Hashtbl.fold
          (fun key v acc -> if key mod n_kinds = ki then acc + v else acc)
          b 0

(* Grouped [(round, [(node, counts array)])] view, rounds and nodes
   ascending, used by both exporters. *)
let cells t =
  let rounds = ref [] in
  for idx = t.used - 1 downto 0 do
    match t.buckets.(idx) with
    | None -> ()
    | Some b when Hashtbl.length b > 0 ->
        let per_node = Hashtbl.create 16 in
        Hashtbl.iter
          (fun key v ->
            let node = key / n_kinds in
            let counts =
              match Hashtbl.find_opt per_node node with
              | Some c -> c
              | None ->
                  let c = Array.make n_kinds 0 in
                  Hashtbl.add per_node node c;
                  c
            in
            counts.(key mod n_kinds) <- counts.(key mod n_kinds) + v)
          b;
        let nodes =
          Hashtbl.fold (fun node c l -> (node, c) :: l) per_node []
          |> List.sort (fun (n1, _) (n2, _) -> Int.compare n1 n2)
        in
        rounds := (idx - 1, nodes) :: !rounds
    | Some _ -> ()
  done;
  !rounds

let to_json t =
  let round_json (round, nodes) =
    Json.Obj
      [ ("round", Json.Int round);
        ( "nodes",
          Json.List
            (List.map
               (fun (node, counts) ->
                 Json.Obj
                   (("node", Json.Int node)
                   :: List.filter_map
                        (fun k ->
                          let v = counts.(kind_index k) in
                          if v = 0 then None
                          else Some (kind_name k, Json.Int v))
                        all_kinds))
               nodes) ) ]
  in
  Json.Obj
    [ ("n", Json.Int t.n);
      ( "totals",
        Json.Obj
          (List.map (fun k -> (kind_name k, Json.Int (total t k))) all_kinds) );
      ("rounds", Json.List (List.map round_json (cells t))) ]

let csv_header = "round" :: "node" :: List.map kind_name all_kinds

let to_csv t =
  let rows =
    List.concat_map
      (fun (round, nodes) ->
        List.map
          (fun (node, counts) ->
            string_of_int round :: string_of_int node
            :: List.map
                 (fun k -> string_of_int counts.(kind_index k))
                 all_kinds)
          nodes)
      (cells t)
  in
  Csv.to_string ~header:csv_header rows
