module S = Baobs.Series

(* Every accounting event lands in exactly one series cell; the
   aggregates below are the series' per-kind totals. *)
type t = { series : S.t; mutable max_round : int }

let create ~n = { series = S.create ~n; max_round = -1 }

let series t = t.series

let record_honest_multicast t ~round ~node ~bits =
  S.record t.series ~round ~node S.Multicast;
  S.record ~by:bits t.series ~round ~node S.Multicast_bits

let record_honest_unicast t ~round ~node ~recipients ~bits =
  S.record ~by:recipients t.series ~round ~node S.Unicast;
  S.record ~by:(recipients * bits) t.series ~round ~node S.Unicast_bits

let record_removal t ~round ~node = S.record t.series ~round ~node S.Removal

let record_injection t ~round ~node ~bits =
  S.record t.series ~round ~node S.Injection;
  S.record ~by:bits t.series ~round ~node S.Injection_bits

let record_corruption t ~round ~node =
  S.record t.series ~round ~node S.Corruption

let note_round t r = if r > t.max_round then t.max_round <- r

(* The one Definition-7 fold over a recorded trace: each event goes
   through the [record_*] function the engine called when it happened. *)
let of_events ~n events =
  Trace.validate ~n events;
  let t = create ~n in
  let honest_send ~round ~node ~multicast ~recipients ~bits =
    if multicast then record_honest_multicast t ~round ~node ~bits
    else record_honest_unicast t ~round ~node ~recipients ~bits
  in
  List.iter
    (function
      | Trace.Round_started { round } -> note_round t round
      | Trace.Sent { round; node; multicast; recipients; bits; _ } ->
          honest_send ~round ~node ~multicast ~recipients ~bits
      | Trace.Removed { round; victim; multicast; recipients; bits; _ } ->
          (* Definition 7: the erased send still counts for its sender. *)
          honest_send ~round ~node:victim ~multicast ~recipients ~bits;
          record_removal t ~round ~node:victim
      | Trace.Injected { round; src; bits; _ } ->
          (* an unlabeled trace leaves the bits unrecorded ([-1]) *)
          record_injection t ~round ~node:src ~bits:(max 0 bits)
      | Trace.Corrupted { round; node } -> record_corruption t ~round ~node
      | Trace.Halted _ -> ())
    events;
  t

let n t = S.n_nodes t.series

let honest_multicasts t = S.total t.series S.Multicast

let honest_multicast_bits t = S.total t.series S.Multicast_bits

let honest_unicasts t = S.total t.series S.Unicast

let unicast_bits t = S.total t.series S.Unicast_bits

let classical_messages t = (honest_multicasts t * n t) + honest_unicasts t

let classical_bits t = (honest_multicast_bits t * n t) + unicast_bits t

let removals t = S.total t.series S.Removal

let injections t = S.total t.series S.Injection

let rounds t = t.max_round + 1

let pp fmt t =
  Format.fprintf fmt
    "rounds=%d multicasts=%d (%d bits) unicasts=%d removals=%d injections=%d"
    (rounds t) (honest_multicasts t) (honest_multicast_bits t)
    (honest_unicasts t) (removals t) (injections t)

let to_json t =
  let open Baobs.Json in
  Obj
    [ ("n", Int (n t));
      ("rounds", Int (rounds t));
      ("multicasts", Int (honest_multicasts t));
      ("multicast_bits", Int (honest_multicast_bits t));
      ("unicasts", Int (honest_unicasts t));
      ("unicast_bits", Int (unicast_bits t));
      ("removals", Int (removals t));
      ("injections", Int (injections t));
      ("injection_bits", Int (S.total t.series S.Injection_bits));
      ("classical_messages", Int (classical_messages t));
      ("classical_bits", Int (classical_bits t)) ]
