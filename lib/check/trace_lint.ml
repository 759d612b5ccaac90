open Basim
module S = Baobs.Series

type kind =
  | Non_monotonic_round
  | Round_mismatch
  | Static_midround_corruption
  | Over_budget
  | Removal_without_model
  | Removal_of_uncorrupted
  | Sent_while_corrupt
  | Injection_from_honest
  | Event_after_halt
  | Accounting_mismatch

type finding = {
  kind : kind;
  round : int;
  node : int option;
  detail : string;
}

let kind_name = function
  | Non_monotonic_round -> "non-monotonic-round"
  | Round_mismatch -> "round-mismatch"
  | Static_midround_corruption -> "static-midround-corruption"
  | Over_budget -> "over-budget"
  | Removal_without_model -> "removal-without-model"
  | Removal_of_uncorrupted -> "removal-of-uncorrupted"
  | Sent_while_corrupt -> "sent-while-corrupt"
  | Injection_from_honest -> "injection-from-honest"
  | Event_after_halt -> "event-after-halt"
  | Accounting_mismatch -> "accounting-mismatch"

let pp_finding fmt f =
  Format.fprintf fmt "[%s] round %d%s: %s" (kind_name f.kind) f.round
    (match f.node with
    | Some i -> Printf.sprintf " node %d" i
    | None -> "")
    f.detail

let findings_to_json findings =
  Baobs.Json.List
    (List.map
       (fun f ->
         Baobs.Json.Obj
           [ ("kind", Baobs.Json.String (kind_name f.kind));
             ("round", Baobs.Json.Int f.round);
             ( "node",
               match f.node with
               | Some i -> Baobs.Json.Int i
               | None -> Baobs.Json.Null );
             ("detail", Baobs.Json.String f.detail) ])
       findings)

(* Verification walks the stream once, tracking who is corrupt (and
   since when), who halted (and when), and the round in progress; the
   accounting is [check_metrics]'s replay. *)
type state = {
  mutable current : int;  (* round in progress; -1 = pre-execution *)
  mutable started : bool;  (* a Round_started has been seen *)
  corrupt : (int, int) Hashtbl.t;  (* node -> corruption round *)
  halted : (int, int) Hashtbl.t;  (* node -> halt round *)
  mutable findings : finding list;  (* reversed *)
}

let report st kind ~round ~node detail =
  st.findings <- { kind; round; node; detail } :: st.findings

let check_event_round st ~round ~node detail =
  if round <> st.current then
    report st Round_mismatch ~round ~node
      (Printf.sprintf "%s carries round %d while round %d is in progress"
         detail round st.current)

let check_send st ~round ~node ~label =
  (match Hashtbl.find_opt st.corrupt node with
  | Some rc when rc < round ->
      report st Sent_while_corrupt ~round ~node:(Some node)
        (Printf.sprintf
           "%s by node %d, corrupt since round %d — corrupt traffic must be \
            Injected"
           label node rc)
  | Some _ | None -> ());
  match Hashtbl.find_opt st.halted node with
  | Some rh when rh < round ->
      report st Event_after_halt ~round ~node:(Some node)
        (Printf.sprintf "%s by node %d, halted in round %d" label node rh)
  | Some _ | None -> ()

let observe st ~model ~budget event =
  match event with
  | Trace.Round_started { round } ->
      if round <= st.current then
        report st Non_monotonic_round ~round ~node:None
          (Printf.sprintf "round %d started after round %d" round st.current);
      st.current <- round;
      st.started <- true
  | Trace.Corrupted { round; node } ->
      if round = -1 then begin
        if st.started then
          report st Round_mismatch ~round ~node:(Some node)
            "setup-time corruption after the execution started"
      end
      else begin
        check_event_round st ~round ~node:(Some node) "corruption";
        if not (Corruption.allows_dynamic_corruption model) then
          report st Static_midround_corruption ~round ~node:(Some node)
            (Printf.sprintf
               "node %d corrupted mid-execution under the %s model" node
               (Corruption.to_string model))
      end;
      if not (Hashtbl.mem st.corrupt node) then begin
        Hashtbl.replace st.corrupt node round;
        let corruptions = Hashtbl.length st.corrupt in
        if corruptions > budget then
          report st Over_budget ~round ~node:(Some node)
            (Printf.sprintf "%d nodes corrupted, budget is %d" corruptions
               budget)
      end
  | Trace.Removed { round; victim; _ } ->
      check_event_round st ~round ~node:(Some victim) "removal";
      if not (Corruption.allows_removal model) then
        report st Removal_without_model ~round ~node:(Some victim)
          (Printf.sprintf
             "after-the-fact removal under the %s model (strongly adaptive \
              only)"
             (Corruption.to_string model));
      (match Hashtbl.find_opt st.corrupt victim with
      | Some rc when rc = round -> ()
      | Some rc ->
          report st Removal_of_uncorrupted ~round ~node:(Some victim)
            (Printf.sprintf
               "victim %d was corrupted in round %d, not in the removal round"
               victim rc)
      | None ->
          report st Removal_of_uncorrupted ~round ~node:(Some victim)
            (Printf.sprintf "victim %d is honest" victim))
  | Trace.Sent { round; node; _ } ->
      check_event_round st ~round ~node:(Some node) "send";
      check_send st ~round ~node ~label:"send"
  | Trace.Injected { round; src; _ } ->
      check_event_round st ~round ~node:(Some src) "injection";
      (match Hashtbl.find_opt st.corrupt src with
      | Some rc when rc <= round -> ()
      | Some rc ->
          report st Injection_from_honest ~round ~node:(Some src)
            (Printf.sprintf
               "injection from node %d before its corruption in round %d" src
               rc)
      | None ->
          report st Injection_from_honest ~round ~node:(Some src)
            (Printf.sprintf "injection from honest node %d" src))
  | Trace.Halted { round; node; output = _ } ->
      check_event_round st ~round ~node:(Some node) "halt";
      (match Hashtbl.find_opt st.halted node with
      | Some rh ->
          report st Event_after_halt ~round ~node:(Some node)
            (Printf.sprintf "node %d halted again (first halt in round %d)"
               node rh)
      | None -> Hashtbl.replace st.halted node round)

(* Definition-7 accounting: the trace's replay must equal the run's
   metrics in every series cell (one finding per kind, at its first
   differing cell) and in [rounds]. *)
let check_metrics st metrics events =
  let series = Metrics.series metrics in
  match Metrics.of_events ~n:(S.n_nodes series) events with
  | exception Baobs.Json.Parse_error e ->
      report st Accounting_mismatch ~round:st.current ~node:None
        ("the trace cannot be replayed: " ^ e)
  | replay ->
      let cells = Hashtbl.create 256 in
      let note series pick =
        S.fold series
          (fun () ~round ~node kind v ->
            let key = (kind, round, node) in
            let cell = Hashtbl.find_opt cells key in
            Hashtbl.replace cells key
              (pick (Option.value cell ~default:(0, 0)) v))
          ()
      in
      note (Metrics.series replay) (fun (got, want) v -> (got + v, want));
      note series (fun (got, want) v -> (got, want + v));
      let unrecorded_bits =
        List.exists
          (function
            | Trace.Injected { bits; _ } -> bits < 0
            | Trace.Round_started _ | Trace.Sent _ | Trace.Corrupted _
            | Trace.Removed _ | Trace.Halted _ -> false)
          events
      in
      let by_cell (r1, n1, _, _) (r2, n2, _, _) =
        match Int.compare r1 r2 with 0 -> Int.compare n1 n2 | c -> c
      in
      List.iter
        (fun kind ->
          let differing =
            Hashtbl.fold
              (fun (k, round, node) (got, want) acc ->
                let skip = unrecorded_bits && k = S.Injection_bits in
                if k = kind && got <> want && not skip then
                  (round, node, got, want) :: acc
                else acc)
              cells []
          in
          match List.sort by_cell differing with
          | [] -> ()
          | (round, node, got, want) :: _ ->
              report st Accounting_mismatch ~round ~node:(Some node)
                (Printf.sprintf
                   "%s: %d cell(s) differ, the first here: trace \
                    reconstructs %d, metrics say %d"
                   (S.kind_name kind) (List.length differing) got want))
        S.all_kinds;
      let got = Metrics.rounds replay and want = Metrics.rounds metrics in
      if got <> want then
        report st Accounting_mismatch ~round:st.current ~node:None
          (Printf.sprintf "rounds: trace reconstructs %d, metrics say %d" got
             want)

let verify ?metrics ~model ~budget events =
  let st =
    { current = -1;
      started = false;
      corrupt = Hashtbl.create 64;
      halted = Hashtbl.create 64;
      findings = [] }
  in
  List.iter (observe st ~model ~budget) events;
  (match metrics with Some m -> check_metrics st m events | None -> ());
  List.rev st.findings
