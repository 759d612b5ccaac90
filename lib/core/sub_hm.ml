open Bafmine

type elig_cert = Eligibility.credential Cert.t

type proposal = {
  p_iter : int;
  p_bit : bool;
  p_cert : elig_cert option;
  p_node : int;
  p_cred : Eligibility.credential;
}

type msg =
  | Status of {
      iter : int;
      bit : bool;
      cert : elig_cert option;
      cred : Eligibility.credential;
    }
  | Propose of proposal
  | Vote of {
      iter : int;
      bit : bool;
      proposal : proposal option;
      cred : Eligibility.credential;
    }
  | Commit of {
      iter : int;
      bit : bool;
      cert : elig_cert;
      cred : Eligibility.credential;
    }
  | Terminate of {
      iter : int;
      bit : bool;
      commits : (int * Eligibility.credential) list;
      cred : Eligibility.credential;
    }

let msg_kind = function
  | Status _ -> "status"
  | Propose _ -> "propose"
  | Vote _ -> "vote"
  | Commit _ -> "commit"
  | Terminate _ -> "terminate"

(* Per-env hash-consing tables for the receiver hot path. Plain
   tables: phase 1 is sequential and each trial owns its env. *)
type interns = {
  strings : string array;
      (* mining strings, filled on first use; [""] marks an empty slot.
         Slot [((iter * 4) + kind) * 2 + bit] for iterations
         [0, max_iter], then the two Terminate strings. *)
  max_iter : int;
  certs : (elig_cert, elig_cert) Hashtbl.t;
      (* the canonical copy of every honest-built certificate *)
}

type env = {
  n : int;
  params : Params.t;
  elig : Eligibility.t;
  pki : Bacrypto.Pki.t option;
  fmine : Fmine.t option;
  cert_cache : (elig_cert, unit) Hashtbl.t;
      (* positive verification results, shared across receivers: sound
         because Fmine coins are memoized and VRF verification is
         deterministic, so a certificate that verified once verifies
         forever *)
  proposal_cache : (proposal, unit) Hashtbl.t;  (* same, for proposals *)
  interns : interns;
}

module Iset = Set.Make (Int)

let phase_of_round = Quadratic_hm.phase_of_round

let bit_int b = if b then 1 else 0

let mining_string kind ~iter ~bit =
  let tag =
    match kind with
    | `Status -> "shm:Status"
    | `Propose -> "shm:Propose"
    | `Vote -> "shm:Vote"
    | `Commit -> "shm:Commit"
  in
  Printf.sprintf "%s:%d:%d" tag iter (bit_int bit)

let terminate_mining_string ~bit = Printf.sprintf "shm:Terminate:%d" (bit_int bit)

let kind_index = function `Status -> 0 | `Propose -> 1 | `Vote -> 2 | `Commit -> 3

let fill strings slot s =
  Array.unsafe_set strings slot s;
  s

let interned_mining_string env kind ~iter ~bit =
  let t = env.interns in
  if iter < 0 || iter > t.max_iter then mining_string kind ~iter ~bit
  else
    let slot = (((iter * 4) + kind_index kind) * 2) + bit_int bit in
    let s = Array.unsafe_get t.strings slot in
    if String.length s > 0 then s
    else fill t.strings slot (mining_string kind ~iter ~bit)

let interned_terminate_string env ~bit =
  let t = env.interns in
  let slot = ((t.max_iter + 1) * 8) + bit_int bit in
  let s = Array.unsafe_get t.strings slot in
  if String.length s > 0 then s
  else fill t.strings slot (terminate_mining_string ~bit)

let make_env ~n ~params ~elig ~pki ~fmine =
  let max_iter = params.Params.max_epochs + 1 in
  { n;
    params;
    elig;
    pki;
    fmine;
    cert_cache = Hashtbl.create 256;
    proposal_cache = Hashtbl.create 64;
    interns =
      { strings = Array.make (((max_iter + 1) * 8) + 2) "";
        max_iter;
        certs = Hashtbl.create 64 } }

(* Hash-consing of honest-built certificates: every structurally equal
   copy resolves to one canonical value, so [cert_cache] hits on it
   compare by physical equality. *)
let make_cert env ~iter ~bit ~endorsements =
  let c = Cert.make ~iter ~bit ~endorsements in
  match Hashtbl.find_opt env.interns.certs c with
  | Some canonical -> canonical
  | None ->
      Hashtbl.add env.interns.certs c c;
      c

let committee_probability env = Params.ack_probability env.params ~n:env.n

let propose_probability env = Params.propose_probability ~n:env.n

let quorum env = Params.hm_quorum env.params

let verify_ticket env ~node ~msg ~p cred =
  env.elig.Eligibility.verify ~node ~msg ~p cred

(* Certificate validity: λ/2 distinct verifying vote credentials.  Positive
   results are cached in the env — every receiver checks the same
   certificate value, and validity is monotone. *)
let valid_cert env (cert : elig_cert) =
  Hashtbl.mem env.cert_cache cert
  ||
  let ok =
    (* all endorsements share one mining string and difficulty, so the
       whole quorum check is a single amortized sweep *)
    Cert.well_formed_batch cert ~quorum:(quorum env)
      ~check_all:
        (env.elig.Eligibility.verify_many
           ~msg:
             (interned_mining_string env `Vote ~iter:cert.Cert.iter
                ~bit:cert.Cert.bit)
           ~p:(committee_probability env))
  in
  if ok then Hashtbl.replace env.cert_cache cert ();
  ok

let valid_cert_opt env = function None -> true | Some c -> valid_cert env c

let valid_proposal env ~iter (p : proposal) =
  p.p_iter = iter
  && (Hashtbl.mem env.proposal_cache p
     ||
     let ok =
       verify_ticket env ~node:p.p_node
         ~msg:(interned_mining_string env `Propose ~iter ~bit:p.p_bit)
         ~p:(propose_probability env) p.p_cred
       && valid_cert_opt env p.p_cert
       && (match p.p_cert with
          | None -> true
          | Some c -> c.Cert.bit = p.p_bit && c.Cert.iter < iter)
     in
     if ok then Hashtbl.replace env.proposal_cache p ();
     ok)

let valid_vote env ~sender ~iter ~bit ~proposal ~cred =
  verify_ticket env ~node:sender
    ~msg:(interned_mining_string env `Vote ~iter ~bit)
    ~p:(committee_probability env) cred
  && (if iter = 1 then true
      else
        match proposal with
        | None -> false
        | Some p -> valid_proposal env ~iter p && p.p_bit = bit)

let valid_commit env ~sender ~iter ~bit ~cert ~cred =
  verify_ticket env ~node:sender
    ~msg:(interned_mining_string env `Commit ~iter ~bit)
    ~p:(committee_probability env) cred
  && valid_cert env cert
  && cert.Cert.iter = iter && cert.Cert.bit = bit

let valid_terminate env ~sender ~iter ~bit ~commits ~cred =
  verify_ticket env ~node:sender ~msg:(interned_terminate_string env ~bit)
    ~p:(committee_probability env) cred
  &&
  let oks =
    env.elig.Eligibility.verify_many
      ~msg:(interned_mining_string env `Commit ~iter ~bit)
      ~p:(committee_probability env) commits
  in
  let distinct =
    List.fold_left2
      (fun seen (node, _) ok ->
        if Iset.mem node seen then seen
        else if ok then Iset.add node seen
        else seen)
      Iset.empty commits oks
  in
  Iset.cardinal distinct >= quorum env

let make_vote ~iter ~bit ~proposal ~cred = Vote { iter; bit; proposal; cred }

let make_propose ~iter ~bit ~cert ~node ~cred =
  Propose { p_iter = iter; p_bit = bit; p_cert = cert; p_node = node; p_cred = cred }

(* The {e listener} half of a node's state: everything a node learns
   purely by verifying and absorbing received messages. Listener
   evolution is a deterministic function of (env, round, inbox) — it
   never reads [me], [input], or the node's rng — which is what lets the
   sparse execution path below share ONE listener among every node that
   received exactly the multicast traffic. *)
type listener = {
  mutable best0 : elig_cert option;
  mutable best1 : elig_cert option;
  votes : (int * bool, (int * Eligibility.credential) list) Hashtbl.t;
  commits : (int * bool, (int * Eligibility.credential) list) Hashtbl.t;
  mutable proposals : proposal list;
  mutable pending : (int * bool * (int * Eligibility.credential) list) option;
}

type state = {
  me : int;
  input : bool;
  rng : Bacrypto.Rng.t;
  mutable lst : listener option;
      (* [None] while the node is riding a shared listener (sparse mode)
         or before its first step; allocated lazily on first use *)
  mutable out : bool option;
  mutable stopped : bool;
}

let fresh_listener () =
  { best0 = None;
    best1 = None;
    votes = Hashtbl.create 64;
    commits = Hashtbl.create 64;
    proposals = [];
    pending = None }

let listener_of state =
  match state.lst with
  | Some l -> l
  | None ->
      let l = fresh_listener () in
      state.lst <- Some l;
      l

let copy_listener l =
  { l with votes = Hashtbl.copy l.votes; commits = Hashtbl.copy l.commits }

let best_for l bit = if bit then l.best1 else l.best0

let set_best l bit c = if bit then l.best1 <- c else l.best0 <- c

let absorb_cert l = function
  | None -> ()
  | Some c ->
      if Cert.strictly_higher (Some c) ~than:(best_for l c.Cert.bit) then
        set_best l c.Cert.bit (Some c)

let overall_best l =
  if Cert.strictly_higher l.best1 ~than:l.best0 then l.best1 else l.best0

let add_endorsement table key entry =
  let existing = Option.value (Hashtbl.find_opt table key) ~default:[] in
  if List.mem_assoc (fst entry) existing then ()
  else Hashtbl.replace table key (entry :: existing)

let absorb env l ~iter_of_round ~sender msg =
  match msg with
  | Status { cert; _ } -> if valid_cert_opt env cert then absorb_cert l cert
  | Propose p ->
      if valid_proposal env ~iter:iter_of_round p then
        l.proposals <- p :: l.proposals;
      if valid_cert_opt env p.p_cert then absorb_cert l p.p_cert
  | Vote { iter; bit; proposal; cred } ->
      if valid_vote env ~sender ~iter ~bit ~proposal ~cred then begin
        add_endorsement l.votes (iter, bit) (sender, cred);
        (* build the certificate once, when the quorum is first reached *)
        let endorsements = Hashtbl.find l.votes (iter, bit) in
        if List.length endorsements = Params.hm_quorum env.params then
          absorb_cert l (Some (make_cert env ~iter ~bit ~endorsements))
      end
  | Commit { iter; bit; cert; cred } ->
      if valid_commit env ~sender ~iter ~bit ~cert ~cred then begin
        add_endorsement l.commits (iter, bit) (sender, cred);
        absorb_cert l (Some cert);
        let endorsements = Hashtbl.find l.commits (iter, bit) in
        if List.length endorsements >= Params.hm_quorum env.params
           && l.pending = None
        then l.pending <- Some (iter, bit, endorsements)
      end
  | Terminate { iter; bit; commits; cred } ->
      if valid_terminate env ~sender ~iter ~bit ~commits ~cred
         && l.pending = None
      then l.pending <- Some (iter, bit, commits)

(* Conditional multicast: mine the ticket; emit the message on success. *)
let conditionally env state ~kind ~iter ~bit ~build =
  let msg_str, p =
    match kind with
    | `Propose ->
        (interned_mining_string env `Propose ~iter ~bit, propose_probability env)
    | `Terminate -> (interned_terminate_string env ~bit, committee_probability env)
    | (`Status | `Vote | `Commit) as k ->
        (interned_mining_string env k ~iter ~bit, committee_probability env)
  in
  match env.elig.Eligibility.mine ~node:state.me ~msg:msg_str ~p with
  | Some cred -> [ Basim.Engine.multicast (build cred) ]
  | None -> []

let iter_of_phase = function
  | Quadratic_hm.Phase_status i | Quadratic_hm.Phase_propose i
  | Quadratic_hm.Phase_vote i | Quadratic_hm.Phase_commit i ->
      i

let init _env ~rng ~n:_ ~me ~input =
  { me; input; rng; lst = None; out = None; stopped = false }

let step env state ~round ~inbox =
  let l = listener_of state in
  let phase = phase_of_round round in
  let iter = iter_of_phase phase in
  (match phase with
  | Quadratic_hm.Phase_status _ -> l.proposals <- []
  | Quadratic_hm.Phase_propose _ | Quadratic_hm.Phase_vote _
  | Quadratic_hm.Phase_commit _ ->
      ());
  List.iter
    (fun (sender, m) -> absorb env l ~iter_of_round:iter ~sender m)
    inbox;
  match l.pending with
  | Some (t_iter, bit, commits) ->
      state.out <- Some bit;
      state.stopped <- true;
      let sends =
        conditionally env state ~kind:`Terminate ~iter:t_iter ~bit
          ~build:(fun cred -> Terminate { iter = t_iter; bit; commits; cred })
      in
      (state, sends)
  | None ->
      if iter > env.params.Params.max_epochs then begin
        state.stopped <- true;
        (state, [])
      end
      else begin
        let sends =
          match phase with
          | Quadratic_hm.Phase_status _ ->
              let best = overall_best l in
              let bit =
                match best with Some c -> c.Cert.bit | None -> state.input
              in
              conditionally env state ~kind:`Status ~iter ~bit
                ~build:(fun cred -> Status { iter; bit; cert = best; cred })
          | Quadratic_hm.Phase_propose _ ->
              (* One propose mining attempt per iteration, for the bit
                 carrying the node's highest certificate (coin on tie). *)
              let r0 = Cert.rank l.best0 and r1 = Cert.rank l.best1 in
              let bit =
                if r0 > r1 then false
                else if r1 > r0 then true
                else Bacrypto.Rng.bool state.rng
              in
              conditionally env state ~kind:`Propose ~iter ~bit
                ~build:(fun cred ->
                  make_propose ~iter ~bit ~cert:(best_for l bit)
                    ~node:state.me ~cred)
          | Quadratic_hm.Phase_vote _ ->
              if iter = 1 then
                conditionally env state ~kind:`Vote ~iter ~bit:state.input
                  ~build:(fun cred ->
                    make_vote ~iter ~bit:state.input ~proposal:None ~cred)
              else begin
                let bits =
                  List.sort_uniq Bool.compare
                    (List.filter_map
                       (fun p -> if p.p_iter = iter then Some p.p_bit else None)
                       l.proposals)
                in
                match bits with
                | [ b ] ->
                    let p =
                      List.find (fun p -> p.p_iter = iter && p.p_bit = b)
                        l.proposals
                    in
                    if Cert.rank (best_for l (not b)) <= Cert.rank p.p_cert
                    then
                      conditionally env state ~kind:`Vote ~iter ~bit:b
                        ~build:(fun cred ->
                          make_vote ~iter ~bit:b ~proposal:(Some p) ~cred)
                    else []
                | [] | _ :: _ :: _ -> []
              end
          | Quadratic_hm.Phase_commit _ ->
              let votes_for b =
                Option.value (Hashtbl.find_opt l.votes (iter, b)) ~default:[]
              in
              let v0 = votes_for false and v1 = votes_for true in
              let try_commit b vs opposite =
                if List.length vs >= quorum env && opposite = [] then
                  (* a certificate is exactly λ/2 votes; don't ship more *)
                  let vs = List.filteri (fun i _ -> i < quorum env) vs in
                  let cert = make_cert env ~iter ~bit:b ~endorsements:vs in
                  Some
                    (conditionally env state ~kind:`Commit ~iter ~bit:b
                       ~build:(fun cred -> Commit { iter; bit = b; cert; cred }))
                else None
              in
              (match try_commit false v0 v1 with
              | Some sends -> sends
              | None -> (
                  match try_commit true v1 v0 with
                  | Some sends -> sends
                  | None -> []))
        in
        (state, sends)
      end

let protocol ~params ~world =
  let make_env ~n rng =
    match world with
    | `Hybrid ->
        let fmine = Fmine.create rng in
        make_env ~n ~params ~elig:(Eligibility.hybrid fmine) ~pki:None
          ~fmine:(Some fmine)
    | `Real ->
        let pki = Bacrypto.Pki.setup ~n rng in
        make_env ~n ~params ~elig:(Compiler.real_world pki) ~pki:(Some pki)
          ~fmine:None
  in
  let cred_bits env c = env.elig.Eligibility.credential_bits c in
  let cert_bits env c =
    Cert.size_bits c ~endorsement_bits:(fun cr -> cred_bits env cr)
  in
  let proposal_bits env = function
    | None -> 8
    | Some p -> 48 + 32 + cred_bits env p.p_cred + cert_bits env p.p_cert
  in
  let msg_bits env = function
    | Status { cert; cred; _ } -> 48 + cred_bits env cred + cert_bits env cert
    | Propose p -> 48 + 32 + cred_bits env p.p_cred + cert_bits env p.p_cert
    | Vote { proposal; cred; _ } ->
        48 + cred_bits env cred + proposal_bits env proposal
    | Commit { cert; cred; _ } ->
        48 + cred_bits env cred + cert_bits env (Some cert)
    | Terminate { commits; cred; _ } ->
        48 + cred_bits env cred
        + List.fold_left
            (fun acc (_, c) -> acc + 32 + cred_bits env c)
            0 commits
  in
  { Basim.Engine.proto_name =
      (match world with `Hybrid -> "sub-hm" | `Real -> "sub-hm-real");
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits }

let best_certificate state =
  match state.lst with None -> None | Some l -> overall_best l

(* -------------------------------------------------------------------- *)
(* Sparse crowd execution.

   Every message in this protocol is a multicast, so in a round without
   targeted injections all [n] honest nodes receive the {e same} inbox —
   the engine's shared delivery tail. Since listener evolution never
   reads a node's identity, one [absorb] pass over that tail stands in
   for all of them, and the per-node remainder of a step (an input bit,
   at most one rng coin, one eligibility sample) is O(1) allocation-free
   work. A node leaves the crowd — forking a private listener from the
   round-start snapshot — the first time its inbox differs from the
   shared tail, and then runs full dense steps forever after; adversary
   injections are rare (O(corrupt) per round), so the crowd stays
   near-[n] and a round costs O(active) instead of O(n · inbox). *)

type crowd = {
  cl : listener;  (* the listener every undiverged node shares *)
  mutable snapshot : listener;
      (* deep copy of [cl] at the start of the current round: exactly the
         listener a member must privately own if it diverges this round *)
  member : Bytes.t;  (* ['\001'] while node [i] still rides [cl] *)
}

let sparse_step () : (env, state, msg) Basim.Engine.sparse_step =
  let crowd = ref None in
  fun env ~states (rv : msg Basim.Engine.round_view) ->
    let open Basim.Engine in
    let c =
      match !crowd with
      | Some c when rv.rv_round > 0 -> c
      | _ ->
          (* round 0 of a (possibly repeated) run: fresh crowd *)
          let c =
            { cl = fresh_listener ();
              snapshot = fresh_listener ();
              member = Bytes.make rv.rv_n '\001' }
          in
          crowd := Some c;
          c
    in
    c.snapshot <- copy_listener c.cl;
    let phase = phase_of_round rv.rv_round in
    let iter = iter_of_phase phase in
    (* One absorb pass over the shared tail, in delivery order — the same
       sequence every member's private absorb loop would run. *)
    (match phase with
    | Quadratic_hm.Phase_status _ -> c.cl.proposals <- []
    | Quadratic_hm.Phase_propose _ | Quadratic_hm.Phase_vote _
    | Quadratic_hm.Phase_commit _ ->
        ());
    List.iter
      (fun (sender, m) -> absorb env c.cl ~iter_of_round:iter ~sender m)
      rv.rv_shared_inbox;
    let p_committee = committee_probability env in
    let sample st msg_str p build =
      match env.elig.Eligibility.sample ~node:st.me ~msg:msg_str ~p with
      | Some cred -> [ Basim.Engine.multicast (build cred) ]
      | None -> []
    in
    (* The crowd-uniform part of this round's step, decided once; [act]
       finishes the per-member part: input bit, tie coin, eligibility
       sample. Mining strings are hoisted so losing samples allocate
       nothing per member. *)
    let halting =
      match c.cl.pending with
      | Some _ -> true
      | None -> iter > env.params.Params.max_epochs
    in
    let act =
      match c.cl.pending with
      | Some (t_iter, bit, commits) ->
          let ms = interned_terminate_string env ~bit in
          fun st ->
            st.out <- Some bit;
            st.stopped <- true;
            sample st ms p_committee (fun cred ->
                Terminate { iter = t_iter; bit; commits; cred })
      | None ->
          if halting then
            fun st ->
              begin
                st.stopped <- true;
                []
              end
          else begin
            match phase with
            | Quadratic_hm.Phase_status _ -> (
                let best = overall_best c.cl in
                match best with
                | Some cc ->
                    let bit = cc.Cert.bit in
                    let ms = interned_mining_string env `Status ~iter ~bit in
                    fun st ->
                      sample st ms p_committee (fun cred ->
                          Status { iter; bit; cert = best; cred })
                | None ->
                    let ms0 = interned_mining_string env `Status ~iter ~bit:false in
                    let ms1 = interned_mining_string env `Status ~iter ~bit:true in
                    fun st ->
                      let bit = st.input in
                      sample st (if bit then ms1 else ms0) p_committee
                        (fun cred -> Status { iter; bit; cert = None; cred }))
            | Quadratic_hm.Phase_propose _ ->
                let r0 = Cert.rank c.cl.best0 and r1 = Cert.rank c.cl.best1 in
                let p_prop = propose_probability env in
                let for_bit bit st =
                  sample st (interned_mining_string env `Propose ~iter ~bit) p_prop
                    (fun cred ->
                      make_propose ~iter ~bit ~cert:(best_for c.cl bit)
                        ~node:st.me ~cred)
                in
                if r0 > r1 then for_bit false
                else if r1 > r0 then for_bit true
                else
                  (* rank tie: each member flips its own coin, exactly as
                     in the dense step — member rng streams stay aligned *)
                  fun st ->
                  for_bit (Bacrypto.Rng.bool st.rng) st
            | Quadratic_hm.Phase_vote _ ->
                if iter = 1 then begin
                  let ms0 = interned_mining_string env `Vote ~iter ~bit:false in
                  let ms1 = interned_mining_string env `Vote ~iter ~bit:true in
                  fun st ->
                    let bit = st.input in
                    sample st (if bit then ms1 else ms0) p_committee
                      (fun cred -> make_vote ~iter ~bit ~proposal:None ~cred)
                end
                else begin
                  let bits =
                    List.sort_uniq Bool.compare
                      (List.filter_map
                         (fun p -> if p.p_iter = iter then Some p.p_bit else None)
                         c.cl.proposals)
                  in
                  match bits with
                  | [ b ] ->
                      let p =
                        List.find (fun p -> p.p_iter = iter && p.p_bit = b)
                          c.cl.proposals
                      in
                      if Cert.rank (best_for c.cl (not b)) <= Cert.rank p.p_cert
                      then
                        let ms = interned_mining_string env `Vote ~iter ~bit:b in
                        fun st ->
                          sample st ms p_committee (fun cred ->
                              make_vote ~iter ~bit:b ~proposal:(Some p) ~cred)
                      else fun _ -> []
                  | [] | _ :: _ :: _ -> fun _ -> []
                end
            | Quadratic_hm.Phase_commit _ -> (
                let votes_for b =
                  Option.value
                    (Hashtbl.find_opt c.cl.votes (iter, b))
                    ~default:[]
                in
                let v0 = votes_for false and v1 = votes_for true in
                let plan b vs opposite =
                  if List.length vs >= quorum env && opposite = [] then begin
                    let vs = List.filteri (fun i _ -> i < quorum env) vs in
                    let cert = make_cert env ~iter ~bit:b ~endorsements:vs in
                    let ms = interned_mining_string env `Commit ~iter ~bit:b in
                    Some
                      (fun st ->
                        sample st ms p_committee (fun cred ->
                            Commit { iter; bit = b; cert; cred }))
                  end
                  else None
                in
                match plan false v0 v1 with
                | Some f -> f
                | None -> (
                    match plan true v1 v0 with
                    | Some f -> f
                    | None -> fun _ -> []))
          end
    in
    for k = 0 to rv.rv_n_active - 1 do
      let i = rv.rv_active.(k) in
      let st = states.(i) in
      if Bytes.get c.member i = '\001' && rv.rv_is_shared i then begin
        if not st.stopped then begin
          let sends = act st in
          (* Winners and halters announce themselves; a losing sample is
             silent, which is what keeps the round O(emitters + halters)
             on the engine side. *)
          if halting || sends <> [] then rv.rv_emit i sends
        end
      end
      else begin
        if Bytes.get c.member i = '\001' then begin
          (* First delivery that differs from the shared tail: fork a
             private listener from the round-start snapshot and leave the
             crowd for good. *)
          st.lst <- Some (copy_listener c.snapshot);
          Bytes.set c.member i '\000'
        end;
        if not st.stopped then begin
          let st', sends =
            step env st ~round:rv.rv_round ~inbox:(rv.rv_inbox i)
          in
          states.(i) <- st';
          rv.rv_emit i sends
        end
      end
    done
