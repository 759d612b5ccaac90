type mode = Bit_specific | Bit_agnostic

type world = [ `Hybrid | `Real ]

type env = {
  n : int;
  params : Params.t;
  elig : Bafmine.Eligibility.t;
  mode : mode;
  pki : Bacrypto.Pki.t option;
  fmine : Bafmine.Fmine.t option;
  mutable conflicts : int;
}

type msg =
  | Propose of { epoch : int; bit : bool; cred : Bafmine.Eligibility.credential }
  | Ack of { epoch : int; bit : bool; cred : Bafmine.Eligibility.credential }

let msg_kind = function Propose _ -> "propose" | Ack _ -> "ack"

module Iset = Set.Make (Int)

type state = {
  me : int;
  rng : Bacrypto.Rng.t;
  mutable belief : bool;
  mutable sticky : bool;
  mutable out : bool option;
  mutable stopped : bool;
}

let ack_mining_string mode ~epoch ~bit =
  match mode with
  | Bit_specific ->
      Bafmine.Eligibility.mining_msg ~tag:"sub3:ACK" ~iter:epoch ~bit:(Some bit)
  | Bit_agnostic ->
      Bafmine.Eligibility.mining_msg ~tag:"sub3:ACK" ~iter:epoch ~bit:None

let propose_mining_string ~epoch ~bit =
  Bafmine.Eligibility.mining_msg ~tag:"sub3:Propose" ~iter:epoch ~bit:(Some bit)

let ack_probability env = Params.ack_probability env.params ~n:env.n

let propose_probability env = Params.propose_probability ~n:env.n

let make_ack ~epoch ~bit ~cred = Ack { epoch; bit; cred }

let make_propose ~epoch ~bit ~cred = Propose { epoch; bit; cred }

let verify_msg env ~sender = function
  | Propose { epoch; bit; cred } ->
      env.elig.Bafmine.Eligibility.verify ~node:sender
        ~msg:(propose_mining_string ~epoch ~bit)
        ~p:(propose_probability env) cred
  | Ack { epoch; bit; cred } ->
      env.elig.Bafmine.Eligibility.verify ~node:sender
        ~msg:(ack_mining_string env.mode ~epoch ~bit)
        ~p:(ack_probability env) cred

(* Tally the previous epoch's ACKs: "ample ACKs" = 2λ/3 valid ACKs from
   distinct nodes for the same bit. *)
let tally (env : env) (state : state) ~prev_epoch ~inbox =
  let quorum = Params.third_quorum env.params in
  let ackers_for target =
    List.fold_left
      (fun acc (sender, m) ->
        match m with
        | Ack { epoch; bit; _ }
          when epoch = prev_epoch && bit = target && verify_msg env ~sender m ->
            Iset.add sender acc
        | Ack _ | Propose _ -> acc)
      Iset.empty inbox
  in
  let ample b = Iset.cardinal (ackers_for b) >= quorum in
  match (ample false, ample true) with
  | true, false ->
      state.belief <- false;
      state.sticky <- true
  | false, true ->
      state.belief <- true;
      state.sticky <- true
  | true, true ->
      (* Within-epoch consistency broken (possible only past the
         resilience bound or in Bit_agnostic mode under attack) — the
         event the §3.3 Remark describes.  Counted once per observing
         node per epoch. *)
      env.conflicts <- env.conflicts + 1;
      state.sticky <- true
  | false, false -> state.sticky <- false

let choose_ack (env : env) (state : state) ~epoch ~inbox =
  let proposals =
    List.filter_map
      (fun (sender, m) ->
        match m with
        | Propose { epoch = e; bit; _ } when e = epoch && verify_msg env ~sender m ->
            Some bit
        | Propose _ | Ack _ -> None)
      inbox
  in
  if state.sticky then state.belief
  else
    match List.sort_uniq Bool.compare proposals with
    | [] -> state.belief
    | [ b ] -> b
    | _ :: _ -> false (* conflicting proposals: arbitrary bit *)

let protocol ~params ~world ~mode =
  let make_env ~n rng =
    match world with
    | `Hybrid ->
        let fmine = Bafmine.Fmine.create rng in
        { n;
          params;
          elig = Bafmine.Eligibility.hybrid fmine;
          mode;
          pki = None;
          fmine = Some fmine;
          conflicts = 0 }
    | `Real ->
        let pki = Bacrypto.Pki.setup ~n rng in
        { n;
          params;
          elig = Bafmine.Compiler.real_world pki;
          mode;
          pki = Some pki;
          fmine = None;
          conflicts = 0 }
  in
  let init _env ~rng ~n:_ ~me ~input =
    { me; rng; belief = input; sticky = true; out = None; stopped = false }
  in
  let step env state ~round ~inbox =
    let epoch = round / 2 in
    if epoch >= env.params.Params.max_epochs then begin
      (* Output the converged belief.  (The §3.1 text says "the bit last
         ACKed"; in the subsampled protocol most nodes never win an ACK
         ticket, so the belief — which every node updates on ample ACKs —
         is the meaningful generalization.  After a good epoch the two
         coincide for committee members.) *)
      state.out <- Some state.belief;
      state.stopped <- true;
      (state, [])
    end
    else if round mod 2 = 0 then begin
      if epoch > 0 then tally env state ~prev_epoch:(epoch - 1) ~inbox;
      (* One propose mining attempt per epoch: flip a coin, mine for it. *)
      let coin = Bacrypto.Rng.bool state.rng in
      let sends =
        match
          env.elig.Bafmine.Eligibility.mine ~node:state.me
            ~msg:(propose_mining_string ~epoch ~bit:coin)
            ~p:(propose_probability env)
        with
        | Some cred ->
            [ Basim.Engine.multicast (make_propose ~epoch ~bit:coin ~cred) ]
        | None -> []
      in
      (state, sends)
    end
    else begin
      let bit = choose_ack env state ~epoch ~inbox in
      let sends =
        match
          env.elig.Bafmine.Eligibility.mine ~node:state.me
            ~msg:(ack_mining_string env.mode ~epoch ~bit)
            ~p:(ack_probability env)
        with
        | Some cred -> [ Basim.Engine.multicast (make_ack ~epoch ~bit ~cred) ]
        | None -> []
      in
      (state, sends)
    end
  in
  let msg_bits env m =
    let cred_bits =
      match m with
      | Propose { cred; _ } | Ack { cred; _ } ->
          env.elig.Bafmine.Eligibility.credential_bits cred
    in
    48 + cred_bits
  in
  { Basim.Engine.proto_name =
      (match mode with
      | Bit_specific -> "sub-third"
      | Bit_agnostic -> "sub-third-bit-agnostic");
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits }

let belief s = s.belief
