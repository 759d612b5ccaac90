open Bacore

type env = {
  n : int;
  params : Params.t;
  elig : Bafmine.Eligibility.t;
  fs : Bacrypto.Forward_secure.scheme;
  erasure : bool;
  fmine : Bafmine.Fmine.t option;
  mutable conflicts : int;
}

type msg =
  | Propose of { epoch : int; bit : bool; cred : Bafmine.Eligibility.credential }
  | Ack of {
      epoch : int;
      bit : bool;
      cred : Bafmine.Eligibility.credential;
      fs_sig : Bacrypto.Forward_secure.tag;
    }

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

let ack_mining_string ~epoch = Printf.sprintf "cm:ACK:%d" epoch

let propose_mining_string ~epoch ~bit =
  Printf.sprintf "cm:Propose:%d:%d" epoch (if bit then 1 else 0)

let ack_bit_stmt ~epoch ~bit =
  Printf.sprintf "cm:ackbit:%d:%d" epoch (if bit then 1 else 0)

let ack_probability env = Params.ack_probability env.params ~n:env.n

let propose_probability env = Params.propose_probability ~n:env.n

let make_ack ~epoch ~bit ~cred ~fs_sig = Ack { epoch; bit; cred; fs_sig }

let verify_msg (env : env) ~sender = function
  | Propose { epoch; bit; cred } ->
      env.elig.Bafmine.Eligibility.verify ~node:sender
        ~msg:(propose_mining_string ~epoch ~bit)
        ~p:(propose_probability env) cred
  | Ack { epoch; bit; cred; fs_sig } ->
      (* Round-specific ticket plus a slot signature binding the bit. *)
      env.elig.Bafmine.Eligibility.verify ~node:sender
        ~msg:(ack_mining_string ~epoch) ~p:(ack_probability env) cred
      && Bacrypto.Forward_secure.verify env.fs ~signer:sender ~slot:epoch
           (ack_bit_stmt ~epoch ~bit) fs_sig

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
    | _ :: _ -> false

let protocol ~params ~erasure =
  let make_env ~n rng =
    let fmine = Bafmine.Fmine.create rng in
    { n;
      params;
      elig = Bafmine.Eligibility.hybrid fmine;
      fs = Bacrypto.Forward_secure.setup ~n rng;
      erasure;
      fmine = Some fmine;
      conflicts = 0 }
  in
  let init _env ~rng ~n:_ ~me ~input =
    { me; rng; belief = input; sticky = true; out = None; stopped = false }
  in
  let step env state ~round ~inbox =
    let epoch = round / 2 in
    if epoch >= env.params.Params.max_epochs then begin
      state.out <- Some state.belief;
      state.stopped <- true;
      (state, [])
    end
    else if round mod 2 = 0 then begin
      if epoch > 0 then tally env state ~prev_epoch:(epoch - 1) ~inbox;
      let coin = Bacrypto.Rng.bool state.rng in
      let sends =
        match
          env.elig.Bafmine.Eligibility.mine ~node:state.me
            ~msg:(propose_mining_string ~epoch ~bit:coin)
            ~p:(propose_probability env)
        with
        | Some cred -> [ Basim.Engine.multicast (Propose { epoch; bit = coin; cred }) ]
        | None -> []
      in
      (state, sends)
    end
    else begin
      let bit = choose_ack env state ~epoch ~inbox in
      let sends =
        match
          env.elig.Bafmine.Eligibility.mine ~node:state.me
            ~msg:(ack_mining_string ~epoch) ~p:(ack_probability env)
        with
        | Some cred ->
            let fs_sig =
              Bacrypto.Forward_secure.sign env.fs ~signer:state.me ~slot:epoch
                (ack_bit_stmt ~epoch ~bit)
            in
            [ Basim.Engine.multicast (make_ack ~epoch ~bit ~cred ~fs_sig) ]
        | None -> []
      in
      (* The ephemeral-key discipline: erase the slot key atomically with
         the send, before the adversary can corrupt us this round. *)
      if env.erasure then
        Bacrypto.Forward_secure.update env.fs ~signer:state.me ~slot:(epoch + 1);
      (state, sends)
    end
  in
  let msg_bits env m =
    let cred_bits c = env.elig.Bafmine.Eligibility.credential_bits c in
    match m with
    | Propose { cred; _ } -> 48 + cred_bits cred
    | Ack { cred; _ } -> 48 + cred_bits cred + 256
  in
  { Basim.Engine.proto_name =
      (if erasure then "chen-micali" else "chen-micali-no-erasure");
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits }
