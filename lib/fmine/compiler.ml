open Bacrypto

let real_world pki =
  let params = Pki.params pki in
  let check_one ~msg ~p node ev =
    Prf.below_difficulty ev.Vrf.rho ~p
    && Vrf.verify params (Pki.public_key pki node) msg ev
  in
  let mine ~node ~msg ~p =
    let ev = Vrf.eval params (Pki.secret_key pki node) msg in
    if Prf.below_difficulty ev.Vrf.rho ~p then
      Some (Eligibility.Vrf_credential ev)
    else None
  in
  { Eligibility.world = `Real;
    mine;
    (* VRF mining keeps no per-attempt state, so sampling is mining. *)
    sample = mine;
    verify =
      (fun ~node ~msg ~p -> function
        | Eligibility.Ideal_ticket -> false
        | Eligibility.Vrf_credential ev -> check_one ~msg ~p node ev);
    verify_many =
      (fun ~msg ~p entries ->
        (* Difficulty is a pure comparison; only entries that pass it pay
           a proof check, and those run as one amortized NIZK sweep. *)
        let tagged =
          List.map
            (fun (node, cred) ->
              match cred with
              | Eligibility.Ideal_ticket -> `No
              | Eligibility.Vrf_credential ev ->
                  if Prf.below_difficulty ev.Vrf.rho ~p then
                    `Check (Pki.public_key pki node, msg, ev)
                  else `No)
            entries
        in
        let checks =
          List.filter_map (function `Check c -> Some c | `No -> None) tagged
        in
        let oks = ref (Vrf.verify_batch params checks) in
        List.map
          (function
            | `No -> false
            | `Check _ -> (
                match !oks with
                | ok :: rest ->
                    oks := rest;
                    ok
                | [] -> assert false))
          tagged);
    credential_bits =
      (function
        | Eligibility.Ideal_ticket -> 0
        | Eligibility.Vrf_credential ev -> Vrf.evaluation_bits ev) }

let hybrid_from_pki pki =
  (* Same Bernoulli lottery as the real world (PRF of the node's actual
     key), but credentials are ideal tickets and verification consults the
     functionality's own mined-set table, as in Figure 1. *)
  let mined : (int * string, bool) Hashtbl.t = Hashtbl.create 1024 in
  let lookup node msg =
    match Hashtbl.find_opt mined (node, msg) with Some o -> o | None -> false
  in
  (* One coin-and-lookup path for [mine] and [sample]; [sample] records
     winners only, as in [Fmine.sample]. *)
  let attempt ~memo_losses ~node ~msg ~p =
    let outcome =
      match Hashtbl.find_opt mined (node, msg) with
      | Some o -> o
      | None ->
          let sk = Pki.secret_key pki node in
          let o =
            Prf.below_difficulty (Prf.eval_cached sk.Vrf.prf_cached msg) ~p
          in
          if o || memo_losses then Hashtbl.replace mined (node, msg) o;
          o
    in
    if outcome then Some Eligibility.Ideal_ticket else None
  in
  { Eligibility.world = `Hybrid;
    mine = attempt ~memo_losses:true;
    sample = attempt ~memo_losses:false;
    verify =
      (fun ~node ~msg ~p:_ -> function
        | Eligibility.Ideal_ticket -> lookup node msg
        | Eligibility.Vrf_credential _ -> false);
    verify_many =
      (fun ~msg ~p:_ entries ->
        List.map
          (fun (node, cred) ->
            match cred with
            | Eligibility.Ideal_ticket -> lookup node msg
            | Eligibility.Vrf_credential _ -> false)
          entries);
    credential_bits = (fun _ -> 0) }

let paired pki = (hybrid_from_pki pki, real_world pki)
