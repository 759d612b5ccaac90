type credential =
  | Ideal_ticket
  | Vrf_credential of Bacrypto.Vrf.evaluation

type t = {
  world : [ `Hybrid | `Real ];
  mine : node:int -> msg:string -> p:float -> credential option;
  sample : node:int -> msg:string -> p:float -> credential option;
  verify : node:int -> msg:string -> p:float -> credential -> bool;
  verify_many : msg:string -> p:float -> (int * credential) list -> bool list;
  credential_bits : credential -> int;
}

let hybrid fmine =
  { world = `Hybrid;
    mine =
      (fun ~node ~msg ~p ->
        if Fmine.mine fmine ~node ~msg ~p then Some Ideal_ticket else None);
    sample =
      (fun ~node ~msg ~p ->
        if Fmine.sample fmine ~node ~msg ~p then Some Ideal_ticket else None);
    verify =
      (fun ~node ~msg ~p:_ -> function
        | Ideal_ticket -> Fmine.verify fmine ~node ~msg
        | Vrf_credential _ -> false);
    verify_many =
      (fun ~msg ~p:_ entries ->
        (* One batched lookup for the whole quorum check; the lookup for
           a [Vrf_credential] entry is discarded (read-only, harmless). *)
        let oks =
          Fmine.verify_batch fmine
            (List.map (fun (node, _) -> (node, msg)) entries)
        in
        List.map2
          (fun (_, cred) ok ->
            match cred with Ideal_ticket -> ok | Vrf_credential _ -> false)
          entries oks);
    credential_bits =
      (function Ideal_ticket -> 0 | Vrf_credential ev -> Bacrypto.Vrf.evaluation_bits ev) }

let mining_msg ~tag ~iter ~bit =
  match bit with
  | Some b -> Printf.sprintf "%s:%d:%d" tag iter (if b then 1 else 0)
  | None -> Printf.sprintf "%s:%d" tag iter
