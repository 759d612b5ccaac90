(* [kctxs.(i)] is [keys.(i)] with the HMAC pad midstates precomputed;
   [keys] is kept as raw bytes for {!corrupt_key}. *)
type scheme = { keys : string array; kctxs : Hmac.key_ctx array }

type tag = string

let setup ~n rng =
  let keys = Array.init n (fun _ -> Prf.gen rng) in
  { keys; kctxs = Array.map (fun key -> Hmac.precompute ~key) keys }

let n scheme = Array.length scheme.keys

let check_range scheme i =
  if i < 0 || i >= Array.length scheme.keys then
    invalid_arg "Signature: signer out of range"

let mac scheme ~signer msg =
  Hmac.mac_concat_with scheme.kctxs.(signer) [ "sig"; msg ]

let sign scheme ~signer msg =
  check_range scheme signer;
  mac scheme ~signer msg

let verify scheme ~signer msg tag =
  check_range scheme signer;
  Hmac.equal tag (mac scheme ~signer msg)

let verify_batch scheme entries =
  List.iter (fun (signer, _, _) -> check_range scheme signer) entries;
  let macs =
    Hmac.mac_concat_batch
      (List.map
         (fun (signer, msg, _) -> (scheme.kctxs.(signer), [ "sig"; msg ]))
         entries)
  in
  List.map2 (fun (_, _, tag) mac -> Hmac.equal tag mac) entries macs

let corrupt_key scheme i =
  check_range scheme i;
  scheme.keys.(i)

let tag_bits = 32 * 8
