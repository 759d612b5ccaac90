type params = { crs_comm : Commitment.crs; crs_nizk : Nizk.crs }

type sk = {
  index : int;
  prf_key : Prf.key;
  prf_cached : Prf.cached;
  salt : string;
}

type pk = { pk_index : int; com : Commitment.t }

type evaluation = { rho : string; proof : Nizk.proof }

let keygen params rng ~index =
  let prf_key = Prf.gen rng in
  let salt = Commitment.fresh_salt rng in
  let com = Commitment.commit params.crs_comm ~value:prf_key ~salt in
  ({ index; prf_key; prf_cached = Prf.cache prf_key; salt },
   { pk_index = index; com })

let statement params ~com ~rho ~msg =
  { Nizk.rho;
    com;
    crs_comm = Commitment.crs_to_string params.crs_comm;
    msg }

let eval params sk msg =
  let rho = Prf.eval_cached sk.prf_cached msg in
  let com = Commitment.commit params.crs_comm ~value:sk.prf_key ~salt:sk.salt in
  let stmt = statement params ~com ~rho ~msg in
  let witness = { Nizk.sk = sk.prf_key; salt = sk.salt } in
  { rho; proof = Nizk.prove params.crs_nizk params.crs_comm stmt witness }

let verify params pk msg ev =
  Nizk.verify params.crs_nizk (statement params ~com:pk.com ~rho:ev.rho ~msg)
    ev.proof

let verify_batch params entries =
  Nizk.verify_batch params.crs_nizk
    (List.map
       (fun (pk, msg, ev) ->
         (statement params ~com:pk.com ~rho:ev.rho ~msg, ev.proof))
       entries)

let output_fraction ev = Prf.output_fraction ev.rho

let evaluation_bits ev = (String.length ev.rho * 8) + Nizk.proof_bits ev.proof
