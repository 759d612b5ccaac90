type record = { outcome : bool; prob : float }

type t = {
  coin_key : Bacrypto.Prf.cached; (* hidden; drives the Bernoulli coins *)
  table : (int * string, record) Hashtbl.t;
  mutable successes : int;
  mutable sampled_losses : int;
      (* losing [sample] attempts, which are counted but NOT memoized:
         the sparse engine path probes every active node per round, and
         memoizing the losers would grow the table by O(n) per round —
         the exact heap growth the memory-flatness gate forbids *)
}

let create rng =
  { coin_key = Bacrypto.Prf.cache (Bacrypto.Prf.gen rng);
    table = Hashtbl.create 1024;
    successes = 0;
    sampled_losses = 0 }

(* The one coin-and-lookup path behind [mine] and [sample]: a recorded
   attempt answers from the table; a fresh one flips the PRF coin, and
   only a winner — or, with [~memo_losses], any outcome — is recorded.
   Losers left out of the table are tallied in [sampled_losses], so
   [attempts] still counts every coin flipped. *)
let attempt t ~caller ~memo_losses ~node ~msg ~p =
  match Hashtbl.find_opt t.table (node, msg) with
  | Some r ->
      if r.prob <> p then
        invalid_arg (caller ^ ": same (node, msg) mined with a different p");
      r.outcome
  | None ->
      (* Same bytes as [Printf.sprintf "%d|%s" node msg], minus the
         format-string interpreter on the hot mining path. *)
      let rho =
        Bacrypto.Prf.eval_cached t.coin_key (string_of_int node ^ "|" ^ msg)
      in
      let outcome = Bacrypto.Prf.below_difficulty rho ~p in
      if outcome || memo_losses then
        Hashtbl.replace t.table (node, msg) { outcome; prob = p };
      if outcome then t.successes <- t.successes + 1
      else if not memo_losses then t.sampled_losses <- t.sampled_losses + 1;
      outcome

let mine t ~node ~msg ~p =
  attempt t ~caller:"Fmine.mine" ~memo_losses:true ~node ~msg ~p

(* Identical coin to [mine] (same PRF, so [sample] and [mine] can never
   disagree on an outcome), but only {e winners} enter the table. Sound
   because [verify] answers [false] for absent entries and a losing
   attempt never yields a credential anyone could present — exactly
   Figure 1's "unattempted mines verify as 0" read. *)
let sample t ~node ~msg ~p =
  attempt t ~caller:"Fmine.sample" ~memo_losses:false ~node ~msg ~p

let verify t ~node ~msg =
  match Hashtbl.find_opt t.table (node, msg) with
  | Some r -> r.outcome
  | None -> false

let verify_batch t entries =
  List.map (fun (node, msg) -> verify t ~node ~msg) entries

let attempts t = Hashtbl.length t.table + t.sampled_losses

let successes t = t.successes

let dump t = Hashtbl.fold (fun key r acc -> (key, r.outcome) :: acc) t.table []

let successes_for t ~prefix =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun (_, msg) r acc ->
      if
        r.outcome && String.length msg >= plen
        && String.equal (String.sub msg 0 plen) prefix
      then acc + 1
      else acc)
    t.table 0
