open Basim
open Bacore

let passive () = Engine.passive ~name:"passive" ~model:Corruption.Adaptive

(* Protocol records whose environments share one PKI, with the two coupled
   eligibility oracles of Compiler.paired. *)
let coupled_protocols ~params ~n ~pki_seed =
  let pki = Bacrypto.Pki.setup ~n (Bacrypto.Rng.create pki_seed) in
  let hybrid_elig, real_elig = Bafmine.Compiler.paired pki in
  let base = Sub_hm.protocol ~params ~world:`Hybrid in
  let with_env elig pki_opt =
    { base with
      Engine.make_env =
        (fun ~n:n' _rng ->
          Sub_hm.make_env ~n:n' ~params ~elig ~pki:pki_opt ~fmine:None) }
  in
  (with_env hybrid_elig None, with_env real_elig (Some pki))

let run ?(reps = 5) ?(seed = 110L) () =
  let n = 61 in
  let params = Params.make ~lambda:24 ~max_epochs:40 () in
  let table =
    Bastats.Table.create
      ~title:
        (Printf.sprintf
           "E9 (App. D/E): Fmine-hybrid vs compiled real world over one PKI \
            (n = %d, λ = 24, paired lotteries, same seeds)"
           n)
      ~columns:
        [ "trial"; "same output"; "same rounds"; "same multicasts";
          "hybrid kbits"; "real kbits"; "proof overhead" ]
  in
  let identical = ref 0 in
  for k = 0 to reps - 1 do
    let s = Common.seed_of seed k in
    let hybrid, real =
      coupled_protocols ~params ~n ~pki_seed:(Common.seed_of seed (1000 + k))
    in
    let inputs = Scenario.random_inputs ~n s in
    let run_world proto =
      Engine.run proto ~adversary:(passive ()) ~n ~budget:0 ~inputs
        ~max_rounds:170 ~seed:s
    in
    let rh = run_world hybrid and rr = run_world real in
    let same_output = rh.Engine.outputs = rr.Engine.outputs in
    let same_rounds = rh.Engine.rounds_used = rr.Engine.rounds_used in
    let mh = Metrics.honest_multicasts rh.Engine.metrics in
    let mr = Metrics.honest_multicasts rr.Engine.metrics in
    let bh = Metrics.honest_multicast_bits rh.Engine.metrics in
    let br = Metrics.honest_multicast_bits rr.Engine.metrics in
    if same_output && same_rounds && mh = mr then incr identical;
    Bastats.Table.add_row table
      [ string_of_int (k + 1);
        string_of_bool same_output;
        string_of_bool same_rounds;
        Printf.sprintf "%b (%d vs %d)" (mh = mr) mh mr;
        Bastats.Table.fmt_float (float_of_int bh /. 1000.0);
        Bastats.Table.fmt_float (float_of_int br /. 1000.0);
        Printf.sprintf "%.1fx" (float_of_int br /. float_of_int (max 1 bh)) ]
  done;
  Bastats.Table.add_note table
    (Printf.sprintf
       "%d/%d paired executions fully transcript-equivalent: the Appendix-D \
        compiler changes only the credential bytes on the wire, never the \
        elections or the decision."
       !identical reps);
  [ table ]
