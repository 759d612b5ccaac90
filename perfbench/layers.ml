open Basim
open Bacore

type span =
  | Run
  | Make_env
  | Adv_setup
  | Init
  | Step
  | Sparse_hook
  | Msg_bits
  | Mine
  | Sample
  | Verify
  | Verify_many
  | Intervene
  | Tracer

let all_spans =
  [ Run; Make_env; Adv_setup; Init; Step; Sparse_hook; Msg_bits; Mine; Sample;
    Verify; Verify_many; Intervene; Tracer ]

let n_spans = List.length all_spans

let index = function
  | Run -> 0
  | Make_env -> 1
  | Adv_setup -> 2
  | Init -> 3
  | Step -> 4
  | Sparse_hook -> 5
  | Msg_bits -> 6
  | Mine -> 7
  | Sample -> 8
  | Verify -> 9
  | Verify_many -> 10
  | Intervene -> 11
  | Tracer -> 12

let span_name = function
  | Run -> "basim.run"
  | Make_env -> "bacore.make_env"
  | Adv_setup -> "baattacks.setup"
  | Init -> "bacore.init"
  | Step -> "bacore.step"
  | Sparse_hook -> "bacore.sparse_hook"
  | Msg_bits -> "bacore.msg_bits"
  | Mine -> "bafmine.mine"
  | Sample -> "bafmine.sample"
  | Verify -> "bafmine.verify"
  | Verify_many -> "bafmine.verify_many"
  | Intervene -> "baattacks.intervene"
  | Tracer -> "baobs.tracer"

type row = {
  mutable instances : int;
  mutable ns : int;
  row_self_ns : int array;
  mutable minor_words : float;
}

type t = {
  self : int array;
  count : int array;
  (* Time covered by the closed children of the innermost open span. *)
  mutable child_ns : int;
  mutable mine_wins : int;
  mutable sample_wins : int;
  mutable corrupt : int;
  mutable inject : int;
  mutable remove : int;
  mutable env : Sub_hm.env option;
  (* Per-round breakdown: where the open row started. *)
  mutable row_t0 : int;
  row_self0 : int array;
  mutable row_minor0 : float;
  rows : (int, row) Hashtbl.t;
}

let create () =
  { self = Array.make n_spans 0;
    count = Array.make n_spans 0;
    child_ns = 0;
    mine_wins = 0;
    sample_wins = 0;
    corrupt = 0;
    inject = 0;
    remove = 0;
    env = None;
    row_t0 = 0;
    row_self0 = Array.make n_spans 0;
    row_minor0 = 0.;
    rows = Hashtbl.create 64 }

let close t k saved t0 =
  let d = Clock.now_ns () - t0 in
  t.self.(k) <- t.self.(k) + d - t.child_ns;
  t.count.(k) <- t.count.(k) + 1;
  t.child_ns <- saved + d

let time t span f =
  let k = index span in
  let saved = t.child_ns in
  t.child_ns <- 0;
  let t0 = Clock.now_ns () in
  match f () with
  | r ->
      close t k saved t0;
      r
  | exception e ->
      close t k saved t0;
      raise e

let self_ns t span = t.self.(index span)

let calls t span = t.count.(index span)

let mine_wins t = t.mine_wins

let sample_wins t = t.sample_wins

let actions t = (t.corrupt, t.inject, t.remove)

let last_env t = t.env

let rows t =
  Hashtbl.fold (fun r row acc -> (r, row) :: acc) t.rows []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let open_rounds t =
  t.row_t0 <- Clock.now_ns ();
  Array.blit t.self 0 t.row_self0 0 n_spans;
  t.row_minor0 <- Gc.minor_words ()

let close_row t round =
  let now = Clock.now_ns () in
  let minor = Gc.minor_words () in
  let row =
    match Hashtbl.find_opt t.rows round with
    | Some row -> row
    | None ->
        let row =
          { instances = 0; ns = 0; row_self_ns = Array.make n_spans 0;
            minor_words = 0. }
        in
        Hashtbl.replace t.rows round row;
        row
  in
  row.instances <- row.instances + 1;
  row.ns <- row.ns + (now - t.row_t0);
  for k = 0 to n_spans - 1 do
    row.row_self_ns.(k) <- row.row_self_ns.(k) + t.self.(k) - t.row_self0.(k)
  done;
  row.minor_words <- row.minor_words +. (minor -. t.row_minor0);
  Array.blit t.self 0 t.row_self0 0 n_spans;
  t.row_t0 <- now;
  t.row_minor0 <- minor

let elig t (e : Bafmine.Eligibility.t) =
  { e with
    Bafmine.Eligibility.mine =
      (fun ~node ~msg ~p ->
        let r = time t Mine (fun () -> e.mine ~node ~msg ~p) in
        if Option.is_some r then t.mine_wins <- t.mine_wins + 1;
        r);
    sample =
      (fun ~node ~msg ~p ->
        let r = time t Sample (fun () -> e.sample ~node ~msg ~p) in
        if Option.is_some r then t.sample_wins <- t.sample_wins + 1;
        r);
    verify =
      (fun ~node ~msg ~p c -> time t Verify (fun () -> e.verify ~node ~msg ~p c));
    verify_many =
      (fun ~msg ~p entries ->
        time t Verify_many (fun () -> e.verify_many ~msg ~p entries)) }

let protocol t (proto : (Sub_hm.env, Sub_hm.state, Sub_hm.msg) Engine.protocol) =
  { proto with
    Engine.make_env =
      (fun ~n rng ->
        let env = time t Make_env (fun () -> proto.make_env ~n rng) in
        let env = { env with Sub_hm.elig = elig t env.Sub_hm.elig } in
        t.env <- Some env;
        env);
    init =
      (fun env ~rng ~n ~me ~input ->
        time t Init (fun () -> proto.init env ~rng ~n ~me ~input));
    step =
      (fun env st ~round ~inbox ->
        time t Step (fun () -> proto.step env st ~round ~inbox));
    msg_bits = (fun env m -> time t Msg_bits (fun () -> proto.msg_bits env m)) }

let sparse t hook env ~states rv =
  time t Sparse_hook (fun () -> hook env ~states rv)

let adversary t (adv : (Sub_hm.env, Sub_hm.msg) Engine.adversary) =
  { adv with
    Engine.setup =
      (fun env ~n ~budget ~rng ->
        time t Adv_setup (fun () -> adv.setup env ~n ~budget ~rng));
    intervene =
      (fun view ->
        let acts = time t Intervene (fun () -> adv.intervene view) in
        List.iter
          (function
            | Engine.Corrupt _ -> t.corrupt <- t.corrupt + 1
            | Engine.Inject _ -> t.inject <- t.inject + 1
            | Engine.Remove _ -> t.remove <- t.remove + 1)
          acts;
        close_row t view.Engine.round;
        acts) }

let tracer t sink ev = time t Tracer (fun () -> sink ev)
