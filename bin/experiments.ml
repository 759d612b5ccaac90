(* CLI for the experiment suite: runs E1–E9 (or a chosen one) and prints
   the tables recorded in EXPERIMENTS.md. *)

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced repetitions (smoke run).")

let only =
  Arg.(
    value
    & opt (some string) None
    & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1, E1b, … E11).")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let json_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write every produced table to $(docv) as JSON.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run Monte-Carlo trials on $(docv) domains (default: BA_JOBS or \
           the machine's recommended domain count). Every table and the \
           --json document are byte-identical for every $(docv).")

let main quick only list_flag json_path jobs =
  if list_flag then begin
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n" e.Baexperiments.All.id e.Baexperiments.All.claim)
      Baexperiments.All.experiments;
    0
  end
  else
    match only with
    | None ->
        Baexperiments.All.run_all ~quick ?jobs ?json_path ();
        0
    | Some id ->
        if Baexperiments.All.run_one ~quick ?jobs ?json_path id then 0
        else begin
          Printf.eprintf "unknown experiment %S (try --list)\n" id;
          1
        end

let cmd =
  let doc =
    "Regenerate the evaluation of 'Communication Complexity of Byzantine \
     Agreement, Revisited' (PODC 2019)"
  in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const main $ quick $ only $ list_flag $ json_path $ jobs)

let () = exit (Cmd.eval' cmd)
