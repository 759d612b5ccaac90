type t =
  | Setup_corruption
  | Midround_corruption
  | After_fact_removal
  | Injection

let all = [ Setup_corruption; Midround_corruption; After_fact_removal; Injection ]

let name = function
  | Setup_corruption -> "setup-corruption"
  | Midround_corruption -> "midround-corruption"
  | After_fact_removal -> "after-fact-removal"
  | Injection -> "injection"

type decl = { caps : t list; budget_bound : int option }

let has decl cap = List.mem cap decl.caps

let none = { caps = []; budget_bound = Some 0 }

let unrestricted = { caps = all; budget_bound = None }

type mismatch =
  | Removal_not_allowed of Corruption.model
  | Midround_not_allowed of Corruption.model
  | Bound_exceeds_budget of { bound : int; budget : int }

let validate decl ~model ~budget =
  let mismatches = ref [] in
  let add m = mismatches := m :: !mismatches in
  if has decl After_fact_removal && not (Corruption.allows_removal model) then
    add (Removal_not_allowed model);
  if
    has decl Midround_corruption
    && not (Corruption.allows_dynamic_corruption model)
  then add (Midround_not_allowed model);
  (match decl.budget_bound with
  | Some bound when bound > budget -> add (Bound_exceeds_budget { bound; budget })
  | Some _ | None -> ());
  List.rev !mismatches

let mismatch_to_string = function
  | Removal_not_allowed model ->
      Printf.sprintf
        "declares after-fact-removal but the %s model forbids removal"
        (Corruption.to_string model)
  | Midround_not_allowed model ->
      Printf.sprintf
        "declares midround-corruption but the %s model corrupts only at setup"
        (Corruption.to_string model)
  | Bound_exceeds_budget { bound; budget } ->
      Printf.sprintf "declared budget bound %d exceeds the granted budget %d"
        bound budget
