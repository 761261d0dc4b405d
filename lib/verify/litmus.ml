open Ccal_core
module L = Ccal_machine.Litmus

type report = {
  name : string;
  memory : Memory.t;
  observed : int list list;  (** reachable outcome tuples, sorted distinct *)
  expected : int list list;
  errors : string list;  (** extraction failures; must be empty *)
  schedules : int;  (** surviving DPOR prefixes replayed *)
}

let ok r = r.errors = [] && r.observed = r.expected

(* TSO-only outcomes a mode actually reached / missed — for reporting. *)
let extra r = List.filter (fun o -> not (List.mem o r.expected)) r.observed
let missing r = List.filter (fun o -> not (List.mem o r.observed)) r.expected

let run_test ~ctx (t : L.test) =
  let memory = ctx.Ctx.memory in
  let layer = Ccal_machine.Tso.machine_layer memory in
  let result =
    Budget.value
      (Dpor.explore_ctx ~ctx ~independence:Dpor.Commuting_events
         ~depth:t.L.depth layer t.L.threads)
  in
  let observed, errors =
    List.fold_left
      (fun (obs, errs) (o : Game.outcome) ->
        match o.Game.status with
        | Game.All_done -> (
          match t.L.observe o with
          | Ok tuple -> tuple :: obs, errs
          | Error e -> obs, e :: errs)
        | status -> obs, Format.asprintf "%a" Game.pp_status status :: errs)
      ([], []) result.Dpor.outcomes
  in
  {
    name = t.L.name;
    memory;
    observed = List.sort_uniq compare observed;
    expected = L.expected memory t;
    errors = List.sort_uniq compare errors;
    schedules = List.length result.Dpor.outcomes;
  }

let pp_report fmt r =
  let pp_set fmt os =
    Format.fprintf fmt "{%s}"
      (String.concat " "
         (List.map (Format.asprintf "%a" L.pp_outcome) os))
  in
  Format.fprintf fmt "%-10s %-4s %-4s observed=%a" r.name
    (Memory.to_string r.memory)
    (if ok r then "ok" else "FAIL")
    pp_set r.observed;
  if extra r <> [] then Format.fprintf fmt " extra=%a" pp_set (extra r);
  if missing r <> [] then Format.fprintf fmt " missing=%a" pp_set (missing r);
  List.iter (fun e -> Format.fprintf fmt " error=%s" e) r.errors

(* The per-mode outcome table: every outcome either mode reaches, marked
   per mode — the artifact the CI memory-model leg uploads. *)
let pp_table fmt (reports : (report * report) list) =
  Format.fprintf fmt "%-10s %-12s %-3s %-3s@." "test" "outcome" "sc" "tso";
  List.iter
    (fun (sc, tso) ->
      let outcomes =
        List.sort_uniq compare
          (sc.observed @ tso.observed @ sc.expected @ tso.expected)
      in
      List.iter
        (fun o ->
          let mark r = if List.mem o r.observed then "yes" else "no" in
          Format.fprintf fmt "%-10s %-12s %-3s %-3s@." sc.name
            (Format.asprintf "%a" L.pp_outcome o)
            (mark sc) (mark tso))
        outcomes)
    reports

(* Run the corpus under both modes with the same ctx knobs. *)
let run_both ?(tests = L.tests) ~ctx () =
  List.map
    (fun t ->
      ( run_test ~ctx:(Ctx.with_memory Memory.Sc ctx) t,
        run_test ~ctx:(Ctx.with_memory Memory.Tso ctx) t ))
    tests
