open Ccal_core

(* What a budget-exhausted scan established before the budget tripped:
   the count of schedules fully evaluated, the clean-run count, and the
   non-race failure messages in schedule order.  Racy outcomes never
   appear here: a race cuts the scan and wins immediately. *)
type partial = { scanned : int; clean : int; others : string list }

type verdict =
  | Race_free of { runs : int }
  | Race of Failure.t
  | Other_failure of string
  | Exhausted of { spent : Budget.spent; partial : partial }

(* The per-schedule judge: pure in the sense that it touches only its
   own game, so the pool can judge schedules on any domain. *)
type sched_outcome =
  | Clean
  | Racy of Failure.t
  | Other of string

let judge sched outcome =
  Probe.incr Probe.race_checks;
  match outcome.Game.status with
  | Game.Stuck (_, Layer.Data_race, msg) ->
    Racy (Failure.underlay ~sched:(Sched.name sched) outcome.Game.log msg)
  | Game.Stuck (i, Layer.Invalid_transition, msg) ->
    Other (Printf.sprintf "thread %d stuck (not a race): %s" i msg)
  | Game.Deadlock ids ->
    Other
      (Printf.sprintf "deadlock among threads %s"
         (String.concat "," (List.map string_of_int ids)))
  | Game.Out_of_fuel | Game.Cancelled -> Other "out of fuel"
  | Game.All_done ->
    if Ccal_machine.Pushpull.race_free outcome.Game.log then Clean
    else
      Racy
        (Failure.underlay ~sched:(Sched.name sched) outcome.Game.log
           "completed log fails push/pull replay")

(* Deterministic merge.  A race anywhere wins (the lowest-indexed one —
   [Parallel.games] guarantees the outcome list is the sequential
   prefix up to and including the first [Racy]); non-race failures such as
   one adversarial schedule running out of fuel no longer abort the scan,
   they are collected and reported only when no schedule exposes a race. *)
let merge outcomes =
  let rec go runs others = function
    | Racy f :: _ -> Race f
    | Other msg :: rest -> go runs (msg :: others) rest
    | Clean :: rest -> go (runs + 1) others rest
    | [] -> (
      match List.rev others with
      | [] -> Race_free { runs }
      | first :: more ->
        Other_failure
          (if more = [] then first
           else
             Printf.sprintf "%s (+%d further non-race failures, %d clean runs)"
               first (List.length more) runs))
  in
  go 0 [] outcomes

let check_ctx ~ctx ?max_steps ?scheds layer threads =
  Ctx.arm ctx @@ fun () ->
  let scheds =
    match scheds with
    | Some s -> s
    | None -> Explore.scheds_of_strategy_ctx ~ctx layer threads
  in
  match
    Parallel.games ~ctx ?max_steps
      ~cut:(function Racy _ -> true | Clean | Other _ -> false)
      layer threads judge scheds
  with
  | Budget.Complete outcomes -> merge outcomes
  | Budget.Exhausted { spent; partial = outcomes } ->
    let partial =
      {
        scanned = List.length outcomes;
        clean =
          List.length
            (List.filter (function Clean -> true | _ -> false) outcomes);
        others =
          List.filter_map (function Other m -> Some m | _ -> None) outcomes;
      }
    in
    Exhausted { spent; partial }
