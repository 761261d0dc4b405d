type thread_state = {
  prog : Prog.t;
  abs : Abs.t;
  crit : bool;
}

let initial layer tid prog = { prog; abs = layer.Layer.init_abs tid; crit = false }

type move_result =
  | Moved of Event.t list * thread_state
  | Finished of Value.t * Abs.t
  | Blocked_at of thread_state * string
  | Stuck of Layer.stuck_kind * string

let apply_crit dc crit =
  match dc with Layer.Enter -> true | Layer.Exit -> false | Layer.Keep -> crit

(* Execute silent steps then at most one shared call from [st]; returns
   the result and the silent steps taken.  Top-level: no closure. *)
let rec move layer tid st log prog abs crit fuel silent =
  if fuel <= 0 then Stuck (Layer.Invalid_transition, Prog.steps_bound_exceeded), silent
  else
    match prog with
    | Prog.Ret v -> Finished (v, abs), silent
    | Prog.Call c -> (
      match Layer.find_prim c.prim layer with
      | None ->
        Stuck (Layer.Invalid_transition,
               "unknown primitive " ^ c.prim ^ " in layer " ^ layer.Layer.name), silent
      | Some (Layer.Private sem) -> (
        match sem tid c.args abs with
        | Ok (abs', v) -> move layer tid st log (c.k v) abs' crit (fuel - 1) (silent + 1)
        | Error msg -> Stuck (Layer.Invalid_transition, c.prim ^ ": " ^ msg), silent)
      | Some (Layer.Shared sem) -> (
        match sem tid c.args log with
        | Layer.Step { events; ret; crit = dc } ->
          Moved (events, { prog = c.k ret; abs; crit = apply_crit dc crit }), silent
        | Layer.Block ->
          (* blocked before any silent step: the state is unchanged *)
          Blocked_at ((if silent = 0 then st else { prog; abs; crit }), c.prim), silent
        | Layer.Stuck msg -> Stuck (Layer.Invalid_transition, c.prim ^ ": " ^ msg), silent
        | Layer.Race msg -> Stuck (Layer.Data_race, c.prim ^ ": " ^ msg), silent))

let step_move_counted layer tid st log =
  move layer tid st log st.prog st.abs st.crit 100_000 0

let step_move layer tid st log = fst (step_move_counted layer tid st log)

let strategy_of_prog layer tid prog =
  let rec of_state st =
    {
      Strategy.step =
        (fun log ->
          match step_move layer tid st log with
          | Moved (evs, st') -> Strategy.Move (evs, Strategy.Next (of_state st'))
          | Finished (v, _) -> Strategy.Move ([], Strategy.Done v)
          | Blocked_at _ -> Strategy.Blocked
          | Stuck (_, msg) -> Strategy.Refuse msg);
    }
  in
  of_state (initial layer tid prog)

type run_outcome =
  | Done of Value.t
  | No_progress of string
  | Stuck_run of string
  | Out_of_fuel

type run_result = {
  outcome : run_outcome;
  log : Log.t;
  own_events : Event.t list;
  moves : int;
  silent_steps : int;
  guar_violation : Log.t option;
}

let max_moves = 10_000

let run_local ?(block_retries = 64) ?(check_guar = false) layer tid ~env prog =
  let guar = layer.Layer.guar in
  let rec loop st log own moves silent retries violation =
    if moves > max_moves then
      { outcome = Out_of_fuel; log; own_events = List.rev own; moves; silent_steps = silent; guar_violation = violation }
    else
      (* Query point: ask the environment unless in the critical state. *)
      let log =
        if st.crit then log
        else Log.append_all (env.Env_context.query ~focus:[ tid ] log) log
      in
      let result, s = step_move_counted layer tid st log in
      let silent = silent + s in
      match result with
      | Finished (v, _) ->
        { outcome = Done v; log; own_events = List.rev own; moves; silent_steps = silent; guar_violation = violation }
      | Stuck (_, msg) ->
        { outcome = Stuck_run msg; log; own_events = List.rev own; moves; silent_steps = silent; guar_violation = violation }
      | Blocked_at (st, prim) ->
        if retries >= block_retries then
          { outcome = No_progress ("blocked on " ^ prim); log; own_events = List.rev own; moves; silent_steps = silent; guar_violation = violation }
        else if st.crit then
          (* A blocked call inside a critical state can never be unblocked by
             the environment (we are not listening): report no progress. *)
          { outcome = No_progress ("blocked on " ^ prim ^ " in critical state"); log; own_events = List.rev own; moves; silent_steps = silent; guar_violation = violation }
        else loop st log own moves silent (retries + 1) violation
      | Moved (evs, st') ->
        let log' = Log.append_all evs log in
        let own' = List.rev_append evs own in
        let violation =
          match violation with
          | Some _ -> violation
          | None ->
            if check_guar && not (guar.Rely_guarantee.holds tid log') then Some log'
            else None
        in
        loop st' log' own' (moves + 1) silent 0 violation
  in
  Replay.scoped (fun () -> loop (initial layer tid prog) Log.empty [] 0 0 0 None)
