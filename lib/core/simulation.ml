type report = {
  envs_checked : int;
  impl_moves : int;
}

type driven = {
  log : Log.t;
  ret : Value.t option;
  moves : int;
  blocked : bool;
  refused : string option;
}

let max_moves = 10_000

let drive ?(block_retries = 64) tid strat ~env ~init_log =
  let rec loop strat log moves retries =
    if moves > max_moves then
      { log; ret = None; moves; blocked = false; refused = Some Prog.steps_bound_exceeded }
    else
      let log = Log.append_all (env.Env_context.query ~focus:[ tid ] log) log in
      match strat.Strategy.step log with
      | Strategy.Move (evs, out) -> (
        let log = Log.append_all evs log in
        match out with
        | Strategy.Done v -> { log; ret = Some v; moves = moves + 1; blocked = false; refused = None }
        | Strategy.Next strat' -> loop strat' log (moves + 1) 0)
      | Strategy.Blocked ->
        if retries >= block_retries then
          { log; ret = None; moves; blocked = true; refused = None }
        else loop strat log moves (retries + 1)
      | Strategy.Refuse msg ->
        { log; ret = None; moves; blocked = false; refused = Some msg }
  in
  Replay.scoped (fun () -> loop strat init_log 0 0)

let replay_against tid spec ~init_log translated =
  let events = Log.chronological translated in
  (* Drive the spec so that its own events match the focused events of
     [translated] in order, treating foreign events as environment moves. *)
  let fuel_empty_moves = 1_000 in
  let rec finish spec log fuel =
    if fuel <= 0 then Error ("spec makes no progress at end of log", log)
    else
      match spec.Strategy.step log with
      | Strategy.Move ([], Strategy.Done v) -> Ok (Some v)
      | Strategy.Move ([], Strategy.Next s') -> finish s' log (fuel - 1)
      | Strategy.Move (evs, _) ->
        Error
          ( Printf.sprintf "spec emits extra events at end of log: %s"
              (String.concat ", " (List.map Event.to_string evs)),
            log )
      | Strategy.Blocked -> Error ("spec blocked at end of log", log)
      | Strategy.Refuse msg -> Error ("spec stuck at end of log: " ^ msg, log)
  in
  let rec go spec log pending events fuel =
    match pending, events with
    | [], [] -> finish spec log fuel_empty_moves
    | _ :: _, [] ->
      Error ("spec emitted events beyond the end of the translated log", log)
    | [], e :: rest when (e : Event.t).src <> tid ->
      go spec (Log.append e log) [] rest fuel_empty_moves
    | [], (_ :: _ as events) ->
      if fuel <= 0 then Error ("spec makes no progress", log)
      else (
        match spec.Strategy.step log with
        | Strategy.Move ([], Strategy.Next s') -> go s' log [] events (fuel - 1)
        | Strategy.Move ([], Strategy.Done _) ->
          Error ("spec finished before producing all required events", log)
        | Strategy.Move (evs, out) ->
          let next =
            match out with
            | Strategy.Done v -> `Done v
            | Strategy.Next s' -> `Spec s'
          in
          consume next log evs events
        | Strategy.Blocked -> Error ("spec blocked where it must move", log)
        | Strategy.Refuse msg -> Error ("spec stuck: " ^ msg, log))
    | p :: prest, e :: erest ->
      if e.src <> tid then
        Error ("environment event interleaves one spec move: " ^ Event.to_string e, log)
      else if Event.equal p e then go spec (Log.append e log) prest erest fuel_empty_moves
      else
        Error
          (Printf.sprintf "spec emitted %s but translated log has %s"
             (Event.to_string p) (Event.to_string e),
            log)
  and consume next log pending events =
    match next with
    | `Spec s -> go s log pending events fuel_empty_moves
    | `Done v -> (
      (* The spec terminated with this move: its pending events must close
         out the remaining focused events, and the rest must be foreign. *)
      let rec drain log pending events =
        match pending, events with
        | [], rest ->
          if List.for_all (fun (e : Event.t) -> e.src <> tid) rest then
            Ok (Some v)
          else Error ("spec finished before producing all required events", log)
        | p :: prest, e :: erest when (e : Event.t).src = tid && Event.equal p e ->
          drain (Log.append e log) prest erest
        | p :: _, e :: _ ->
          Error
            (Printf.sprintf "spec emitted %s but translated log has %s"
               (Event.to_string p) (Event.to_string e),
              log)
        | _ :: _, [] ->
          Error ("spec emitted events beyond the end of the translated log", log)
      in
      drain log pending events)
  in
  Replay.scoped (fun () -> go spec init_log [] events fuel_empty_moves)

let check_strategies rel ~tid ~impl ~spec ~envs =
  let rec go envs_checked impl_moves = function
    | [] -> Ok { envs_checked; impl_moves }
    | env :: rest -> (
      let sched = env.Env_context.name in
      let d = drive tid (impl ()) ~env ~init_log:Log.empty in
      match d.refused with
      | Some msg -> Error (Failure.underlay ~sched d.log ("impl stuck: " ^ msg))
      | None ->
        if d.blocked then
          Error (Failure.underlay ~sched d.log "impl blocked with environment exhausted")
        else
          let translated = Sim_rel.apply rel d.log in
          (match replay_against tid (spec ()) ~init_log:Log.empty translated with
          | Error (reason, spec_log) ->
            Error (Failure.overlay ~sched ~lower:d.log spec_log reason)
          | Ok spec_ret -> (
            match d.ret, spec_ret with
            | Some vi, Some vs when Value.equal vi vs ->
              go (envs_checked + 1) (impl_moves + d.moves) rest
            | Some vi, Some vs ->
              Error
                (Failure.overlay ~sched ~lower:d.log translated
                   (Printf.sprintf "return values unrelated: impl %s, spec %s"
                      (Value.to_string vi) (Value.to_string vs)))
            | Some _, None | None, _ ->
              Error
                (Failure.overlay ~sched ~lower:d.log translated
                   "strategies did not both terminate"))))
  in
  go 0 0 envs

let check_progs rel ~tid ~impl_layer ~impl ~spec_layer ~spec ~envs =
  check_strategies rel ~tid
    ~impl:(fun () -> Machine.strategy_of_prog impl_layer tid impl)
    ~spec:(fun () -> Machine.strategy_of_prog spec_layer tid spec)
    ~envs
