type slot = {
  mutable state : [ `Run of Machine.thread_state | `Done of Value.t ];
  mutable pending : Event.t list;  (** events of the current move not yet matched *)
}

let replay_multi ?(max_steps = 200_000) ?(allow_blocked_at_end = false) overlay
    threads l =
  let slots =
    List.map
      (fun (i, p) ->
        i, { state = `Run (Machine.initial overlay i p); pending = [] })
      threads
  in
  let find i =
    match List.assoc_opt i slots with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "log mentions unknown thread %d" i)
  in
  let events = Log.chronological l in
  let rec consume log remaining steps =
    if steps > max_steps then Error ("replay " ^ Prog.steps_bound_exceeded, log)
    else
      match remaining with
      | [] -> finish log
      | (e : Event.t) :: rest -> (
        match find e.src with
        | Error msg -> Error (msg, log)
        | Ok slot -> (
          match slot.pending with
          | p :: ps ->
            if Event.equal p e then (
              slot.pending <- ps;
              consume (Log.append e log) rest (steps + 1))
            else
              Error
                ( Printf.sprintf "overlay thread %d emits %s but log has %s"
                    e.src (Event.to_string p) (Event.to_string e),
                  log )
          | [] -> (
            match slot.state with
            | `Done _ ->
              Error
                ( Printf.sprintf "thread %d already finished but log has %s"
                    e.src (Event.to_string e),
                  log )
            | `Run st -> (
              match Machine.step_move overlay e.src st log with
              | Machine.Moved (evs, st') ->
                slot.state <- `Run st';
                slot.pending <- evs;
                if evs = [] then consume log remaining (steps + 1)
                else consume log remaining (steps + 1)
              | Machine.Finished (v, _) ->
                slot.state <- `Done v;
                Error
                  ( Printf.sprintf
                      "thread %d finished silently but log expects %s" e.src
                      (Event.to_string e),
                    log )
              | Machine.Blocked_at (_, prim) ->
                Error
                  ( Printf.sprintf
                      "overlay thread %d blocked on %s where log expects %s"
                      e.src prim (Event.to_string e),
                    log )
              | Machine.Stuck (_, msg) ->
                Error (Printf.sprintf "overlay thread %d stuck: %s" e.src msg, log)
              ))))
  and finish log =
    (* All events consumed: every thread must run to completion silently. *)
    let rec drain (i, slot) fuel log =
      if fuel <= 0 then Error (Printf.sprintf "thread %d does not terminate silently" i, log)
      else
        match slot.state with
        | `Done _ -> Ok ()
        | `Run st -> (
          if slot.pending <> [] then
            Error
              ( Printf.sprintf "thread %d has unmatched pending events" i,
                log )
          else
            match Machine.step_move overlay i st log with
            | Machine.Finished (v, _) ->
              slot.state <- `Done v;
              Ok ()
            | Machine.Moved ([], st') ->
              slot.state <- `Run st';
              drain (i, slot) (fuel - 1) log
            | Machine.Moved (evs, _) ->
              Error
                ( Printf.sprintf "thread %d emits extra events: %s" i
                    (String.concat ", " (List.map Event.to_string evs)),
                  log )
            | Machine.Blocked_at (_, prim) ->
              if allow_blocked_at_end then Ok ()
              else
                Error
                  (Printf.sprintf "thread %d blocked on %s at end of log" i prim, log)
            | Machine.Stuck (_, msg) ->
              Error (Printf.sprintf "thread %d stuck at end of log: %s" i msg, log))
    in
    let rec drain_all = function
      | [] ->
        Ok
          (List.filter_map
             (fun (i, slot) ->
               match slot.state with `Done v -> Some (i, v) | `Run _ -> None)
             slots)
      | s :: rest -> (
        match drain s 1_000 log with
        | Ok () -> drain_all rest
        | Error e -> Error e)
    in
    drain_all slots
  in
  Replay.scoped (fun () -> consume Log.empty events 0)

(* The per-schedule judge of a refinement scan: the underlay play,
   translated and replayed against the overlay.  It touches only its own
   replay state, so the parallel checkers can judge schedules on any
   domain. *)
let judge ~max_steps ?(expect_all_done = true) ~overlay ~rel ~client ~tids
    sched (outcome : Game.outcome) =
  let threads_over = List.map (fun i -> i, client i) tids in
  match outcome.Game.status with
  | (Game.Deadlock _ | Game.Stuck _ | Game.Out_of_fuel | Game.Cancelled)
    when expect_all_done ->
    Error
      (Failure.underlay ~sched:(Sched.name sched) outcome.Game.log
         (Format.asprintf "underlay run did not complete: %a" Game.pp_status
            outcome.Game.status))
  | _ -> (
    let l = outcome.Game.log in
    let lt = Sim_rel.apply rel l in
    match
      replay_multi ~max_steps ~allow_blocked_at_end:(not expect_all_done)
        overlay threads_over lt
    with
    | Error (reason, over_log) ->
      Error (Failure.overlay ~sched:(Sched.name sched) ~lower:l over_log reason)
    | Ok over_results -> (
      (* Termination-sensitivity: results must agree thread-by-thread. *)
      let mismatches =
        List.filter
          (fun (i, v) ->
            match List.assoc_opt i over_results with
            | Some v' -> not (Value.equal v v')
            | None -> true)
          outcome.Game.results
      in
      match mismatches with
      | (i, v) :: _ ->
        Error
          (Failure.overlay ~sched:(Sched.name sched) ~lower:l lt
             (Printf.sprintf
                "thread %d returned %s at the underlay but %s at the overlay" i
                (Value.to_string v)
                (match List.assoc_opt i over_results with
                | Some v' -> Value.to_string v'
                | None -> "nothing")))
      | [] -> Ok l))
