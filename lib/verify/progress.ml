open Ccal_core

type bound_report = {
  runs : int;
  max_steps_used : int;
  bound : int;
}

(* The per-schedule judge: the completed run's step count or the
   failure, at the end of the play's log. *)
let judge ~bound sched outcome =
  let fail reason =
    Error (Failure.underlay ~sched:(Sched.name sched) outcome.Game.log reason)
  in
  match outcome.Game.status with
  | Game.All_done -> Ok outcome.Game.steps
  | Game.Deadlock ids ->
    fail
      (Printf.sprintf "deadlock among threads %s"
         (String.concat "," (List.map string_of_int ids)))
  | Game.Stuck (i, _, msg) -> fail (Printf.sprintf "thread %d stuck: %s" i msg)
  | Game.Out_of_fuel | Game.Cancelled ->
    fail (Printf.sprintf "run exceeded the progress bound of %d moves" bound)

let completes_within_ctx ~ctx ?scheds ~bound layer threads =
  let scheds =
    match scheds with
    | Some s -> s
    | None -> Explore.scheds_of_strategy_ctx ~ctx layer threads
  in
  let rec go runs worst = function
    | [] -> Ok { runs; max_steps_used = worst; bound }
    | Ok steps :: rest -> go (runs + 1) (max worst steps) rest
    | Error f :: _ -> Error f
  in
  Budget.map (go 0 0)
    (Parallel.games ~ctx ~max_steps:bound ~cut:Result.is_error layer threads
       (judge ~bound) scheds)

(* Per lock, the source sequence of [tag] events. *)
let order_of tag l log =
  List.filter_map
    (fun (e : Event.t) ->
      if String.equal e.tag tag && Event.obj_of_args e.args = Some l then
        Some e.src
      else None)
    (Log.chronological log)

let locks_mentioned tag log =
  List.sort_uniq Stdlib.compare
    (List.filter_map
       (fun (e : Event.t) ->
         if String.equal e.tag tag then Event.obj_of_args e.args else None)
       (Log.chronological log))

let fifo_order ~ticket_tag ~enter_tag log =
  List.for_all
    (fun l ->
      let tickets = order_of ticket_tag l log in
      let enters = order_of enter_tag l log in
      (* every completed entry came in ticket order: [enters] is a prefix
         of [tickets] *)
      let rec prefix a b =
        match a, b with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && prefix a' b'
        | _ :: _, [] -> false
      in
      prefix enters tickets)
    (locks_mentioned ticket_tag log)

let waiting_spans ~ticket_tag ~enter_tag log =
  let events = Array.of_list (Log.chronological log) in
  let n = Array.length events in
  let spans = ref [] in
  for i = 0 to n - 1 do
    let e = events.(i) in
    if String.equal e.Event.tag ticket_tag then (
      let lock = Event.obj_of_args e.Event.args in
      let j = ref (i + 1) in
      let found = ref false in
      while (not !found) && !j < n do
        let e' = events.(!j) in
        if
          String.equal e'.Event.tag enter_tag
          && e'.Event.src = e.Event.src
          && Event.obj_of_args e'.Event.args = lock
        then (
          spans := (e.Event.src, !j - i) :: !spans;
          found := true);
        incr j
      done)
  done;
  List.rev !spans

let starvation_bound ~cs_events ~spin_events ~ncpus =
  cs_events * spin_events * ncpus

let check_starvation_free ~ticket_tag ~enter_tag ~cs_events ~spin_events ~ncpus
    logs =
  let bound = starvation_bound ~cs_events ~spin_events ~ncpus in
  let rec go worst = function
    | [] -> Ok worst
    | log :: rest ->
      let spans = waiting_spans ~ticket_tag ~enter_tag log in
      let bad = List.find_opt (fun (_, s) -> s > bound) spans in
      (match bad with
      | Some (t, s) ->
        Error
          (Printf.sprintf
             "thread %d waited %d events, exceeding the n*m*#CPU bound of %d"
             t s bound)
      | None ->
        let worst =
          List.fold_left (fun w (_, s) -> max w s) worst spans
        in
        go worst rest)
  in
  go 0 logs
