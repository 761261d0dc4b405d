open Ccal_core

type bound_report = {
  runs : int;
  max_steps_used : int;
  bound : int;
}

(* Per-schedule body, handed to the {!Parallel} pool: the completed run's
   step count, the failure message, or the mark that the budget's stop
   closure interrupted the game mid-run.  Paired with the raw step count
   so the budgeted scan can charge actual game cost. *)
let check_sched ~bound layer threads ~stop sched =
  let outcome =
    Game.run (Game.config ~max_steps:bound ?stop layer threads sched)
  in
  let r =
    match outcome.Game.status with
    | Game.All_done -> `Done outcome.Game.steps
    | Game.Cancelled -> `Interrupted
    | Game.Deadlock ids ->
      `Failed
        (Printf.sprintf "deadlock among threads %s under %s"
           (String.concat "," (List.map string_of_int ids))
           (Sched.name sched))
    | Game.Stuck (i, _, msg) ->
      `Failed
        (Printf.sprintf "thread %d stuck under %s: %s" i (Sched.name sched) msg)
    | Game.Out_of_fuel ->
      `Failed
        (Printf.sprintf "run under %s exceeded the progress bound of %d moves"
           (Sched.name sched) bound)
  in
  (outcome.Game.steps, r)

let completes_within_ctx ~ctx ?scheds ~bound layer threads =
  Ctx.arm ctx @@ fun () ->
  let scheds =
    match scheds with
    | Some s -> s
    | None -> Explore.scheds_of_strategy_ctx ~ctx layer threads
  in
  let replay =
    Parallel.budgeted_scan
      ?jobs:(Ctx.jobs_opt ctx)
      ~token:ctx.Ctx.token ~cost:fst
      ~interrupted:(fun (_, r) ->
        match r with `Interrupted -> true | _ -> false)
      ~cut:(fun (_, r) -> match r with `Failed _ -> true | _ -> false)
      (check_sched ~bound layer threads)
      scheds
  in
  let rec go runs worst = function
    | [] -> Ok { runs; max_steps_used = worst; bound }
    | (_, `Done steps) :: rest -> go (runs + 1) (max worst steps) rest
    | (_, `Failed msg) :: _ -> Error msg
    | (_, `Interrupted) :: _ ->
      (* excluded from the budgeted prefix by construction *)
      assert false
  in
  let report = go 0 0 replay.Parallel.prefix in
  if replay.Parallel.ran_out then
    Budget.Exhausted { spent = Budget.spent ctx.Ctx.token; partial = report }
  else Budget.Complete report

let lock_of (e : Event.t) =
  match e.args with
  | Value.Vint b :: _ -> Some b
  | _ -> None

(* Per lock, the source sequence of [tag] events. *)
let order_of tag l log =
  List.filter_map
    (fun (e : Event.t) ->
      if String.equal e.tag tag && lock_of e = Some l then Some e.src else None)
    (Log.chronological log)

let locks_mentioned tag log =
  List.sort_uniq Stdlib.compare
    (List.filter_map
       (fun (e : Event.t) ->
         if String.equal e.tag tag then lock_of e else None)
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
      let lock = lock_of e in
      let j = ref (i + 1) in
      let found = ref false in
      while (not !found) && !j < n do
        let e' = events.(!j) in
        if
          String.equal e'.Event.tag enter_tag
          && e'.Event.src = e.Event.src && lock_of e' = lock
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
