open Ccal_core

type placement = (Event.tid * int) list

let yield_tag = "yield"
let sleep_tag = "sleep"
let wakeup_tag = "wakeup"
let wait_tag = "wait"
let exit_tag = "texit"

type cpu_state = {
  running : Event.tid option;
  rdq : Event.tid list;
  pendq : Event.tid list;
}

type state = {
  cpus : (int * cpu_state) list;
  slpq : (int * Event.tid list) list;
}

let cpu_of placement t = List.assoc_opt t placement

let init_state placement =
  let cpus =
    List.sort_uniq Stdlib.compare (List.map snd placement)
    |> List.map (fun c ->
           let threads =
             List.filter_map (fun (t, c') -> if c' = c then Some t else None)
               placement
             |> List.sort Stdlib.compare
           in
           match threads with
           | [] -> c, { running = None; rdq = []; pendq = [] }
           | first :: rest -> c, { running = Some first; rdq = rest; pendq = [] })
  in
  { cpus; slpq = [] }

let get_cpu st c =
  match List.assoc_opt c st.cpus with
  | Some cs -> cs
  | None -> { running = None; rdq = []; pendq = [] }

let set_cpu st c cs = { st with cpus = (c, cs) :: List.remove_assoc c st.cpus }

let get_slpq st chan = Option.value ~default:[] (List.assoc_opt chan st.slpq)
let set_slpq st chan q = { st with slpq = (chan, q) :: List.remove_assoc chan st.slpq }

(* Deschedule the running thread of a CPU: drain [pendq] into [rdq], then
   promote the next ready thread (if any). *)
let deschedule cs ~requeue =
  let rdq = cs.rdq @ cs.pendq @ requeue in
  match rdq with
  | [] -> { running = None; rdq = []; pendq = [] }
  | next :: rest -> { running = Some next; rdq = rest; pendq = [] }

let chan_of_args = function
  | (Value.Vint chan : Value.t) :: _ -> Some chan
  | _ -> None

let replay_sched placement : state Replay.t =
  Replay.fold ~init:(init_state placement) ~step:(fun st (e : Event.t) ->
      let scheduling =
        List.mem e.tag [ yield_tag; sleep_tag; wakeup_tag; exit_tag ]
      in
      if not scheduling then Ok st
      else
        match cpu_of placement e.src with
        | None ->
          Error (Printf.sprintf "scheduling event from unplaced thread %d" e.src)
        | Some c ->
          let cs = get_cpu st c in
          if cs.running <> Some e.src then
            Error
              (Printf.sprintf "scheduling event from descheduled thread %d" e.src)
          else if String.equal e.tag yield_tag then
            Ok (set_cpu st c (deschedule cs ~requeue:[ e.src ]))
          else if String.equal e.tag exit_tag then
            Ok (set_cpu st c (deschedule cs ~requeue:[]))
          else if String.equal e.tag sleep_tag then
            match chan_of_args e.args with
            | None -> Error "sleep: bad arguments"
            | Some chan ->
              let st = set_slpq st chan (get_slpq st chan @ [ e.src ]) in
              Ok (set_cpu st c (deschedule cs ~requeue:[]))
          else
            (* wakeup *)
            match chan_of_args e.args with
            | None -> Error "wakeup: bad arguments"
            | Some chan -> (
              match get_slpq st chan with
              | [] -> Ok st
              | w :: rest -> (
                let st = set_slpq st chan rest in
                match cpu_of placement w with
                | None ->
                  Error (Printf.sprintf "woken thread %d is unplaced" w)
                | Some cw ->
                  let csw = get_cpu st cw in
                  let csw' =
                    if csw.running = None then { csw with running = Some w }
                    else if cw = c then { csw with rdq = csw.rdq @ [ w ] }
                    else { csw with pendq = csw.pendq @ [ w ] }
                  in
                  Ok (set_cpu st cw csw'))))

let is_running placement t log =
  match replay_sched placement log with
  | Error _ -> false
  | Ok st -> (
    match cpu_of placement t with
    | None -> false
    | Some c -> (get_cpu st c).running = Some t)

let sleepers placement chan log =
  match replay_sched placement log with
  | Error _ -> []
  | Ok st -> get_slpq st chan

(* ------------------------------------------------------------------ *)
(* The multithreaded layer transformer                                  *)
(* ------------------------------------------------------------------ *)

let turn_checked placement sem =
 fun t args log ->
  match replay_sched placement log with
  | Error msg -> Layer.Stuck msg
  | Ok st -> (
    match cpu_of placement t with
    | None -> Layer.Stuck (Printf.sprintf "thread %d is not placed on any CPU" t)
    | Some c ->
      if (get_cpu st c).running = Some t then sem t args log else Layer.Block)

let yield_prim placement =
  ( yield_tag,
    Layer.Shared
      (turn_checked placement (fun t _args _log ->
           Layer.Step
             { events = [ Event.make t yield_tag ]; ret = Value.unit; crit = Layer.Keep })) )

let exit_prim placement =
  ( exit_tag,
    Layer.Shared
      (turn_checked placement (fun t _args _log ->
           Layer.Step
             { events = [ Event.make t exit_tag ]; ret = Value.unit; crit = Layer.Keep })) )

(* sleep(chan, lk, v): one move, two events — release the spinlock
   publishing v, then go to sleep.  Atomicity avoids the lost-wakeup race. *)
let sleep_prim placement =
  ( sleep_tag,
    Layer.Shared
      (turn_checked placement (fun t args log ->
           match args with
           | [ Value.Vint chan; Value.Vint lk; v ] -> (
             match Lock_intf.replay_lock lk log with
             | Error msg -> Layer.Stuck msg
             | Ok { holder = Some h; _ } when h = t ->
               Layer.Step
                 {
                   events =
                     [
                       Event.make ~args:[ Value.int lk; v ] t Lock_intf.rel_tag;
                       Event.make ~args:[ Value.int chan ] t sleep_tag;
                     ];
                   ret = Value.unit;
                   crit = Layer.Exit;
                 }
             | Ok _ ->
               Layer.Stuck
                 (Printf.sprintf "thread %d sleeps without holding lock %d" t lk))
           | _ -> Layer.Stuck "sleep: expected channel, lock and value")) )

let wakeup_prim placement =
  ( wakeup_tag,
    Layer.Shared
      (turn_checked placement (fun t args log ->
           match chan_of_args args with
           | None -> Layer.Stuck "wakeup: expected a channel"
           | Some chan ->
             let woken =
               match sleepers placement chan log with
               | [] -> 0
               | w :: _ -> w
             in
             let ret = Value.int woken in
             Layer.Step
               {
                 events = [ Event.make ~args ~ret t wakeup_tag ];
                 ret;
                 crit = Layer.Keep;
               })) )

(* wait(chan): block until no longer sleeping (the waker removed us from
   slpq) and scheduled again; the logged event marks the completion point. *)
let wait_prim placement =
  ( wait_tag,
    Layer.Shared
      (fun t args log ->
        match chan_of_args args with
        | None -> Layer.Stuck "wait: expected a channel"
        | Some chan -> (
          match replay_sched placement log with
          | Error msg -> Layer.Stuck msg
          | Ok st ->
            if List.mem t (get_slpq st chan) then Layer.Block
            else
              match cpu_of placement t with
              | None -> Layer.Stuck (Printf.sprintf "thread %d is not placed" t)
              | Some c ->
                if (get_cpu st c).running <> Some t then Layer.Block
                else
                  Layer.Step
                    {
                      events = [ Event.make ~args t wait_tag ];
                      ret = Value.unit;
                      crit = Layer.Keep;
                    })) )

let get_tid_prim =
  ("get_tid", Layer.Private (fun t _args abs -> Ok (abs, Value.int t)))

let mt_layer placement base =
  let wrapped =
    List.map
      (fun (name, prim) ->
        match prim with
        | Layer.Private _ -> name, prim
        | Layer.Shared sem -> name, Layer.Shared (turn_checked placement sem))
      base.Layer.prims
  in
  Layer.make ~rely:base.Layer.rely ~guar:base.Layer.guar
    ~init_abs:base.Layer.init_abs
    ("Lmt(" ^ base.Layer.name ^ ")")
    (wrapped
    @ [
        yield_prim placement;
        sleep_prim placement;
        wakeup_prim placement;
        wait_prim placement;
        exit_prim placement;
        get_tid_prim;
      ])

(* ------------------------------------------------------------------ *)
(* Multithreaded linking (Thm 5.1)                                     *)
(* ------------------------------------------------------------------ *)

let turn_consistent placement log =
  let events = Log.chronological log in
  let rec go prefix = function
    | [] -> true
    | (e : Event.t) :: rest -> (
      match replay_sched placement prefix with
      | Error _ -> false
      | Ok st -> (
        match cpu_of placement e.src with
        | None -> false
        | Some c ->
          (get_cpu st c).running = Some e.src && go (Log.append e prefix) rest))
  in
  go Log.empty events

let check_multithreaded_linking_sched ?max_steps ~placement ~layer ~threads
    sched =
  Probe.span "thread_sched.linking" @@ fun () ->
  let outcome = Game.run (Game.config ?max_steps layer threads sched) in
  match outcome.Game.status with
  | Game.Stuck (i, _, msg) -> Error (Printf.sprintf "thread %d stuck: %s" i msg)
  | Game.Deadlock ids ->
    Error
      (Printf.sprintf "deadlock among threads %s under %s"
         (String.concat "," (List.map string_of_int ids))
         (Sched.name sched))
  | Game.Out_of_fuel -> Error "out of fuel"
  | Game.Cancelled ->
    Error (Printf.sprintf "run under %s was cancelled" (Sched.name sched))
  | Game.All_done -> (
    if not (turn_consistent placement outcome.Game.log) then
      Error (Printf.sprintf "log not turn-consistent under %s" (Sched.name sched))
    else
      match Refinement.replay_multi ?max_steps layer threads outcome.Game.log with
      | Ok _ -> Ok outcome.Game.steps
      | Error (reason, _) ->
        Error (Printf.sprintf "log does not replay deterministically: %s" reason))

let check_multithreaded_linking ?max_steps ~placement ~layer ~threads ~scheds () =
  let rec go n = function
    | [] -> Ok n
    | sched :: rest -> (
      match
        check_multithreaded_linking_sched ?max_steps ~placement ~layer ~threads
          sched
      with
      | Ok _ -> go (n + 1) rest
      | Error _ as e -> e)
  in
  go 0 scheds
