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
            match Event.obj_of_args e.args with
            | None -> Error "sleep: bad arguments"
            | Some chan ->
              let st = set_slpq st chan (get_slpq st chan @ [ e.src ]) in
              Ok (set_cpu st c (deschedule cs ~requeue:[]))
          else
            (* wakeup *)
            match Event.obj_of_args e.args with
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

(* ------------------------------------------------------------------ *)
(* The multithreaded layer transformer                                  *)
(* ------------------------------------------------------------------ *)

(* [sched] is [replay_sched placement], which {!mt_layer} builds once and
   hands to every primitive of the layer, so they share one memo. *)
let turn_checked placement sched sem =
 fun t args log ->
  match sched log with
  | Error msg -> Layer.Stuck msg
  | Ok st -> (
    match cpu_of placement t with
    | None -> Layer.Stuck (Printf.sprintf "thread %d is not placed on any CPU" t)
    | Some c ->
      if (get_cpu st c).running = Some t then sem t args log else Layer.Block)

(* yield and texit: the whole effect is the logged event, which [Rsched]
   reads. *)
let plain_prim placement sched tag =
  ( tag,
    Layer.Shared
      (turn_checked placement sched (fun t _args _log ->
           Layer.Step
             { events = [ Event.make t tag ]; ret = Value.unit; crit = Layer.Keep })) )

(* sleep(chan, lk, v): one move, two events — release the spinlock
   publishing v, then go to sleep.  Atomicity avoids the lost-wakeup race. *)
let sleep_prim placement sched =
  ( sleep_tag,
    Layer.Shared
      (turn_checked placement sched (fun t args log ->
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

let wakeup_prim placement sched =
  ( wakeup_tag,
    Layer.Shared
      (turn_checked placement sched (fun t args log ->
           match Event.obj_of_args args with
           | None -> Layer.Stuck "wakeup: expected a channel"
           | Some chan ->
             let woken =
               match sched log with
               | Ok st -> ( match get_slpq st chan with [] -> 0 | w :: _ -> w)
               | Error _ -> 0
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
let wait_prim placement sched =
  ( wait_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "wait: expected a channel"
        | Some chan -> (
          match sched log with
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
  let sched = replay_sched placement in
  let wrapped =
    List.map
      (fun (name, prim) ->
        match prim with
        | Layer.Private _ -> name, prim
        | Layer.Shared sem -> name, Layer.Shared (turn_checked placement sched sem))
      base.Layer.prims
  in
  Layer.make ~rely:base.Layer.rely ~guar:base.Layer.guar
    ~init_abs:base.Layer.init_abs
    ("Lmt(" ^ base.Layer.name ^ ")")
    (wrapped
    @ [
        plain_prim placement sched yield_tag;
        sleep_prim placement sched;
        wakeup_prim placement sched;
        wait_prim placement sched;
        plain_prim placement sched exit_tag;
        get_tid_prim;
      ])

(* The atomic overlays above the scheduler log [yield] and [texit] as
   plain events, and place each thread on its own CPU unless told
   otherwise. *)
let noop_event_prim tag =
  ( tag,
    Layer.Shared
      (fun t _args _log ->
        Layer.Step
          { events = [ Event.make t tag ]; ret = Value.unit; crit = Layer.Keep }) )

let default_placement focus rivals =
  List.map (fun t -> t, t) (List.sort_uniq Stdlib.compare (focus @ rivals))

(* ------------------------------------------------------------------ *)
(* Multithreaded linking (Thm 5.1)                                     *)
(* ------------------------------------------------------------------ *)

let turn_consistent placement log =
  let sched = replay_sched placement in
  let rec go prefix = function
    | [] -> true
    | (e : Event.t) :: rest -> (
      match sched prefix with
      | Error _ -> false
      | Ok st -> (
        match cpu_of placement e.src with
        | None -> false
        | Some c ->
          (get_cpu st c).running = Some e.src && go (Log.append e prefix) rest))
  in
  Replay.scoped (fun () -> go Log.empty (Log.chronological log))

let judge_linking ?max_steps ~placement layer threads sched
    (outcome : Game.outcome) =
  Probe.span "thread_sched.linking" @@ fun () ->
  let log = outcome.Game.log in
  match outcome.Game.status with
  | Game.Stuck (i, _, msg) ->
    Error
      (Failure.underlay ~sched:(Sched.name sched) log
         (Printf.sprintf "thread %d stuck: %s" i msg))
  | Game.Deadlock ids ->
    Error
      (Failure.underlay ~sched:(Sched.name sched) log
         (Printf.sprintf "deadlock among threads %s"
            (String.concat "," (List.map string_of_int ids))))
  | Game.Out_of_fuel | Game.Cancelled ->
    Error (Failure.underlay ~sched:(Sched.name sched) log "out of fuel")
  | Game.All_done -> (
    if not (turn_consistent placement log) then
      Error (Failure.underlay ~sched:(Sched.name sched) log "log not turn-consistent")
    else
      match Refinement.replay_multi ?max_steps layer threads log with
      | Ok _ -> Ok ()
      | Error (reason, replayed) ->
        Error
          (Failure.overlay ~sched:(Sched.name sched) ~lower:log replayed
             ("log does not replay deterministically: " ^ reason)))