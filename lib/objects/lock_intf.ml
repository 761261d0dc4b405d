open Ccal_core

let acq_tag = "acq"
let rel_tag = "rel"

type lock_state = {
  holder : Event.tid option;
  value : Value.t;
}

module Imap = Map.Make (Int)

let free = { holder = None; value = Value.int 0 }
let state_of b m = Option.value (Imap.find_opt b m) ~default:free

let replay_locks : lock_state Imap.t Replay.t =
  Replay.fold ~init:Imap.empty ~step:(fun m (e : Event.t) ->
      if String.equal e.tag acq_tag then
        match e.args with
        | [ Value.Vint b ] -> (
          match state_of b m with
          | { holder = None; value } ->
            Ok (Imap.add b { holder = Some e.src; value } m)
          | { holder = Some h; _ } ->
            Error
              (Printf.sprintf "invalid log: thread %d acquires lock %d held by %d"
                 e.src b h))
        | _ -> Error "acq: bad arguments"
      else if String.equal e.tag rel_tag then
        match e.args with
        | [ Value.Vint b; v ] -> (
          match state_of b m with
          | { holder = Some h; _ } when h = e.src ->
            Ok (Imap.add b { holder = None; value = v } m)
          | { holder = Some h; _ } ->
            Error
              (Printf.sprintf "invalid log: thread %d releases lock %d held by %d"
                 e.src b h)
          | { holder = None; _ } ->
            Error
              (Printf.sprintf "invalid log: thread %d releases free lock %d" e.src b))
        | _ -> Error "rel: bad arguments"
      else Ok m)

let replay_lock b : lock_state Replay.t =
 fun l -> Result.map (state_of b) (replay_locks l)

let acq_prim =
  ( acq_tag,
    Layer.Shared
      (fun c args log ->
        match args with
        | [ Value.Vint b ] -> (
          match replay_lock b log with
          | Error msg -> Layer.Stuck msg
          | Ok { holder = Some _; _ } -> Layer.Block
          | Ok { holder = None; value } ->
            let ev = Event.make ~args ~ret:value c acq_tag in
            Layer.Step { events = [ ev ]; ret = value; crit = Layer.Enter })
        | _ -> Layer.Stuck "acq: expected one lock argument") )

let rel_prim =
  ( rel_tag,
    Layer.Shared
      (fun c args log ->
        match args with
        | [ Value.Vint b; _ ] -> (
          match replay_lock b log with
          | Error msg -> Layer.Stuck msg
          | Ok { holder = Some h; _ } when h = c ->
            let ev = Event.make ~args c rel_tag in
            Layer.Step { events = [ ev ]; ret = Value.unit; crit = Layer.Exit }
          | Ok _ ->
            Layer.Stuck
              (Printf.sprintf "thread %d releases lock %d it does not hold" c b))
        | _ -> Layer.Stuck "rel: expected lock and value arguments") )

let condition () = Rg.lock_condition ~acq_tag ~rel_tag ()

let layer ?bound ?(extra = []) name =
  let cond = Rg.lock_condition ?bound ~acq_tag ~rel_tag () in
  Layer.make ~rely:cond ~guar:cond name ([ acq_prim; rel_prim ] @ extra)

let mutual_exclusion l =
  (* Mutual exclusion holds iff the log replays without violation: the
     replay function rejects exactly the overlapping-critical-section
     logs. *)
  Replay.well_formed replay_locks l

let handoffs b l =
  List.filter_map
    (fun (e : Event.t) ->
      if String.equal e.tag acq_tag && e.args = [ Value.int b ] then Some e.src
      else None)
    (Log.chronological l)

(* A rival's round in the lock certificates: its events carry
   replay-consistent return values. *)
let round b =
  Prog.bind (Prog.call acq_tag [ Value.int b ]) (fun v ->
      Prog.call rel_tag [ Value.int b; v ])
