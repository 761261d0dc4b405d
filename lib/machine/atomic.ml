open Ccal_core

let faa_tag = "faa"
let xchg_tag = "xchg"
let cas_tag = "cas"
let aload_tag = "aload"
let astore_tag = "astore"
let mfence_tag = "mfence"
let commit_tag = "commit"

module Imap = Map.Make (Int)

let cell_of b m = Option.value ~default:0 (Imap.find_opt b m)

let replay_cells : int Imap.t Replay.t =
  Replay.fold ~init:Imap.empty ~step:(fun m (e : Event.t) ->
      match e.tag, e.args with
      | tag, [ Value.Vint b; Value.Vint d ] when String.equal tag faa_tag ->
        Ok (Imap.add b (cell_of b m + d) m)
      | tag, [ Value.Vint b; Value.Vint x ]
        when String.equal tag xchg_tag || String.equal tag astore_tag ->
        Ok (Imap.add b x m)
      | tag, [ Value.Vint b; Value.Vint expected; Value.Vint x ]
        when String.equal tag cas_tag ->
        if cell_of b m = expected then Ok (Imap.add b x m) else Ok m
      | tag, [ Value.Vint b; Value.Vint x; Value.Vint _cpu ]
        when String.equal tag commit_tag ->
        Ok (Imap.add b x m)
      | _ -> Ok m)

let replay_cell b : int Replay.t = fun l -> Result.map (cell_of b) (replay_cells l)

(* An atomic operation computes its return value from the replayed state of
   the log it extends. *)
let atomic_prim tag arity ret_of =
  ( tag,
    Layer.Shared
      (fun c args log ->
        if List.length args <> arity then
          Layer.Stuck (Printf.sprintf "%s: expected %d arguments" tag arity)
        else
          match args with
          | Value.Vint b :: _ -> (
            match replay_cell b log with
            | Error msg -> Layer.Stuck msg
            | Ok old ->
              let ret = ret_of old in
              let ev = Event.make ~args ~ret c tag in
              Layer.Step { events = [ ev ]; ret; crit = Layer.Keep })
          | _ -> Layer.Stuck (tag ^ ": expected a cell location")) )

let faa = atomic_prim faa_tag 2 Value.int
let xchg = atomic_prim xchg_tag 2 Value.int
let cas = atomic_prim cas_tag 3 Value.int
let aload = atomic_prim aload_tag 1 Value.int
let astore = atomic_prim astore_tag 2 (fun _ -> Value.unit)

(* On the SC machine every store is already globally visible, so the
   fence only marks the log.  It exists here so fenced programs (the
   litmus suite's [_fenced] variants) run unchanged under both memory
   modes; {!Tso} gives the same tag its draining semantics. *)
let mfence =
  ( mfence_tag,
    Layer.Shared
      (fun c _args _log ->
        Layer.Step
          { events = [ Event.make c mfence_tag ]; ret = Value.unit; crit = Layer.Keep }) )

let prims = [ faa; xchg; cas; aload; astore; mfence ]
