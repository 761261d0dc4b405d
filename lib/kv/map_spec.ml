open Ccal_core

let get_tag = "get"
let put_tag = "put"
let del_tag = "del"
let resize_tag = "resize"

let absent = -1

(* A newest-first scan, not a fold: the newest [put]/[del] touching the
   key decides, so the scan stops at the first match and builds no map. *)
let lookup k log =
  let rec go = function
    | [] -> absent
    | (e : Event.t) :: older ->
      if String.equal e.tag put_tag then
        match e.args with
        | Value.Vint k' :: Value.Vint v :: _ when k' = k -> v
        | _ -> go older
      else if String.equal e.tag del_tag then
        match e.args with
        | Value.Vint k' :: _ when k' = k -> absent
        | _ -> go older
      else go older
  in
  go (Log.newest_first log)

let shard_count ~default log =
  let rec go = function
    | [] -> default
    | (e : Event.t) :: older ->
      if String.equal e.tag resize_tag then
        match e.args with
        | Value.Vint n :: _ -> n
        | _ -> go older
      else go older
  in
  go (Log.newest_first log)

module Imap = Map.Make (Int)

let replay_map : int Imap.t Replay.t =
  Replay.fold ~init:Imap.empty ~step:(fun m (e : Event.t) ->
      if String.equal e.tag put_tag then
        match e.args with
        | [ Value.Vint k; Value.Vint v ] -> Ok (Imap.add k v m)
        | _ -> Error "put: bad arguments"
      else if String.equal e.tag del_tag then
        match e.args with
        | [ Value.Vint k ] -> Ok (Imap.remove k m)
        | _ -> Error "del: bad arguments"
      else Ok m)

let layer ?(shards = 4) () =
  Layer.make
    (Printf.sprintf "Lmap(shards=%d)" shards)
    [
      Layer.event_prim get_tag (fun _ args log ->
          match args with
          | [ Value.Vint k ] -> Ok (Value.int (lookup k log))
          | _ -> Error "get: bad arguments");
      Layer.event_prim put_tag (fun _ args log ->
          match args with
          | [ Value.Vint k; Value.Vint v ] when v >= 0 ->
            Ok (Value.int (lookup k log))
          | _ -> Error "put: bad arguments");
      Layer.event_prim del_tag (fun _ args log ->
          match args with
          | [ Value.Vint k ] -> Ok (Value.int (lookup k log))
          | _ -> Error "del: bad arguments");
      Layer.event_prim resize_tag (fun _ args log ->
          match args with
          | [ Value.Vint n ] when n >= 1 ->
            Ok (Value.int (shard_count ~default:shards log))
          | _ -> Error "resize: bad arguments");
    ]

let cache_overlay () = Layer.restrict [ get_tag; put_tag ] (layer ~shards:1 ())
