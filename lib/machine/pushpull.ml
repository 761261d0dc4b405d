open Ccal_core

type ownership =
  | Free
  | Owned of Event.tid

let pull_tag = "pull"
let push_tag = "push"

module Imap = Map.Make (Int)

(* Replay the value/ownership of every location, getting stuck on races
   exactly as Fig. 8's [Rshared]. *)
let replay_map : (Value.t * ownership) Imap.t Replay.t =
  Replay.fold ~init:Imap.empty ~step:(fun m (e : Event.t) ->
      let current b =
        match Imap.find_opt b m with
        | Some st -> st
        | None -> Value.int 0, Free
      in
      if String.equal e.tag pull_tag then
        match e.args with
        | [ Value.Vint b ] -> (
          match current b with
          | v, Free -> Ok (Imap.add b (v, Owned e.src) m)
          | _, Owned owner ->
            Error
              (Printf.sprintf "race: CPU %d pulls location %d owned by CPU %d"
                 e.src b owner))
        | _ -> Error "pull: bad arguments"
      else if String.equal e.tag push_tag then
        match e.args with
        | [ Value.Vint b; v ] -> (
          match current b with
          | _, Owned owner when owner = e.src -> Ok (Imap.add b (v, Free) m)
          | _, Owned owner ->
            Error
              (Printf.sprintf "race: CPU %d pushes location %d owned by CPU %d"
                 e.src b owner)
          | _, Free ->
            Error (Printf.sprintf "race: CPU %d pushes free location %d" e.src b))
        | _ -> Error "push: bad arguments"
      else Ok m)

let replay_loc b : (Value.t * ownership) Replay.t =
 fun l ->
  match replay_map l with
  | Error _ as e -> e
  | Ok m -> (
    match Imap.find_opt b m with
    | Some st -> Ok st
    | None -> Ok (Value.int 0, Free))

let race_free l = Replay.well_formed replay_map l

(* The prims inspect the ownership state of the location {e before}
   appending their own event: a pre-existing replay error means the log was
   already ill-formed (ordinary stuckness), while an ownership conflict
   introduced by this very call is a data race ([Layer.Race]) — the checkers
   classify on that constructor instead of scanning message strings. *)
let pull_prim =
  ( pull_tag,
    Layer.Shared
      (fun c args log ->
        match args with
        | [ Value.Vint b ] -> (
          match replay_loc b log with
          | Error msg -> Layer.Stuck msg
          | Ok (_, Owned owner) ->
            Layer.Race
              (Printf.sprintf "race: CPU %d pulls location %d owned by CPU %d"
                 c b owner)
          | Ok (v, Free) ->
            let ev = Event.make ~args ~ret:v c pull_tag in
            Layer.Step { events = [ ev ]; ret = v; crit = Layer.Enter })
        | _ -> Layer.Stuck "pull: expected one location argument") )

let push_prim =
  ( push_tag,
    Layer.Shared
      (fun c args log ->
        match args with
        | [ Value.Vint b; _ ] -> (
          match replay_loc b log with
          | Error msg -> Layer.Stuck msg
          | Ok (_, Owned owner) when owner = c ->
            let ev = Event.make ~args c push_tag in
            Layer.Step { events = [ ev ]; ret = Value.unit; crit = Layer.Exit }
          | Ok (_, Owned owner) ->
            Layer.Race
              (Printf.sprintf "race: CPU %d pushes location %d owned by CPU %d"
                 c b owner)
          | Ok (_, Free) ->
            Layer.Race (Printf.sprintf "race: CPU %d pushes free location %d" c b))
        | _ -> Layer.Stuck "push: expected location and value arguments") )

let prims = [ pull_prim; push_prim ]
