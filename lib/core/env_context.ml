exception Invalid_env of string

type t = {
  name : string;
  query : focus:Event.tid list -> Log.t -> Event.t list;
}

let empty = { name = "empty"; query = (fun ~focus:_ _ -> []) }

let make name query = { name; query }

let of_script name chunks =
  let remaining = ref chunks in
  {
    name;
    query =
      (fun ~focus:_ _ ->
        match !remaining with
        | [] -> []
        | chunk :: rest ->
          remaining := rest;
          chunk);
  }

let of_strategies name parts ~rounds =
  (* Mutable resumption state per participant: each query advances every
     live environment participant by at most [rounds] moves, interleaved
     round-robin, and returns everything they emitted. *)
  let states = ref (List.map (fun (i, s) -> i, Some s) parts) in
  let query ~focus:_ log =
    let emitted = ref [] in
    let log = ref log in
    for _ = 1 to rounds do
      states :=
        List.map
          (fun (i, st) ->
            match st with
            | None -> i, None
            | Some s -> (
              match s.Strategy.step !log with
              | Strategy.Move (evs, out) ->
                List.iter
                  (fun e ->
                    emitted := e :: !emitted;
                    log := Log.append e !log)
                  evs;
                let st' =
                  match out with
                  | Strategy.Done _ -> None
                  | Strategy.Next s' -> Some s'
                in
                i, st'
              | Strategy.Blocked -> i, Some s
              | Strategy.Refuse _ -> i, None))
          !states
    done;
    List.rev !emitted
  in
  { name; query }

let checked ~rely e =
  {
    name = e.name ^ "|checked";
    query =
      (fun ~focus log ->
        let evs = e.query ~focus log in
        if List.exists (fun (e : Event.t) -> List.mem e.src focus) evs then
          raise
            (Invalid_env
               (Printf.sprintf "context %s produced an event from the focused set"
                  e.name));
        let log' = Log.append_all evs log in
        List.iter
          (fun (ev : Event.t) ->
            if not (rely.Rely_guarantee.holds ev.src log') then
              raise
                (Invalid_env
                   (Printf.sprintf "context %s violates rely %s for thread %d"
                      e.name rely.Rely_guarantee.name ev.src)))
          evs;
        evs);
  }
