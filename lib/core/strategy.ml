type t = { step : Log.t -> step_result }

and step_result =
  | Move of Event.t list * outcome
  | Blocked
  | Refuse of string

and outcome =
  | Done of Value.t
  | Next of t

let stopped v = { step = (fun _ -> Move ([], Done v)) }

let of_moves ?(ret = Value.unit) moves =
  let rec go = function
    | [] -> stopped ret
    | m :: rest -> { step = (fun l -> Move (m l, Next (go rest))) }
  in
  go moves

let rec map_events f s =
  {
    step =
      (fun l ->
        match s.step l with
        | Move (evs, out) ->
          let out' =
            match out with
            | Done v -> Done v
            | Next s' -> Next (map_events f s')
          in
          Move (List.concat_map f evs, out')
        | Blocked -> Blocked
        | Refuse msg -> Refuse msg);
  }

(* ------------------------------------------------------------------ *)
(* Exploration engines (DESIGN.md S31)                                 *)
(* ------------------------------------------------------------------ *)

module Engine = struct
  type algo = Exhaustive | Dpor | Random

  type t = {
    algo : algo;
    depth : int;
    sym : bool;
  }

  let algo_name = function
    | Exhaustive -> "exhaustive"
    | Dpor -> "dpor"
    | Random -> "random"

  let grammar =
    "default | dpor[:DEPTH][,sym] | exhaustive[:DEPTH] | random[:COUNT]"

  let validate t =
    if t.depth <= 0 then
      Error
        (Printf.sprintf "invalid strategy: %s %d must be positive"
           (match t.algo with Random -> "count" | _ -> "depth")
           t.depth)
    else if t.sym && t.algo <> Dpor then
      Error
        (Printf.sprintf
           "invalid strategy combination: engine \"%s\" does not take flag \
            \"sym\" (only \"dpor\" supports sym)"
           (algo_name t.algo))
    else Ok ()

  let checked t =
    match validate t with Ok () -> t | Error msg -> invalid_arg msg

  let dpor ~depth = checked { algo = Dpor; depth; sym = false }

  let exhaustive ~depth = checked { algo = Exhaustive; depth; sym = false }

  let random ~count = checked { algo = Random; depth = count; sym = false }

  let default = dpor ~depth:4

  (* Canonical descriptor.  This string is cache-identity-bearing: it
     enters the stack and kv edge keys, so its rendering must stay
     stable. *)
  let to_string t =
    Printf.sprintf "%s:%d%s" (algo_name t.algo) t.depth
      (if t.sym then ",sym" else "")

  let pp fmt t = Format.pp_print_string fmt (to_string t)

  (* The spellings of the engine S31 folded into [dpor] are rejected by
     name, so an old command line fails loudly instead of changing
     meaning. *)
  let removed s what =
    Error
      (Printf.sprintf
         "invalid strategy %S: %s was removed; use dpor[:DEPTH],sym" s what)

  let of_string s =
    let ( let* ) = Result.bind in
    match String.split_on_char ',' (String.trim s) with
    | [] | [ "" ] ->
      Error (Printf.sprintf "empty strategy (expected %s)" grammar)
    | base :: flags ->
      let* algo, depth =
        let name, num =
          match String.index_opt base ':' with
          | None -> base, None
          | Some i ->
            ( String.sub base 0 i,
              Some (String.sub base (i + 1) (String.length base - i - 1)) )
        in
        let* n =
          match num with
          | None -> Ok None
          | Some raw -> (
            match int_of_string_opt raw with
            | Some n -> Ok (Some n)
            | None ->
              Error
                (Printf.sprintf "invalid strategy %S: %S is not an integer" s
                   raw))
        in
        match name, n with
        | "default", None -> Ok (Dpor, 4)
        | "default", Some _ ->
          Error
            (Printf.sprintf
               "invalid strategy %S: \"default\" takes no depth" s)
        | "dpor", n -> Ok (Dpor, Option.value n ~default:4)
        | "optimal", _ -> removed s "the \"optimal\" engine"
        | "exhaustive", n -> Ok (Exhaustive, Option.value n ~default:4)
        | "random", n -> Ok (Random, Option.value n ~default:16)
        | other, _ ->
          Error
            (Printf.sprintf "unknown strategy %S (expected %s)" other grammar)
      in
      let* sym =
        List.fold_left
          (fun acc flag ->
            let* sym = acc in
            match String.trim flag with
            | "sym" ->
              if sym then
                Error (Printf.sprintf "invalid strategy %S: duplicate flag \"sym\"" s)
              else Ok true
            | "dedup" -> removed s "state dedup (flag \"dedup\")"
            | other ->
              Error
                (Printf.sprintf
                   "unknown strategy flag %S in %S (expected \"sym\")" other
                   s))
          (Ok false) flags
      in
      let t = { algo; depth; sym } in
      let* () = validate t in
      Ok t

  (* Prune counters of one engine walk, returned alongside the surviving
     prefixes. *)
  type walk_stats = {
    sleep_prunes : int;
    sym_prunes : int;
  }
end
