open Ccal_core
module Engine = Strategy.Engine

let exhaustive_scheds ~tids ~depth =
  let rec traces d =
    if d <= 0 then [ [] ]
    else
      let shorter = traces (d - 1) in
      List.concat_map (fun t -> List.map (fun tr -> t :: tr) shorter) tids
  in
  List.map (Sched.of_trace ~tag:"exh") (traces depth)

let random_scheds ~count = List.init count (fun k -> Sched.random ~seed:(k + 1))

let full_suite ~tids ?(depth = 4) ?(random = 16) () =
  (Sched.round_robin :: exhaustive_scheds ~tids ~depth) @ random_scheds ~count:random

(* One [match] on the closed [algo] variant (DESIGN.md S31): [dpor] is
   the only walking engine, and [Dpor.walk] owns its suite cache.  The
   descriptor is not validated here: the oracle runs at any depth the
   walk accepted, zero included. *)
let suite ~ctx (engine : Engine.t) layer threads =
  let depth = engine.Engine.depth in
  match engine.Engine.algo with
  | Engine.Dpor ->
    let prefixes, _ =
      Dpor.walk ?jobs:(Ctx.jobs_opt ctx) ?cache:ctx.Ctx.cache
        ~memory:ctx.Ctx.memory ~engine ~depth layer threads
    in
    (* [dpor] and [dpor,sym] share the "dpor" tag: identical prefixes
       share verdict cache entries, sound because the games are identical. *)
    List.map (Sched.of_trace ~tag:"dpor") prefixes
  | Engine.Exhaustive ->
    (* Pseudo-threads (TSO flushers, the crash thread) are schedulable
       too, so the exhaustive prefix alphabet must include their tids.
       Never cached: materializing all [|tids|^depth] prefixes is the
       cost, and a cache entry would be as large as recomputing it. *)
    let effective =
      threads @ Game.pseudo_threads ~memory:ctx.Ctx.memory layer threads
    in
    exhaustive_scheds ~tids:(List.map fst effective) ~depth
  | Engine.Random ->
    (* [depth] doubles as the suite size for the random engine. *)
    random_scheds ~count:depth

let scheds_of_strategy_ctx ~ctx layer threads =
  suite ~ctx (Engine.checked ctx.Ctx.strategy) layer threads

(* Cache key of a [run_all] call: the complete game identity — layer,
   linked client programs, scheduler suite (by name); the absent fuel
   bound is folded in as a constant, so existing keys hold.  [jobs] is
   deliberately absent: outcomes are bit-identical across jobs counts. *)
let runall_key ~memory layer threads scheds =
  let st = Fingerprint.string Fingerprint.empty "runall" in
  let st = Fingerprint.layer st layer in
  let st = Fingerprint.memory st memory in
  let st =
    Fingerprint.list
      (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
      st threads
  in
  let st = Fingerprint.scheds st scheds in
  Fingerprint.finish (Fingerprint.option Fingerprint.int st None)

let run_all_ctx ~ctx layer threads scheds =
  Ctx.arm ctx @@ fun () ->
  let body () =
    Probe.span "explore.run_all" (fun () ->
        Parallel.budgeted_scan
          ?jobs:(Ctx.jobs_opt ctx)
          ~token:ctx.Ctx.token
          ~cost:(fun o -> o.Game.steps)
          ~interrupted:(fun o -> o.Game.status = Game.Cancelled)
          ~cut:(fun _ -> false)
          (fun ~stop sched ->
            Game.run
              (Game.config ?stop ~memory:ctx.Ctx.memory layer threads sched))
          scheds)
  in
  let finish (b : Game.outcome Parallel.budgeted) =
    if b.Parallel.ran_out then
      Budget.Exhausted
        { spent = Budget.spent ctx.Ctx.token; partial = b.Parallel.prefix }
    else Budget.Complete b.Parallel.prefix
  in
  match ctx.Ctx.cache with
  | None -> finish (body ())
  | Some c -> (
    let key = runall_key ~memory:ctx.Ctx.memory layer threads scheds in
    match Cache.find c ~kind:"runall" key with
    | Some (outcomes : Game.outcome list) -> Budget.Complete outcomes
    | None -> (
      match finish (body ()) with
      | Budget.Complete outcomes as r ->
        (* Only fully clean, fully explored corpora are stored: any
           non-[All_done] status is a (potential) failure and must always
           reproduce live, and an exhausted prefix is not the corpus. *)
        if List.for_all (fun o -> o.Game.status = Game.All_done) outcomes
        then Cache.store c ~kind:"runall" key outcomes;
        r
      | Budget.Exhausted _ as r -> r))

let all_logs outcomes = List.map (fun o -> o.Game.log) outcomes

let count_distinct_logs outcomes = List.length (Log.dedup (all_logs outcomes))

type oracle = { runs : int; logs : Log.t list; agree : bool }

(* The oracle's alphabet holds the pseudo-threads the walk explored.
   Under [sym] the walk keeps one log per orbit, so inclusion is the
   rule; otherwise both lists are distinct, so inclusion plus equal
   sizes is set equality. *)
let oracle_ctx ~ctx ~independence ~sym ~depth layer threads
    (dpor : Dpor.result) =
  let canon =
    match (independence : Dpor.independence) with
    | Exact -> Fun.id
    | Commuting_events -> Dpor.canonical_log
  in
  let exhaustive = { Engine.algo = Engine.Exhaustive; depth; sym = false } in
  Probe.span "explore.oracle" (fun () ->
      run_all_ctx ~ctx layer threads (suite ~ctx exhaustive layer threads)
      |> Budget.map (fun outs ->
             List.length outs, Log.dedup (List.map canon (all_logs outs))))
  |> Budget.map (fun (runs, logs) ->
         let agree =
           Probe.span "explore.agree" (fun () ->
               Log.subset dpor.Dpor.distinct logs
               && (sym || List.length dpor.Dpor.distinct = List.length logs))
         in
         { runs; logs; agree })
