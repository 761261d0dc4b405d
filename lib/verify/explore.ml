open Ccal_core
module Engine = Strategy.Engine

(* An empty alphabet has one trace, the empty one, at every depth: the
   walk plays the one threadless game too. *)
let exhaustive_scheds ~tids ~depth =
  let rec traces d =
    if d <= 0 || tids = [] then [ [] ]
    else
      let shorter = traces (d - 1) in
      List.concat_map (fun t -> List.map (fun tr -> t :: tr) shorter) tids
  in
  List.map (Sched.of_trace ~tag:"exh") (traces depth)

(* One [match] on the closed [algo] variant (DESIGN.md S31): [dpor] is
   the only walking engine.  The descriptor is not validated here: the
   oracle runs at any depth the walk accepted, zero included. *)
let suite ~ctx (engine : Engine.t) layer threads =
  let depth = engine.Engine.depth in
  let table () = Game.table ~memory:ctx.Ctx.memory layer threads in
  match engine.Engine.algo with
  | Engine.Dpor ->
    let prefixes, _ = Dpor.walk ~engine (table ()) in
    (* [dpor] and [dpor,sym] share the "dpor" tag: a scheduler's name is
       its prefix alone.  Edge keys fold the descriptor, not these names,
       so the two engines never share a key. *)
    List.map (Sched.of_trace ~tag:"dpor") prefixes
  | Engine.Exhaustive ->
    (* The alphabet is the played threads, pseudo-threads included. *)
    exhaustive_scheds ~tids:(List.map fst (Game.played (table ()))) ~depth
  | Engine.Random ->
    (* [depth] doubles as the suite size for the random engine. *)
    Sched.default_suite ~seeds:depth

let scheds_of_strategy_ctx ~ctx layer threads =
  suite ~ctx (Engine.checked ctx.Ctx.strategy) layer threads

(* The suite played and judged in the [explore.run_all] span. *)
let judge_all_ctx ~ctx layer threads judge scheds =
  Ctx.arm ctx @@ fun () ->
  Probe.span "explore.run_all" (fun () ->
      Parallel.games ~ctx layer threads judge scheds)

let run_all_ctx ~ctx layer threads scheds =
  judge_all_ctx ~ctx layer threads (fun _ o -> o) scheds

let all_logs outcomes = List.map (fun o -> o.Game.log) outcomes

type oracle = { runs : int; logs : Log.t list; agree : bool }

(* The oracle's alphabet holds the pseudo-threads the walk explored.
   Under [sym] the walk keeps one log per orbit, so inclusion is the
   rule; otherwise both lists are distinct, so inclusion plus equal
   sizes is set equality.  Under [Commuting_events] both are decided up
   to commuting independent events, by trace key: each exhaustive log is
   keyed inside the scan, where it is played, as [Dpor.explore_ctx]
   keys its leaves, and the scan keeps no outcome. *)
let oracle_ctx ~ctx ~independence ~sym ~depth layer threads
    (dpor : Dpor.result) =
  let keyed l =
    match (independence : Dpor.independence) with
    | Exact -> 0, l
    | Commuting_events -> Dpor.trace_key l, l
  in
  (* The distinct logs, and whether they cover a list of logs. *)
  let classes played =
    match independence with
    | Exact ->
      let logs = Log.dedup (List.map snd played) in
      logs, fun a -> Log.subset a logs
    | Commuting_events ->
      let classes = Dpor.dedup_traces played in
      ( List.map snd classes,
        fun a -> Dpor.subset_traces (List.map keyed a) classes )
  in
  let exhaustive = { Engine.algo = Engine.Exhaustive; depth; sym = false } in
  Probe.span "explore.oracle" (fun () ->
      judge_all_ctx ~ctx layer threads
        (fun _ o -> keyed o.Game.log)
        (suite ~ctx exhaustive layer threads)
      |> Budget.map (fun played -> List.length played, classes played))
  |> Budget.map (fun (runs, (logs, covers)) ->
         let agree =
           Probe.span "explore.agree" (fun () ->
               covers dpor.Dpor.distinct
               && (sym || List.length dpor.Dpor.distinct = List.length logs))
         in
         { runs; logs; agree })
