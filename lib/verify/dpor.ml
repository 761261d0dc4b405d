open Ccal_core
module Engine = Strategy.Engine

type independence = Exact | Commuting_events

type stats = {
  schedules_considered : int;
  schedules_run : int;
  schedules_pruned : int;
  sleep_set_prunes : int;
  sym_prunes : int;
  distinct_logs : int;
}

type result = {
  prefixes : Event.tid list list;
  outcomes : Game.outcome list;
  stats : stats;
}

let default_reads = [ "get_n"; "aload"; "read" ]

(* The object an event touches: by convention every shared primitive of the
   concrete objects takes the object identifier (lock, cell, location,
   channel…) as its first integer argument.  Events without one (e.g.
   [switch]) are conservatively dependent on everything. *)
let obj (e : Event.t) =
  match e.args with Value.Vint b :: _ -> Some b | _ -> None

let independent_events ?(reads = default_reads) (e1 : Event.t) (e2 : Event.t) =
  e1.src <> e2.src
  &&
  match obj e1, obj e2 with
  | Some a, Some b when a <> b -> true
  | Some _, Some _ -> List.mem e1.tag reads && List.mem e2.tag reads
  | _ -> false

(* Canonical representative of a Mazurkiewicz trace: repeatedly emit the
   [Event.compare]-least event among those with no earlier dependent event.
   Two logs are equivalent up to commuting independent events iff their
   canonical forms are equal. *)
let canonical_events indep events =
  let rec minimal_candidates rev_prefix = function
    | [] -> []
    | e :: rest ->
      let minimal = List.for_all (fun p -> indep p e) rev_prefix in
      let here =
        if minimal then [ e, List.rev_append rev_prefix rest ] else []
      in
      here @ minimal_candidates (e :: rev_prefix) rest
  in
  let rec build acc evs =
    match evs with
    | [] -> List.rev acc
    | first :: _ -> (
      match minimal_candidates [] evs with
      | [] -> List.rev_append acc [ first ] (* unreachable: the head is minimal *)
      | c :: cs ->
        let e, rest =
          List.fold_left
            (fun (be, br) (e, r) ->
              if Event.compare e be < 0 then e, r else be, br)
            c cs
        in
        build (e :: acc) rest)
  in
  build [] events

let canonical_log ?reads log =
  Log.append_all
    (canonical_events (independent_events ?reads) (Log.chronological log))
    Log.empty

(* One enabled move of one thread, as classified by the DFS. *)
type move =
  | Fin  (** the thread runs to completion without emitting events *)
  | Step of Event.t list * Machine.thread_state
  | Halt  (** picking this thread ends the run stuck — a leaf *)

let independent_moves independence reads m1 m2 =
  match m1, m2 with
  | Fin, _ | _, Fin -> true
  | Halt, _ | _, Halt -> false
  | Step (es1, _), Step (es2, _) -> (
    match independence with
    | Exact -> false
    | Commuting_events ->
      List.for_all
        (fun e1 -> List.for_all (independent_events ~reads e1) es2)
        es1)

(* Saturating [b^n].  Deep bounds make [|threads|^depth] overflow
   native ints (e.g. 8 threads at depth 21); a wrapped count would
   silently report nonsense prune ratios, so the count pins at [max_int]
   and [pp_stats] renders that distinctly. *)
let sat_mul a b = if a > 0 && b > max_int / a then max_int else a * b
let pow b n =
  let rec go acc n = if n <= 0 then acc else go (sat_mul acc b) (n - 1) in
  go 1 n

module Iset = Set.Make (Int)

(* Every integer an event carries: its source tid, its arguments and its
   return value.  A tid in this set has leaked into the log as data. *)
let add_event_ints acc (e : Event.t) =
  let rec value acc (v : Value.t) =
    match v with
    | Value.Vint n -> Iset.add n acc
    | Value.Vpair (a, b) -> value (value acc a) b
    | Value.Vlist vs -> List.fold_left value acc vs
    | Value.Vunit | Value.Vbool _ -> acc
  in
  value (List.fold_left value (Iset.add e.src acc) e.args) e.ret

(* A DFS node.  Thread states are immutable, so this is a complete,
   self-contained description of a subtree root: a child's sleep set
   depends only on its parent's sleep set and its earlier siblings' moves,
   and its symmetry decisions only on its own prefix and log integers, all
   known before descending, which is what makes subtrees independent and
   the frontier-parallel walk below possible. *)
type node = {
  slots : (Event.tid * Machine.thread_state) list;
  log : Log.t;
  step : int;
  rev_prefix : Event.tid list;
  log_ints : Iset.t;  (** the log's integers; stays empty unless [sym] *)
  sleep : (Event.tid * move) list;
}

(* The frontier of a partially-expanded DFS, in pre-order: leaves already
   pinned interleave with unexpanded subtree roots. *)
type fringe_item = Leaf of Event.tid list | Subtree of node

let no_prunes = { Engine.sleep_prunes = 0; sym_prunes = 0 }

let add_prunes (a : Engine.walk_stats) (b : Engine.walk_stats) =
  {
    Engine.sleep_prunes = a.sleep_prunes + b.sleep_prunes;
    sym_prunes = a.sym_prunes + b.sym_prunes;
  }

(* Cache key of an engine walk: the engine descriptor plus the game
   identity and every knob that shapes the walk.  The walk has no
   failure mode (a stuck leaf is just a short prefix), so unlike
   verdicts its result is stored unconditionally; the replay phase
   always runs live. *)
let suite_key ?private_fuel ~engine ~independence ~reads ~memory ~depth layer
    threads =
  let st = Fingerprint.string Fingerprint.empty "engine-suite" in
  let st =
    Fingerprint.string st (Engine.to_string { engine with Engine.depth })
  in
  let st = Fingerprint.layer st layer in
  let st = Fingerprint.memory st memory in
  let st =
    Fingerprint.list
      (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
      st threads
  in
  let st = Fingerprint.int st depth in
  let st =
    Fingerprint.int st (match independence with Exact -> 1 | Commuting_events -> 2)
  in
  let st = Fingerprint.list Fingerprint.string st reads in
  Fingerprint.finish (Fingerprint.option Fingerprint.int st private_fuel)

(* Sleep-set DFS over the enabled moves of the whole-machine game, bounded
   to [depth] scheduling choices.  Each surviving branch records its
   choice prefix, later replayed through [Game.run] so leaf outcomes are
   bit-identical to the exhaustive oracle's.

   [sym] adds symmetry reduction across identical fresh threads.  Two
   real threads whose initial programs differ only in their own tid
   (equal {!Fingerprint.prog_blind} fingerprints) are interchangeable
   until either is scheduled or either tid leaks into the log as data; at
   any node where several such threads are enabled, fresh, and absent
   from the log's integers, only the first is explored.  The pruned
   branches are covered up to the tid transposition, so leaf logs are
   preserved only up to renaming.  With [sym] off the walk computes no
   classes and collects no log integers.

   With [jobs > 1] the root is expanded level-synchronously until the
   frontier holds enough subtrees to feed the pool; subtrees then run
   sequential DFS on separate domains and their results are concatenated
   in fringe order.  Pre-order is preserved at every stage, so the prefix
   list (and the prune counts, sums) is identical for every jobs count. *)
let prefixes_with_prunes_live ?private_fuel ?(independence = Exact)
    ?(reads = default_reads) ?jobs ?(memory = Memory.default) ~sym ~depth
    layer threads =
  (* Pseudo-threads (TSO flushers, the crash thread of a crash-enabled
     layer) are part of the schedule space: the DFS explores their moves
     like any other thread's.  [Game.config] re-adds the same
     pseudo-threads internally, so the original [threads] go to replay
     untouched. *)
  let threads = threads @ Game.pseudo_threads ~memory layer threads in
  let classify slots log =
    List.filter_map
      (fun (i, st) ->
        match Machine.step_move ?private_fuel layer i st log with
        | Machine.Blocked_at _ -> None
        | Machine.Finished _ -> Some (i, Fin)
        | Machine.Moved (evs, st') -> Some (i, Step (evs, st'))
        | Machine.Stuck _ -> Some (i, Halt))
      slots
  in
  let apply slots log i = function
    | Step (evs, st') ->
      ( List.map (fun (j, st) -> if j = i then j, st' else j, st) slots,
        Log.append_all evs log )
    | Fin -> List.filter (fun (j, _) -> j <> i) slots, log
    | Halt -> slots, log
  in
  (* Symmetry classes over the real tids: the tid-blinded fingerprint of
     each initial program, computed once — freshness (tid never
     scheduled) means the thread still sits in its initial state. *)
  let sym_class =
    if not sym then fun _ -> None
    else
      let classes =
        List.filter_map
          (fun (i, p) ->
            if i < 0 then None
            else
              Some
                ( i,
                  Fingerprint.finish
                    (Fingerprint.prog_blind ~tid:i Fingerprint.empty p) ))
          threads
      in
      fun i -> List.assoc_opt i classes
  in
  (* Whether [sym] prunes thread [i] at node [n]: it is fresh, its tid is
     not in the log, and an earlier sibling of its class was kept
     ([reps] holds the classes kept so far at this node). *)
  let symmetric n reps i m =
    m <> Halt && i >= 0
    && (not (List.mem i n.rev_prefix))
    && (not (Iset.mem i n.log_ints))
    &&
    match sym_class i with
    | None -> false
    | Some c ->
      List.exists (Fingerprint.equal c) !reps
      ||
      (reps := c :: !reps;
       false)
  in
  (* One level of expansion: the node's children (and immediate leaves) in
     sibling order, plus the sleep-set and symmetry prunes taken at this
     node. *)
  let expand n =
    if n.step >= depth || n.slots = [] then
      [ Leaf (List.rev n.rev_prefix) ], 0, 0
    else
      match classify n.slots n.log with
      | [] -> [ Leaf (List.rev n.rev_prefix) ], 0, 0 (* deadlock: all blocked *)
      | enabled ->
        let prunes = ref 0 in
        let sym_prunes = ref 0 in
        let reps = ref [] in
        let explored = ref [] in
        let items = ref [] in
        List.iter
          (fun (i, m) ->
            if List.exists (fun (j, _) -> j = i) n.sleep then incr prunes
            else if sym && symmetric n reps i m then incr sym_prunes
            else (
              (match m with
              | Halt -> items := Leaf (List.rev (i :: n.rev_prefix)) :: !items
              | Fin | Step _ ->
                let sleep' =
                  List.filter
                    (fun (_, m') -> independent_moves independence reads m' m)
                    (n.sleep @ List.rev !explored)
                in
                let slots', log' = apply n.slots n.log i m in
                let log_ints =
                  match m with
                  | Step (evs, _) when sym ->
                    List.fold_left add_event_ints n.log_ints evs
                  | Fin | Step _ | Halt -> n.log_ints
                in
                items :=
                  Subtree
                    {
                      slots = slots';
                      log = log';
                      step = n.step + 1;
                      rev_prefix = i :: n.rev_prefix;
                      log_ints;
                      sleep = sleep';
                    }
                  :: !items);
              explored := (i, m) :: !explored))
          enabled;
        List.rev !items, !prunes, !sym_prunes
  in
  (* Sequential DFS of a whole subtree, expressed through [expand] so the
     sequential and the split walk run literally the same transition
     code. *)
  let dfs_from root =
    let recorded = ref [] in
    let prunes = ref 0 in
    let sym_prunes = ref 0 in
    let rec go n =
      let items, p, s = expand n in
      prunes := !prunes + p;
      sym_prunes := !sym_prunes + s;
      List.iter
        (function
          | Leaf prefix -> recorded := prefix :: !recorded
          | Subtree n' -> go n')
        items
    in
    go root;
    ( List.rev !recorded,
      { Engine.sleep_prunes = !prunes; sym_prunes = !sym_prunes } )
  in
  let root =
    {
      slots = List.map (fun (i, p) -> i, Machine.initial layer i p) threads;
      log = Log.empty;
      step = 0;
      rev_prefix = [];
      log_ints = Iset.empty;
      sleep = [];
    }
  in
  let jobs = match jobs with Some j -> max 1 j | None -> 1 in
  if jobs <= 1 then dfs_from root
  else begin
    (* Grow the frontier breadth-first until it can feed the pool.  Each
       round replaces every subtree root by its expansion, in place, so
       fringe order stays pre-order.

       The split depth is calibrated, not fixed: each round descends one
       level, and growth stops at the shallowest depth whose frontier
       holds [jobs * 8] subtrees — enough outstanding subtrees that an
       uneven one (sleep sets prune subtrees very unevenly) can be
       absorbed by work stealing, while keeping each subtree a full
       domain-local DFS: sleep sets never cross a domain boundary, and
       no two domains ever touch the same prefix. *)
    let target = jobs * 8 in
    let count_subtrees fringe =
      List.length
        (List.filter (function Subtree _ -> true | Leaf _ -> false) fringe)
    in
    let rec grow fringe prunes rounds =
      let subtrees = count_subtrees fringe in
      if subtrees = 0 || subtrees >= target || rounds <= 0 then fringe, prunes
      else
        let prunes = ref prunes in
        let fringe' =
          List.concat_map
            (function
              | Leaf _ as l -> [ l ]
              | Subtree n ->
                let items, p, s = expand n in
                prunes :=
                  add_prunes !prunes
                    { Engine.sleep_prunes = p; sym_prunes = s };
                items)
            fringe
        in
        grow fringe' !prunes (rounds - 1)
    in
    let fringe, grow_prunes = grow [ Subtree root ] no_prunes (depth + 1) in
    let parts =
      Parallel.map ~jobs
        (function Leaf p -> [ p ], no_prunes | Subtree n -> dfs_from n)
        fringe
    in
    ( List.concat_map fst parts,
      List.fold_left (fun acc (_, p) -> add_prunes acc p) grow_prunes parts )
  end

(* The walk behind every [dpor] suite, memoized in [cache] (kind
   ["engine"]) under {!suite_key}. *)
let walk ?private_fuel ?(independence = Exact) ?(reads = default_reads) ?jobs
    ?cache ?(memory = Memory.default) ~engine ~depth layer threads =
  if (engine : Engine.t).algo <> Engine.Dpor then
    invalid_arg ("Dpor.walk: not a DPOR engine: " ^ Engine.to_string engine);
  let body () =
    prefixes_with_prunes_live ?private_fuel ~independence ~reads ?jobs
      ~memory ~sym:engine.Engine.sym ~depth layer threads
  in
  match cache with
  | None -> body ()
  | Some c -> (
    let key =
      suite_key ?private_fuel ~engine ~independence ~reads ~memory ~depth
        layer threads
    in
    match Cache.find c ~kind:"engine" key with
    | Some (walked : Event.tid list list * Engine.walk_stats) -> walked
    | None ->
      let walked = body () in
      Cache.store c ~kind:"engine" key walked;
      walked)

let sched_of_prefix prefix =
  Sched.of_trace
    ~name:
      (Printf.sprintf "dpor:[%s]"
         (String.concat "," (List.map string_of_int prefix)))
    prefix

let pp_count fmt n =
  if n = max_int then Format.pp_print_string fmt ">max-int"
  else Format.pp_print_int fmt n

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<h>schedules: %d run / %a considered (%a pruned, %d sleep-set skips%t); %d distinct logs@]"
    s.schedules_run pp_count s.schedules_considered pp_count
    s.schedules_pruned s.sleep_set_prunes
    (fun fmt ->
      if s.sym_prunes > 0 then
        Format.fprintf fmt ", %d symmetry prunes" s.sym_prunes)
    s.distinct_logs

(* ------------------------------------------------------------------ *)
(* unified-context entry points (DESIGN.md S27)                        *)
(* ------------------------------------------------------------------ *)

(* The DFS walk itself stays un-budgeted: it is depth-bounded and cheap
   relative to replay, and keeping it whole means an [Exhausted] explore
   still reports the complete schedule frontier — exactly what a resumed
   run needs.  Only the replay phase, which runs full games, charges the
   step budget. *)

(* The engine a context implies for the walk: the context's strategy
   when it is [dpor], otherwise the default (a checker driving an
   [exhaustive]/[random] context never reaches the walk —
   [Explore.scheds_of_strategy_ctx] builds those suites itself). *)
let engine_of_ctx ctx =
  match (ctx.Ctx.strategy : Engine.t).algo with
  | Engine.Dpor -> ctx.Ctx.strategy
  | Engine.Exhaustive | Engine.Random -> Engine.default

let prefixes_ctx ~ctx ?private_fuel ?independence ?reads ?engine ~depth layer
    threads =
  let engine =
    match engine with Some e -> e | None -> engine_of_ctx ctx
  in
  Ctx.arm ctx (fun () ->
      fst
        (walk ?private_fuel ?independence ?reads ?jobs:(Ctx.jobs_opt ctx)
           ?cache:ctx.Ctx.cache ~memory:ctx.Ctx.memory ~engine ~depth layer
           threads))

let explore_ctx ~ctx ?max_steps ?private_fuel ?(independence = Exact) ?reads
    ?engine ~depth layer threads =
  Ctx.arm ctx @@ fun () ->
  let engine =
    match engine with Some e -> e | None -> engine_of_ctx ctx
  in
  let prefixes, walk_stats =
    Probe.span "dpor.prefixes" (fun () ->
        walk ?private_fuel ~independence ?reads ?jobs:(Ctx.jobs_opt ctx)
          ?cache:ctx.Ctx.cache ~memory:ctx.Ctx.memory ~engine ~depth layer
          threads)
  in
  let replay =
    Probe.span "dpor.replay" (fun () ->
        Parallel.budgeted_scan ?jobs:(Ctx.jobs_opt ctx) ~token:ctx.Ctx.token
          ~cost:(fun o -> o.Game.steps)
          ~interrupted:(fun o -> o.Game.status = Game.Cancelled)
          ~cut:(fun _ -> false)
          (fun ~stop p ->
            Game.run
              (Game.config ?max_steps ?stop ~memory:ctx.Ctx.memory layer
                 threads (sched_of_prefix p)))
          prefixes)
  in
  let outcomes = replay.Parallel.prefix in
  let logs = List.map (fun o -> o.Game.log) outcomes in
  let representative =
    match independence with
    | Exact -> logs
    | Commuting_events -> List.map (canonical_log ?reads) logs
  in
  let schedules_considered = pow (List.length threads) depth in
  let distinct_logs =
    Probe.span "dpor.dedup" (fun () -> List.length (Log.dedup representative))
  in
  Probe.add Probe.sleep_set_prunes walk_stats.Engine.sleep_prunes;
  Probe.add Probe.logs_distinct distinct_logs;
  let result =
    {
      prefixes;
      outcomes;
      stats =
        {
          schedules_considered;
          schedules_run = replay.Parallel.scanned;
          schedules_pruned =
            max 0 (schedules_considered - List.length prefixes);
          sleep_set_prunes = walk_stats.Engine.sleep_prunes;
          sym_prunes = walk_stats.Engine.sym_prunes;
          distinct_logs;
        };
    }
  in
  if replay.Parallel.ran_out then
    Budget.Exhausted { spent = Budget.spent ctx.Ctx.token; partial = result }
  else Budget.Complete result
