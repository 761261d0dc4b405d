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
  distinct : Log.t list;
  stats : stats;
}

let reads = [ "get_n"; "aload"; "read" ]

(* What the dependence relation reads of an event, computed once per
   event; the sleep sets and the canonical form both decide dependence
   through [dependent] on these keys.  The object is, by convention, the
   first integer argument: every shared primitive of the concrete objects
   takes the object identifier (lock, cell, location, channel…) there.
   Events without one (e.g. [switch]) are conservatively dependent on
   everything. *)
type key = { src : Event.tid; obj : int option; read : bool }

let key (e : Event.t) =
  {
    src = e.src;
    obj = (match e.args with Value.Vint b :: _ -> Some b | _ -> None);
    read = List.exists (String.equal e.tag) reads;
  }

(* Events of one thread are dependent; so are events of different threads
   on the same object, unless both read it, and any event on no known
   object. *)
let dependent a b =
  a.src = b.src
  ||
  match a.obj, b.obj with
  | Some x, Some y -> x = y && not (a.read && b.read)
  | _ -> true

(* Canonical representative of a Mazurkiewicz trace: repeatedly emit the
   [Event.compare]-least ready event, one whose earlier dependent events
   have all been emitted.  Events of one thread are always dependent, so
   a thread has at most one ready event, its oldest unemitted one, and
   [Event.compare] orders by [src] first: the least ready event is the
   ready head of the thread with the smallest tid.  So each thread keeps
   a cursor into its own events, and an event waits only on the latest
   dependent event of each other thread (earlier ones precede that one
   in its thread).  Two logs are equivalent up to commuting independent
   events iff their canonical forms are equal. *)
let canonical_log log =
  let events = Array.of_list (Log.chronological log) in
  let n = Array.length events in
  let keys = Array.map key events in
  (* the threads' tids, ascending; a handful, so a sorted list *)
  let rec insert t = function
    | [] -> [ t ]
    | u :: rest as l -> if t = u then l else if t < u then t :: l else u :: insert t rest
  in
  let tids =
    Array.of_list
      (Array.fold_left (fun acc (e : Event.t) -> insert e.src acc) [] events)
  in
  let nt = Array.length tids in
  let rank =
    Array.map
      (fun (e : Event.t) ->
        let rec find r = if tids.(r) = e.src then r else find (r + 1) in
        find 0)
      events
  in
  (* Each thread's events are chained both ways: [prev.(i)] and
     [next.(i)] are the events before and after [i] in its thread,
     [head.(r)] thread [r]'s oldest unemitted event and [last.(r)] its
     latest event linked so far (-1 for none).  Each event is linked to
     the latest dependent event of every other thread, found by walking
     that thread's chain back from its latest event. *)
  let prev = Array.make n (-1) and next = Array.make n (-1) in
  let head = Array.make nt (-1) and last = Array.make nt (-1) in
  let succs = Array.make n [] in
  let waiting = Array.make n 0 in
  for j = 0 to n - 1 do
    let own = rank.(j) in
    for r = 0 to nt - 1 do
      if r <> own then begin
        let i = ref last.(r) in
        while !i >= 0 && not (dependent keys.(!i) keys.(j)) do
          i := prev.(!i)
        done;
        if !i >= 0 then begin
          succs.(!i) <- j :: succs.(!i);
          waiting.(j) <- waiting.(j) + 1
        end
      end
    done;
    if last.(own) < 0 then head.(own) <- j else next.(last.(own)) <- j;
    prev.(j) <- last.(own);
    last.(own) <- j
  done;
  let rec ready r =
    let h = head.(r) in
    if h >= 0 && waiting.(h) = 0 then h else ready (r + 1)
  in
  let rec emit acc k =
    if k = n then acc
    else
      let i = ready 0 in
      head.(rank.(i)) <- next.(i);
      List.iter (fun j -> waiting.(j) <- waiting.(j) - 1) succs.(i);
      emit (Log.append events.(i) acc) (k + 1)
  in
  emit Log.empty 0

(* One enabled move of one thread, as classified by the DFS. *)
type move =
  | Fin  (** the thread runs to completion without emitting events *)
  | Step of Event.t list * key list * Machine.thread_state
      (** the events emitted, their keys, and the thread's next state *)
  | Halt  (** picking this thread ends the run stuck — a leaf *)

let independent_moves independence m1 m2 =
  match m1, m2 with
  | Fin, _ | _, Fin -> true
  | Halt, _ | _, Halt -> false
  | Step (_, ks1, _), Step (_, ks2, _) -> (
    match independence with
    | Exact -> false
    | Commuting_events ->
      List.for_all
        (fun k1 -> not (List.exists (dependent k1) ks2))
        ks1)

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
   always runs live.  The read tags and the absent private-fuel bound are
   constants, folded in so the keys stay those of existing stores. *)
let suite_key ~engine ~independence ~memory ~depth layer threads =
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
  Fingerprint.finish (Fingerprint.option Fingerprint.int st None)

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
let prefixes_with_prunes_live ?(independence = Exact) ?jobs
    ?(memory = Memory.default) ~sym ~depth layer threads =
  (* Pseudo-threads (TSO flushers, the crash thread of a crash-enabled
     layer) are part of the schedule space: the DFS explores their moves
     like any other thread's.  [Game.config] re-adds the same
     pseudo-threads internally, so the original [threads] go to replay
     untouched. *)
  let threads = threads @ Game.pseudo_threads ~memory layer threads in
  let classify slots log =
    List.filter_map
      (fun (i, st) ->
        match Machine.step_move layer i st log with
        | Machine.Blocked_at _ -> None
        | Machine.Finished _ -> Some (i, Fin)
        | Machine.Moved (evs, st') ->
          Some (i, Step (evs, List.map key evs, st'))
        | Machine.Stuck _ -> Some (i, Halt))
      slots
  in
  let apply slots log i = function
    | Step (evs, _, st') ->
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
                    (fun (_, m') -> independent_moves independence m' m)
                    (n.sleep @ List.rev !explored)
                in
                let slots', log' = apply n.slots n.log i m in
                let log_ints =
                  match m with
                  | Step (evs, _, _) when sym ->
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
let walk ?(independence = Exact) ?jobs ?cache
    ?(memory = Memory.default) ~engine ~depth layer threads =
  if (engine : Engine.t).algo <> Engine.Dpor then
    invalid_arg ("Dpor.walk: not a DPOR engine: " ^ Engine.to_string engine);
  let body () =
    prefixes_with_prunes_live ~independence ?jobs ~memory
      ~sym:engine.Engine.sym ~depth layer threads
  in
  match cache with
  | None -> body ()
  | Some c -> (
    let key =
      suite_key ~engine ~independence ~memory ~depth layer threads
    in
    match Cache.find c ~kind:"engine" key with
    | Some (walked : Event.tid list list * Engine.walk_stats) -> walked
    | None ->
      let walked = body () in
      Cache.store c ~kind:"engine" key walked;
      walked)

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

let explore_ctx ~ctx ?(independence = Exact) ?engine
    ~depth layer threads =
  Ctx.arm ctx @@ fun () ->
  let engine =
    match engine with Some e -> e | None -> engine_of_ctx ctx
  in
  let prefixes, walk_stats =
    Probe.span "dpor.prefixes" (fun () ->
        walk ~independence ?jobs:(Ctx.jobs_opt ctx)
          ?cache:ctx.Ctx.cache ~memory:ctx.Ctx.memory ~engine ~depth layer
          threads)
  in
  (* Each leaf is canonicalised where it is replayed, so under [jobs > 1]
     the canonical forms are computed on the pool too. *)
  let representative =
    match independence with
    | Exact -> Fun.id
    | Commuting_events ->
      fun log -> Probe.span "dpor.canonicalise" (fun () -> canonical_log log)
  in
  let replay =
    Probe.span "dpor.replay" (fun () ->
        Parallel.budgeted_scan ?jobs:(Ctx.jobs_opt ctx) ~token:ctx.Ctx.token
          ~cost:(fun (o, _) -> o.Game.steps)
          ~interrupted:(fun (o, _) -> o.Game.status = Game.Cancelled)
          ~cut:(fun _ -> false)
          (fun ~stop p ->
            let o =
              Game.run
                (Game.config ?stop ~memory:ctx.Ctx.memory layer
                   threads (Sched.of_trace ~tag:"dpor" p))
            in
            o, representative o.Game.log)
          prefixes)
  in
  let outcomes = List.map fst replay.Parallel.prefix in
  let representatives = List.map snd replay.Parallel.prefix in
  (* The walk schedules the pseudo-threads too, so the exhaustive count
     ranges over the same alphabet as the oracle's prefixes. *)
  let schedules_considered =
    pow
      (List.length
         (threads @ Game.pseudo_threads ~memory:ctx.Ctx.memory layer threads))
      depth
  in
  let distinct =
    Probe.span "dpor.dedup" (fun () -> Log.dedup representatives)
  in
  let distinct_logs = List.length distinct in
  Probe.add Probe.sleep_set_prunes walk_stats.Engine.sleep_prunes;
  Probe.add Probe.logs_distinct distinct_logs;
  let result =
    {
      prefixes;
      outcomes;
      distinct;
      stats =
        {
          schedules_considered;
          schedules_run = List.length outcomes;
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
