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
    obj = Event.obj_of_args e.args;
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

(* Trace identity by projection (DESIGN.md S34).  [dependent] is a union
   of cliques, so two logs are equivalent iff their projections onto
   every clique are equal.  [fold_placed] visits the events newest first
   with the counts that fix those projections: the later events of the
   same thread, the later writes on the same object, and the later
   object-less events.  The counters are association lists: a log has a
   handful of threads and objects. *)
let rec counter tbl k = function
  | (k', c) :: rest -> if k = (k' : int) then c else counter tbl k rest
  | [] -> let c = ref 0 in tbl := (k, c) :: !tbl; c

let fold_placed f init log =
  let threads = ref [] and writes = ref [] and barriers = ref 0 in
  List.fold_left
    (fun acc (e : Event.t) ->
      let k = key e in
      let t = counter threads k.src !threads in
      let w =
        match k.obj with None -> barriers | Some x -> counter writes x !writes
      in
      let acc = f acc e !t !w !barriers in
      incr t;
      if Option.is_none k.obj || not k.read then incr w;
      acc)
    init (Log.newest_first log)

(* A sum over the placed events: their order in the log does not enter. *)
let trace_key log =
  fold_placed
    (fun acc e t w b -> acc + Log.mix (Log.mix (Log.mix (Event.hash e) t) w) b)
    0 log

(* Each thread's placed events, threads in ascending tid order. *)
let placed log =
  List.stable_sort
    (fun ((a : Event.t), _, _) ((b : Event.t), _, _) -> Int.compare a.src b.src)
    (fold_placed (fun acc e _ w b -> (e, w, b) :: acc) [] log)

let equivalent a b =
  Log.equal a b
  || Log.length a = Log.length b
     && List.equal
          (fun (e, w, b) (e', w', b') -> w = w' && b = b' && Event.equal e e')
          (placed a) (placed b)

(* Bucketed on the keys, classes decided by [equivalent]: a collision
   costs time, never a class. *)
let dedup_traces keyed =
  let buckets = Hashtbl.create 64 in
  List.filter
    (fun (k, l) ->
      (not (List.exists (equivalent l) (Hashtbl.find_all buckets k)))
      && (Hashtbl.add buckets k l;
          true))
    keyed

let subset_traces a b =
  let buckets = Hashtbl.create 64 in
  List.iter (fun (k, l) -> Hashtbl.add buckets k l) b;
  List.for_all
    (fun (k, l) -> List.exists (equivalent l) (Hashtbl.find_all buckets k))
    a

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
   and its symmetry decisions only on its own prefix and log integers. *)
type node = {
  slots : (Event.tid * Machine.thread_state) list;
  log : Log.t;
  step : int;
  rev_prefix : Event.tid list;
  log_ints : Iset.t;  (** the log's integers; stays empty unless [sym] *)
  sleep : (Event.tid * move) list;
}

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

   Each leaf is recorded as the DFS reaches it, so the prefixes come out
   in DFS pre-order.  The walk is one replay scope (DESIGN.md S32): a
   child's log extends its parent's, so the replay folds resume down each
   path.  This walk is behind every [dpor] suite. *)
let walk ?(independence = Exact) ~engine table =
  if (engine : Engine.t).algo <> Engine.Dpor then
    invalid_arg ("Dpor.walk: not a DPOR engine: " ^ Engine.to_string engine);
  let sym = engine.Engine.sym and depth = engine.Engine.depth in
  (* The played threads include the pseudo-threads (TSO flushers, the
     crash thread): the DFS explores their moves like any other's. *)
  let layer = Game.layer table and threads = Game.played table in
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
  let recorded = ref [] in
  let prunes = ref 0 in
  let sym_prunes = ref 0 in
  let leaf rev_prefix = recorded := List.rev rev_prefix :: !recorded in
  let rec go n =
    match if n.step >= depth then [] else classify n.slots n.log with
    | [] -> leaf n.rev_prefix (* the depth bound, the end, or deadlock *)
    | enabled ->
      let reps = ref [] in
      let visit explored (i, m) =
        if List.exists (fun (j, _) -> j = i) n.sleep then (
          incr prunes;
          explored)
        else if sym && symmetric n reps i m then (
          incr sym_prunes;
          explored)
        else begin
          (match m with
          | Halt -> leaf (i :: n.rev_prefix)
          | Fin | Step _ ->
            let slots, log = apply n.slots n.log i m in
            go
              {
                slots;
                log;
                step = n.step + 1;
                rev_prefix = i :: n.rev_prefix;
                log_ints =
                  (match m with
                  | Step (evs, _, _) when sym ->
                    List.fold_left add_event_ints n.log_ints evs
                  | Fin | Step _ | Halt -> n.log_ints);
                sleep =
                  List.filter
                    (fun (_, m') -> independent_moves independence m' m)
                    (n.sleep @ List.rev explored);
              });
          (i, m) :: explored
        end
      in
      ignore (List.fold_left visit [] enabled)
  in
  Replay.scoped (fun () ->
      go
        {
          slots = List.map (fun (i, p) -> i, Machine.initial layer i p) threads;
          log = Log.empty;
          step = 0;
          rev_prefix = [];
          log_ints = Iset.empty;
          sleep = [];
        });
  ( List.rev !recorded,
    { Engine.sleep_prunes = !prunes; sym_prunes = !sym_prunes } )

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

(* The DFS walk itself is never charged: it is depth-bounded and cheap
   relative to replay, and keeping it whole means an [Exhausted] explore
   still reports the complete schedule frontier.  Only the replay phase,
   which runs full games, charges the step budget. *)

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
  let table = Game.table ~memory:ctx.Ctx.memory layer threads in
  let prefixes, walk_stats =
    Probe.span "dpor.prefixes" (fun () ->
        walk ~independence ~engine:{ engine with Engine.depth } table)
  in
  (* Each leaf is keyed where it is replayed, so under [jobs > 1] the
     keys are computed on the pool too. *)
  let key_of log =
    match independence with
    | Exact -> 0
    | Commuting_events -> Probe.span "dpor.key" (fun () -> trace_key log)
  in
  let replay =
    Probe.span "dpor.replay" (fun () ->
        Parallel.games ~ctx layer threads
          (fun _ o -> o, key_of o.Game.log)
          (List.map (Sched.of_trace ~tag:"dpor") prefixes))
  in
  let outcomes, keys = List.split (Budget.value replay) in
  (* The count ranges over the walk's alphabet, the played threads; an
     empty alphabet still has its one empty trace. *)
  let schedules_considered =
    pow (max 1 (List.length (Game.played table))) depth
  in
  let distinct =
    Probe.span "dpor.dedup" (fun () ->
        let keyed = List.map2 (fun o k -> k, o.Game.log) outcomes keys in
        match independence with
        | Exact -> Log.dedup (List.map snd keyed)
        | Commuting_events -> List.map snd (dedup_traces keyed))
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
  Budget.map (fun _ -> result) replay
