open Ccal_core

let buf_store_tag = "buf_store"
let commit_tag = Atomic.commit_tag
let mfence_tag = Atomic.mfence_tag
let flush_tag = Memory.flush_tag

let int2 = function
  | [ Value.Vint a; Value.Vint b ] -> Some (a, b)
  | _ -> None

(* A commit carries (cell, value, cpu): the cell first, so the DPOR
   explorer's first-int-arg convention sees commits of different cells
   (and flushes of different CPUs, which can only touch different
   buffers) as commuting, and a commit as conflicting with every
   same-cell access; the cpu last, because the event's [src] is the
   mover — the flusher pseudo-thread for a flush move, the thread itself
   for an RMW/fence drain — and replay must key the buffer by the owning
   CPU, not by who drained it. *)
let int3 = function
  | [ Value.Vint a; Value.Vint b; Value.Vint c ] -> Some (a, b, c)
  | _ -> None

(* Shared memory: the atomic cells, which count commits as stores. *)
let replay_memory = Atomic.replay_cell

(* A CPU's store buffer: its buffered stores minus the commits drained
   from it (FIFO).  Buffered stores are identified by [src]; commits by
   their cpu argument — their [src] is whoever performed the drain.  One
   family holds every CPU's buffer: a commit whose arguments name no cpu
   sticks them all, any other error only the CPU it names. *)
let replay_buffer : Event.tid -> (int * int) list Replay.t =
  Replay.family
    ~route:(fun (e : Event.t) ->
      if String.equal e.tag buf_store_tag then Replay.Key e.src
      else if String.equal e.tag commit_tag then
        match int3 e.args with Some (_, _, cpu) -> Replay.Key cpu | None -> Replay.Every
      else Replay.Skip)
    ~init:[]
    ~step:(fun buf (e : Event.t) ->
      if String.equal e.tag buf_store_tag then
        match int2 e.args with
        | Some bv -> Ok (buf @ [ bv ])
        | None -> Error "buf_store: bad arguments"
      else
        match int3 e.args, buf with
        | None, _ -> Error "commit: bad arguments"
        | Some (b, v, _), head :: rest when head = (b, v) -> Ok rest
        | Some _, _ -> Error "commit does not match the oldest buffered store")

let commit_event ~src t (b, v) =
  Event.make ~args:[ Value.int b; Value.int v; Value.int t ] src commit_tag

(* The events draining CPU [t]'s buffer in FIFO order.  [?src] is the
   mover recorded on the commits: the thread itself for RMW/fence drains
   (the default), the flusher pseudo-thread for environment drains. *)
let drain_events ?src t log =
  let src = Option.value ~default:t src in
  match replay_buffer t log with
  | Error _ -> Error "inconsistent store buffer"
  | Ok buf -> Ok (List.map (commit_event ~src t) buf)

(* aload: forward from the own buffer (youngest write wins), else memory. *)
let load_value t b log =
  match replay_buffer t log with
  | Error msg -> Error msg
  | Ok buf -> (
    match List.rev (List.filter (fun (b', _) -> b' = b) buf) with
    | (_, v) :: _ -> Ok v
    | [] -> replay_memory b log)

let astore_prim =
  ( Atomic.astore_tag,
    Layer.Shared
      (fun t args _log ->
        match int2 args with
        | Some _ ->
          Layer.Step
            {
              events = [ Event.make ~args t buf_store_tag ];
              ret = Value.unit;
              crit = Layer.Keep;
            }
        | None -> Layer.Stuck "astore: expected cell and value") )

let aload_prim =
  ( Atomic.aload_tag,
    Layer.Shared
      (fun t args log ->
        match args with
        | [ Value.Vint b ] -> (
          match load_value t b log with
          | Error msg -> Layer.Stuck msg
          | Ok v ->
            let ret = Value.int v in
            Layer.Step
              { events = [ Event.make ~args ~ret t Atomic.aload_tag ]; ret; crit = Layer.Keep })
        | _ -> Layer.Stuck "aload: expected a cell") )

(* RMW operations and fences drain the caller's buffer first (x86-TSO). *)
let draining tag arity ret_of update_args =
  ( tag,
    Layer.Shared
      (fun t args log ->
        if List.length args <> arity then
          Layer.Stuck (Printf.sprintf "%s: expected %d arguments" tag arity)
        else
          match drain_events t log with
          | Error msg -> Layer.Stuck msg
          | Ok commits -> (
            let log' = Log.append_all commits log in
            match args with
            | Value.Vint b :: _ -> (
              match replay_memory b log' with
              | Error msg -> Layer.Stuck msg
              | Ok old ->
                let ret = ret_of old in
                let ev = Event.make ~args:(update_args args) ~ret t tag in
                Layer.Step { events = commits @ [ ev ]; ret; crit = Layer.Keep })
            | _ -> Layer.Stuck (tag ^ ": expected a cell"))) )

let faa_prim = draining Atomic.faa_tag 2 Value.int (fun a -> a)
let xchg_prim = draining Atomic.xchg_tag 2 Value.int (fun a -> a)
let cas_prim = draining Atomic.cas_tag 3 Value.int (fun a -> a)

let mfence_prim =
  ( mfence_tag,
    Layer.Shared
      (fun t _args log ->
        match drain_events t log with
        | Error msg -> Layer.Stuck msg
        | Ok commits ->
          Layer.Step
            {
              events = commits @ [ Event.make t mfence_tag ];
              ret = Value.unit;
              crit = Layer.Keep;
            }) )

(* The buffer-flush scheduler move (DESIGN.md S29): commit the single
   oldest pending store of the named CPU, or block when its buffer is
   empty.  The game gives every real thread a flusher pseudo-thread
   looping on this primitive, so the DPOR explorer enumerates flush
   points like any other move; flushes of different CPUs touch different
   buffers and different (cell, cpu) commit pairs, so the first-int-arg
   independence rule lets them commute unless they hit the same cell. *)
let flush_prim =
  ( flush_tag,
    Layer.Shared
      (fun src args log ->
        match args with
        | [ Value.Vint cpu ] -> (
          match replay_buffer cpu log with
          | Error msg -> Layer.Stuck msg
          | Ok [] -> Layer.Block
          | Ok (oldest :: _) ->
            Layer.Step
              {
                events = [ commit_event ~src cpu oldest ];
                ret = Value.unit;
                crit = Layer.Keep;
              })
        | _ -> Layer.Stuck "flush: expected a cpu") )

(* pull/push are synchronisation primitives: they fence. *)
let fenced_pushpull (name, prim) =
  match prim with
  | Layer.Private _ -> name, prim
  | Layer.Shared sem ->
    ( name,
      Layer.Shared
        (fun t args log ->
          match drain_events t log with
          | Error msg -> Layer.Stuck msg
          | Ok commits -> (
            let log' = Log.append_all commits log in
            match sem t args log' with
            | Layer.Step s -> Layer.Step { s with events = commits @ s.events }
            | (Layer.Block | Layer.Stuck _ | Layer.Race _) as r -> r)) )

let layer () =
  Layer.make "Ltso"
    ([ aload_prim; astore_prim; faa_prim; xchg_prim; cas_prim; mfence_prim;
       flush_prim ]
    @ List.map fenced_pushpull Pushpull.prims
    @ [ Mx86.cpuid_prim ])

let machine_layer = function
  | Memory.Sc -> Mx86.layer ()
  | Memory.Tso -> layer ()

(* ------------------------------------------------------------------ *)
(* buffering-event erasure                                             *)
(* ------------------------------------------------------------------ *)

(* A TSO log as an SC log: each commit becomes the owning CPU's [astore]
   at the commit's log position (that is when the store became globally
   visible); the buffered store and the fences vanish.  Note this is the
   memory-order reading of the log, not its program-order reading — for
   a buffered program the two genuinely differ, which is the whole
   point of the mode. *)
let erase_event (e : Event.t) =
  if String.equal e.tag commit_tag then
    match int3 e.args with
    | Some (b, v, cpu) ->
      [ Event.make ~args:[ Value.int b; Value.int v ] cpu Atomic.astore_tag ]
    | None -> [ e ]
  else if String.equal e.tag buf_store_tag || String.equal e.tag mfence_tag then
    []
  else [ e ]

let erase_buffering log =
  Log.append_all (List.concat_map erase_event (Log.chronological log)) Log.empty

(* Object simulation relations translate implementation events away; the
   buffering machinery must go with them.  [Sim_rel.of_table] keeps
   unknown tags, so TSO certificates compose this in front of the object
   relation. *)
let drop_buffering =
  Sim_rel.of_events "drop-buffering" (fun e ->
      if
        String.equal e.tag buf_store_tag
        || String.equal e.tag commit_tag
        || String.equal e.tag mfence_tag
      then []
      else [ e ])

let under_memory memory rel =
  match (memory : Memory.t) with
  | Memory.Sc -> rel
  | Memory.Tso -> Sim_rel.compose drop_buffering rel

(* ------------------------------------------------------------------ *)
(* environment drains                                                  *)
(* ------------------------------------------------------------------ *)

let buffered_cpus log =
  List.sort_uniq Stdlib.compare
    (List.filter_map
       (fun (e : Event.t) ->
         if String.equal e.tag buf_store_tag then Some e.src else None)
       (Log.newest_first log))

(* Everything currently buffered, committed: CPUs in ascending order,
   each buffer FIFO, commits signed by the CPU's flusher pseudo-thread.
   Deterministic, so certificate runs replay bit-identically. *)
let drain_all log =
  List.concat_map
    (fun cpu ->
      match drain_events ~src:(Memory.flusher_tid cpu) cpu log with
      | Ok commits -> commits
      | Error _ -> [])
    (buffered_cpus log)

(* The certificate games have no scheduler to move flushers, only an
   environment context queried before every move ({!Simulation.drive},
   {!Machine.run_local}).  Wrapping a context with [with_drain] makes
   the environment commit every pending store at each query point —
   x86-TSO's progress guarantee that buffers drain eventually, without
   which a buffered spin (MCS waiting on its own forwarded store) never
   terminates. *)
let with_drain (env : Env_context.t) =
  Env_context.make
    (env.Env_context.name ^ "+drain")
    (fun ~focus log ->
      let drained = drain_all log in
      let more = env.Env_context.query ~focus (Log.append_all drained log) in
      drained @ more)

(* ------------------------------------------------------------------ *)
(* whole-log discipline checks                                         *)
(* ------------------------------------------------------------------ *)

let cells_mentioned log =
  List.sort_uniq Stdlib.compare
    (List.filter_map
       (fun (e : Event.t) ->
         match e.args with
         | Value.Vint b :: _
           when List.mem e.tag
                  [ Atomic.faa_tag; Atomic.xchg_tag; Atomic.cas_tag;
                    Atomic.astore_tag; Atomic.aload_tag; buf_store_tag; commit_tag ]
           ->
           Some b
         | _ -> None)
       (Log.chronological log))

(* Every buffer replays well-formed (each commit matched its FIFO head)
   and ends empty — the log discipline of a completed TSO game, whose
   flushers cannot all block until every buffer has drained. *)
let buffers_drained ~threads log =
  List.for_all
    (fun (t, _) -> match replay_buffer t log with Ok [] -> true | _ -> false)
    threads

(* Race-free programs on TSO behave as if sequentially consistent
   (Sewell et al., the result the paper leans on).  Executable form: judge
   a play of the TSO game — flusher moves included — against the SC game
   under the same scheduler, requiring identical thread results and
   identical final memory on every cell either run mentions. *)
let judge_sc_equivalence threads sched (tso : Game.outcome) =
  let sc = Game.run (Game.config ~max_steps:100_000 (Mx86.layer ()) threads sched) in
  (* The TSO play is the underlay run, the SC play the overlay's. *)
  let differ reason =
    Error
      (Failure.overlay ~sched:(Sched.name sched) ~lower:tso.Game.log sc.Game.log
         reason)
  in
  match tso.Game.status, sc.Game.status with
  | Game.All_done, Game.All_done ->
    let results_equal =
      List.length tso.Game.results = List.length sc.Game.results
      && List.for_all
           (fun (t, v) ->
             match List.assoc_opt t sc.Game.results with
             | Some v' -> Value.equal v v'
             | None -> false)
           tso.Game.results
    in
    if not results_equal then differ "results differ"
    else if not (buffers_drained ~threads tso.Game.log) then
      differ "TSO game ended with a non-empty store buffer"
    else
      let cells =
        List.sort_uniq Stdlib.compare
          (cells_mentioned tso.Game.log @ cells_mentioned sc.Game.log)
      in
      let mem_equal =
        List.for_all
          (fun b ->
            match replay_memory b tso.Game.log, Atomic.replay_cell b sc.Game.log with
            | Ok v, Ok v' -> v = v'
            | _ -> false)
          cells
      in
      if mem_equal then Ok () else differ "final memory differs"
  | s1, s2 ->
    differ
      (Format.asprintf "statuses differ: TSO %a, SC %a" Game.pp_status s1
         Game.pp_status s2)
