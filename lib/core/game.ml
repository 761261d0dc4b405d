type config = {
  layer : Layer.t;
  threads : (Event.tid * Prog.t) list;
  sched : Sched.t;
  max_steps : int;
  log_switches : bool;
  check_guar : bool;
  memory : Memory.t;
  stop : (unit -> bool) option;
}

let config ?(max_steps = 100_000) ?(log_switches = false) ?(check_guar = false)
    ?(memory = Memory.default) ?stop layer threads sched =
  { layer; threads; sched; max_steps; log_switches; check_guar; memory; stop }

(* Buffer flushes as scheduler moves (DESIGN.md S29): under TSO, every
   real thread gets a flusher pseudo-thread whose infinite program
   repeatedly calls the layer's flush primitive for that CPU.  The flush
   primitive blocks on an empty buffer, so a flusher is runnable exactly
   while its CPU has pending stores — and a game whose only pending
   threads are blocked flushers has drained every buffer and is done.
   Layers without the flush primitive (SC machines, spec layers) get no
   flushers regardless of the mode. *)
let flusher_threads ~memory layer threads =
  match (memory : Memory.t) with
  | Memory.Sc -> []
  | Memory.Tso ->
    if not (Layer.has_prim Memory.flush_tag layer) then []
    else
      List.map
        (fun (cpu, _) ->
          let args = [ Value.int cpu ] in
          let rec p = Prog.Call { prim = Memory.flush_tag; args; k = (fun _ -> p) } in
          (Memory.flusher_tid cpu, p))
        threads

(* The crash move as a scheduler pseudo-thread (DESIGN.md S30): a layer
   exporting the crash primitive gets one crash thread whose single move
   fires it — so "the machine loses power here" is just one more
   scheduler choice, enumerated by the same DPOR/exhaustive machinery as
   every other move.  The in-game crash carries the adversarial masks
   (keep nothing, tear nothing); the certifier enumerates the full mask
   lattice analytically over log prefixes. *)
let crash_threads layer =
  if not (Layer.has_prim Durability.crash_tag layer) then []
  else
    let args = Durability.crash_args ~keep:0 ~tear:0 in
    [ (Durability.crash_tid,
       Prog.Call { prim = Durability.crash_tag; args; k = (fun _ -> Prog.Ret Value.unit) }) ]

(* The single synthesis point for every pseudo-thread a game runs beside
   the real domain.  Negative tids are one shared namespace — crash
   thread at -1, flusher for cpu c at -c-1 with cpus >= 1 — and real
   tids must be non-negative and distinct; any collision is a
   construction error caught here rather than a silent mis-scheduled
   game. *)
let pseudo_threads ~memory layer threads =
  let pseudo = flusher_threads ~memory layer threads @ crash_threads layer in
  List.iter
    (fun (i, _) ->
      if i < 0 then
        invalid_arg
          (Printf.sprintf
             "Game.pseudo_threads: real thread id %d collides with the pseudo-thread namespace (tids < 0)"
             i))
    threads;
  let rec distinct what = function
    | [] -> ()
    | (i, _) :: rest ->
      if List.mem_assoc i rest then
        invalid_arg (Printf.sprintf "Game.pseudo_threads: duplicate %s id %d" what i);
      distinct what rest
  in
  distinct "real thread" threads;
  distinct "pseudo-thread" pseudo;
  pseudo

let effective_threads cfg =
  cfg.threads @ pseudo_threads ~memory:cfg.memory cfg.layer cfg.threads

type status =
  | All_done
  | Deadlock of Event.tid list
  | Stuck of Event.tid * Layer.stuck_kind * string
  | Out_of_fuel
  | Cancelled

type outcome = {
  log : Log.t;
  results : (Event.tid * Value.t) list;
  status : status;
  steps : int;
  silent_steps : int;
  guar_violations : (Event.tid * Log.t) list;
}

type slot =
  | Running of Machine.thread_state
  | Finished of Value.t

(* Telemetry (DESIGN.md S25): every completed game bumps the run and
   replay-work counters.  [Probe.add] is a single atomic-bool read when
   telemetry is off, and inside a [Parallel] job the counts go to the
   job's capture delta, keeping totals jobs-deterministic. *)
let observe (o : outcome) =
  Probe.incr Probe.schedules_run;
  Probe.add Probe.replay_steps (o.steps + o.silent_steps);
  o

(* All pending threads are blocked.  Flushers block exactly on an empty
   buffer, so a deadlock made only of flushers is a drained, finished
   game; otherwise the flushers are reported out — they are machinery,
   not members of the domain. *)
let deadlock_status ids =
  match List.filter (fun i -> not (Memory.is_flusher i)) ids with
  | [] -> All_done
  | real -> Deadlock real

(* The play loop (Sec. 2): each round the scheduler picks a runnable
   thread, which makes one move, and the move's events are appended to
   the log.  The thread table is arrays in [threads] order, allocated
   once per play: the ids, their slots, and the move at which each slot
   was last found blocked.  A slot is offered when it is running and not
   blocked at this move; the scheduler (DESIGN.md S36) picks the index
   of an offered slot, with no list, sort or closure per move. *)
let run cfg =
  let threads = effective_threads cfg in
  let ids = Array.of_list (List.map fst threads) in
  let slots =
    Array.of_list
      (List.map (fun (i, p) -> Running (Machine.initial cfg.layer i p)) threads)
  in
  let n = Array.length ids in
  let blocked = Array.make n (-1) and live = ref n in
  let in_order = Array.init n Fun.id in
  let by_tid = Array.copy in_order in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) by_tid;
  let offered step k =
    match slots.(k) with Running _ -> blocked.(k) <> step | Finished _ -> false
  in
  (* The [r]-th offered slot, taking slots in [order]. *)
  let rec nth order step r j =
    let k = order.(j) in
    if not (offered step k) then nth order step r (j + 1)
    else if r = 0 then k
    else nth order step (r - 1) (j + 1)
  in
  (* The slot of tid [i] if it is offered, else -1. *)
  let rec slot_of step i k =
    if k = n then -1
    else if Int.equal ids.(k) i then if offered step k then k else -1
    else slot_of step i (k + 1)
  in
  (* A trace's cursor, local to the play; round robin is the empty trace. *)
  let cursor = ref (match cfg.sched with Sched.Trace t -> t.choices | _ -> []) in
  let rec from_trace step c =
    match !cursor with
    | [] -> nth by_tid step (step mod c) 0
    | i :: rest ->
      cursor := rest;
      let k = slot_of step i 0 in
      if k >= 0 then k else from_trace step c
  in
  (* Running tids in thread order, minus those found blocked at move
     [skip] ([min_int]: none are). *)
  let running_ids skip =
    let rec go k acc =
      if k < 0 then acc
      else
        match slots.(k) with
        | Running _ when blocked.(k) <> skip -> go (k - 1) (ids.(k) :: acc)
        | Running _ | Finished _ -> go (k - 1) acc
    in
    go (n - 1) []
  in
  let choose step log c =
    match cfg.sched with
    | Sched.Round_robin | Sched.Trace _ -> from_trace step c
    | Sched.Random seed ->
      nth in_order step (Sched.splitmix ((seed * 1_000_003) + step) mod c) 0
    | Sched.Biased { favored; ratio; seed } ->
      let h = Sched.splitmix ((seed * 7_919) + step) in
      let k = slot_of step favored 0 in
      if k >= 0 && h mod (ratio + 1) <> 0 then k else nth in_order step (h / 7 mod c) 0
    | Sched.Custom { pick; _ } ->
      let k =
        match pick ~step log ~runnable:(running_ids step) with
        | Some i -> slot_of step i 0
        | None -> -1
      in
      if k >= 0 then k else nth in_order step 0 0
  in
  (* Pseudo-threads (tids < 0) are machinery, not members of the domain:
     flushers never finish, but a fired crash thread does, and its unit
     result must not leak into the observable thread results. *)
  let results () =
    let rec go k acc =
      if k < 0 then acc
      else
        match slots.(k) with
        | Finished v when ids.(k) >= 0 -> go (k - 1) ((ids.(k), v) :: acc)
        | Finished _ | Running _ -> go (k - 1) acc
    in
    go (n - 1) []
  in
  let finish log steps silent violations status =
    let guar_violations = List.rev violations in
    { log; results = results (); status; steps; silent_steps = silent; guar_violations }
  in
  let rec loop log steps silent last violations =
    if steps >= cfg.max_steps then finish log steps silent violations Out_of_fuel
    else if !live = 0 then finish log steps silent violations All_done
    else if match cfg.stop with Some s -> s () | None -> false then
      (* Cooperative cancellation (DESIGN.md S27): the stop closure is
         polled once per move, before the scheduler is consulted but
         only when a move remains — a game that already finished all
         its moves reports [All_done] even on an exactly-spent budget —
         so a cancelled game carries a meaningful play prefix in
         [log]. *)
      finish log steps silent violations Cancelled
    else attempt log steps silent last violations !live
  (* Offer the [c] offered threads.  A pick found blocked at this log
     leaves the offer and the scheduler is asked again; it is offered
     again at the next move. *)
  and attempt log steps silent last violations c =
    if c = 0 then
      finish log steps silent violations (deadlock_status (running_ids min_int))
    else
      let k = choose steps log c in
      let chosen = ids.(k) in
      let st = match slots.(k) with Running st -> st | Finished _ -> assert false in
      let move_log =
        if cfg.log_switches && last <> k then Log.append (Event.switch chosen) log
        else log
      in
      let result, cost = Machine.step_move_counted cfg.layer chosen st move_log in
      match result with
      | Machine.Moved (evs, st') ->
        slots.(k) <- Running st';
        moved k move_log evs steps (silent + cost) violations
      | Machine.Finished (v, _) ->
        slots.(k) <- Finished v;
        decr live;
        moved k move_log [] steps (silent + cost) violations
      | Machine.Blocked_at (st', _) ->
        slots.(k) <- Running st';
        blocked.(k) <- steps;
        attempt log steps silent last violations (c - 1)
      | Machine.Stuck (kind, msg) ->
        finish log steps silent violations (Stuck (chosen, kind, msg))
  and moved k move_log evs steps silent violations =
    let log' = Log.append_all evs move_log in
    let violations =
      if
        cfg.check_guar && evs <> []
        && not (cfg.layer.Layer.guar.Rely_guarantee.holds ids.(k) log')
      then (ids.(k), log') :: violations
      else violations
    in
    loop log' (steps + 1) silent k violations
  in
  observe (Replay.scoped (fun () -> loop Log.empty 0 0 (-1) []))

(* Kept as a name for {!run}: the benchmark harness in perfbench/ calls
   it. *)
let replay = run

let behaviors ?max_steps ?log_switches ?check_guar ?memory layer threads scheds =
  List.map
    (fun sched ->
      run (config ?max_steps ?log_switches ?check_guar ?memory layer threads sched))
    scheds

let successful o =
  match o.status with All_done -> o.guar_violations = [] | _ -> false

let pp_status fmt = function
  | All_done -> Format.pp_print_string fmt "all-done"
  | Deadlock ids ->
    Format.fprintf fmt "deadlock(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
         Format.pp_print_int)
      ids
  | Stuck (i, Layer.Invalid_transition, msg) ->
    Format.fprintf fmt "stuck(thread %d: %s)" i msg
  | Stuck (i, Layer.Data_race, msg) ->
    Format.fprintf fmt "race(thread %d: %s)" i msg
  | Out_of_fuel -> Format.pp_print_string fmt "out-of-fuel"
  | Cancelled -> Format.pp_print_string fmt "cancelled"
