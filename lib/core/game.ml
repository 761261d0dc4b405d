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
   tids must be non-negative; any collision is a construction error
   caught here rather than a silent mis-scheduled game. *)
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
  let rec distinct = function
    | [] -> ()
    | (i, _) :: rest ->
      if List.mem_assoc i rest then
        invalid_arg
          (Printf.sprintf "Game.pseudo_threads: duplicate pseudo-thread id %d" i);
      distinct rest
  in
  distinct pseudo;
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

let run cfg =
  let slots =
    List.map
      (fun (i, p) -> i, ref (Running (Machine.initial cfg.layer i p)))
      (effective_threads cfg)
  in
  (* Pseudo-threads (tids < 0) are machinery, not members of the domain:
     flushers never finish, but a fired crash thread does, and its unit
     result must not leak into the observable thread results. *)
  let results () =
    List.filter_map
      (fun (i, r) ->
        match !r with
        | Finished v when i >= 0 -> Some (i, v)
        | Finished _ | Running _ -> None)
      slots
  in
  let rec loop log steps silent last_mover violations =
    if steps >= cfg.max_steps then
      { log; results = results (); status = Out_of_fuel; steps; silent_steps = silent; guar_violations = List.rev violations }
    else
      let pending =
        List.filter_map
          (fun (i, r) -> match !r with Running st -> Some (i, r, st) | Finished _ -> None)
          slots
      in
      match pending with
      | [] ->
        { log; results = results (); status = All_done; steps; silent_steps = silent; guar_violations = List.rev violations }
      | _ when (match cfg.stop with Some s -> s () | None -> false) ->
        (* Cooperative cancellation (DESIGN.md S27): the stop closure is
           polled once per move, before the scheduler is consulted but
           only when a move remains — a game that already finished all
           its moves reports [All_done] even on an exactly-spent budget —
           so a cancelled game carries a meaningful play prefix in
           [log]. *)
        { log; results = results (); status = Cancelled; steps; silent_steps = silent; guar_violations = List.rev violations }
      | _ ->
        (* Pick a mover; threads found blocked at this log are excluded and
           the scheduler is asked again. *)
        let rec attempt excluded =
          let candidates =
            List.filter (fun (i, _, _) -> not (List.mem i excluded)) pending
          in
          match candidates with
          | [] ->
            `Deadlock (List.map (fun (i, _, _) -> i) pending)
          | _ ->
            let runnable = List.map (fun (i, _, _) -> i) candidates in
            let chosen =
              match cfg.sched.Sched.pick ~step:steps log ~runnable with
              | Some i when List.mem i runnable -> i
              | Some _ | None -> List.hd runnable
            in
            let _, slot, st =
              List.find (fun (i, _, _) -> i = chosen) candidates
            in
            let move_log =
              if cfg.log_switches && last_mover <> Some chosen then
                Log.append (Event.switch chosen) log
              else log
            in
            let result, cost = Machine.step_move_counted cfg.layer chosen st move_log in
            (match result with
            | Machine.Moved (evs, st') ->
              slot := Running st';
              `Moved (chosen, move_log, evs, cost)
            | Machine.Finished (v, _) ->
              slot := Finished v;
              `Moved (chosen, move_log, [], cost)
            | Machine.Blocked_at (st', _) ->
              slot := Running st';
              attempt (chosen :: excluded)
            | Machine.Stuck (kind, msg) -> `Stuck (chosen, kind, msg))
        in
        (match attempt [] with
        | `Deadlock ids ->
          { log; results = results (); status = deadlock_status ids; steps; silent_steps = silent; guar_violations = List.rev violations }
        | `Stuck (i, kind, msg) ->
          { log; results = results (); status = Stuck (i, kind, msg); steps; silent_steps = silent; guar_violations = List.rev violations }
        | `Moved (i, move_log, evs, cost) ->
          let log' = Log.append_all evs move_log in
          let violations =
            if
              cfg.check_guar && evs <> []
              && not (cfg.layer.Layer.guar.Rely_guarantee.holds i log')
            then (i, log') :: violations
            else violations
          in
          loop log' (steps + 1) (silent + cost) (Some i) violations)
  in
  observe (Replay.scoped (fun () -> loop Log.empty 0 0 None []))

(* ------------------------------------------------------------------ *)
(* allocation-light replay (DESIGN.md S24)                             *)
(* ------------------------------------------------------------------ *)

(* Reusable per-domain working state for {!replay_into}.  [run] rebuilds
   a [(tid, ref slot) list] association per schedule and re-filters it
   into [pending]/[candidates] lists on every move; over ~10⁵ replayed
   schedules that churn is what made the minor GC the bottleneck of the
   parallel checkers.  The scratch keeps the thread table in three
   parallel arrays, resized only when the thread count changes, so a
   domain replaying a suite reuses the same words for every schedule. *)
type scratch = {
  mutable ids : Event.tid array;  (* thread ids, in [threads] order *)
  mutable slots : slot array;  (* parallel to [ids] *)
  mutable blocked : bool array;  (* threads found blocked this move *)
}

let make_scratch () = { ids = [||]; slots = [||]; blocked = [||] }

(* Bit-identical to {!run} — pinned by the QCheck equivalence properties
   in test/test_parallel.ml.  The loop below mirrors [run] clause for
   clause; only the bookkeeping containers differ. *)
let replay_into scratch cfg =
  let threads = effective_threads cfg in
  let n = List.length threads in
  if Array.length scratch.ids <> n then begin
    scratch.ids <- Array.make n 0;
    scratch.slots <- Array.make n (Finished Value.unit);
    scratch.blocked <- Array.make n false
  end;
  let ids = scratch.ids
  and slots = scratch.slots
  and blocked = scratch.blocked in
  List.iteri
    (fun k (i, p) ->
      ids.(k) <- i;
      slots.(k) <- Running (Machine.initial cfg.layer i p))
    threads;
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
  let pending_ids () =
    let rec go k acc =
      if k < 0 then acc
      else
        match slots.(k) with
        | Running _ -> go (k - 1) (ids.(k) :: acc)
        | Finished _ -> go (k - 1) acc
    in
    go (n - 1) []
  in
  let index_of i =
    let rec go k = if ids.(k) = i then k else go (k + 1) in
    go 0
  in
  let rec loop log steps silent last_mover violations =
    if steps >= cfg.max_steps then
      { log; results = results (); status = Out_of_fuel; steps; silent_steps = silent; guar_violations = List.rev violations }
    else begin
      let npending = ref 0 in
      for k = 0 to n - 1 do
        match slots.(k) with
        | Running _ -> incr npending
        | Finished _ -> ()
      done;
      if !npending = 0 then
        { log; results = results (); status = All_done; steps; silent_steps = silent; guar_violations = List.rev violations }
      else if match cfg.stop with Some s -> s () | None -> false then
        { log; results = results (); status = Cancelled; steps; silent_steps = silent; guar_violations = List.rev violations }
      else begin
        for k = 0 to n - 1 do
          blocked.(k) <- false
        done;
        let rec attempt () =
          (* runnable = still-running threads not yet found blocked this
             move, in [threads] order — exactly [run]'s candidate list *)
          let rec build k acc =
            if k < 0 then acc
            else
              build (k - 1)
                (match slots.(k) with
                | Running _ when not blocked.(k) -> ids.(k) :: acc
                | Running _ | Finished _ -> acc)
          in
          match build (n - 1) [] with
          | [] -> `Deadlock (pending_ids ())
          | runnable ->
            let chosen =
              match cfg.sched.Sched.pick ~step:steps log ~runnable with
              | Some i when List.mem i runnable -> i
              | Some _ | None -> List.hd runnable
            in
            let k = index_of chosen in
            let st =
              match slots.(k) with
              | Running st -> st
              | Finished _ -> assert false
            in
            let move_log =
              if cfg.log_switches && last_mover <> Some chosen then
                Log.append (Event.switch chosen) log
              else log
            in
            let result, cost =
              Machine.step_move_counted cfg.layer chosen st move_log
            in
            (match result with
            | Machine.Moved (evs, st') ->
              slots.(k) <- Running st';
              `Moved (chosen, move_log, evs, cost)
            | Machine.Finished (v, _) ->
              slots.(k) <- Finished v;
              `Moved (chosen, move_log, [], cost)
            | Machine.Blocked_at (st', _) ->
              slots.(k) <- Running st';
              blocked.(k) <- true;
              attempt ()
            | Machine.Stuck (kind, msg) -> `Stuck (chosen, kind, msg))
        in
        match attempt () with
        | `Deadlock ids ->
          { log; results = results (); status = deadlock_status ids; steps; silent_steps = silent; guar_violations = List.rev violations }
        | `Stuck (i, kind, msg) ->
          { log; results = results (); status = Stuck (i, kind, msg); steps; silent_steps = silent; guar_violations = List.rev violations }
        | `Moved (i, move_log, evs, cost) ->
          let log' = Log.append_all evs move_log in
          let violations =
            if
              cfg.check_guar && evs <> []
              && not (cfg.layer.Layer.guar.Rely_guarantee.holds i log')
            then (i, log') :: violations
            else violations
          in
          loop log' (steps + 1) (silent + cost) (Some i) violations
      end
    end
  in
  observe (Replay.scoped (fun () -> loop Log.empty 0 0 None []))

(* A lock-free freelist of scratches: the checkers call {!replay} from
   arbitrary pool domains, and a Treiber stack keeps the live scratch
   count bounded by the number of concurrent games without a domain-local
   key per call site. *)
let scratch_pool : scratch list Atomic.t = Atomic.make []

let rec pool_get () =
  match Atomic.get scratch_pool with
  | [] -> make_scratch ()
  | (s :: rest) as cur ->
    if Atomic.compare_and_set scratch_pool cur rest then s else pool_get ()

let rec pool_put s =
  let cur = Atomic.get scratch_pool in
  if not (Atomic.compare_and_set scratch_pool cur (s :: cur)) then pool_put s

let replay cfg =
  let s = pool_get () in
  Fun.protect ~finally:(fun () -> pool_put s) (fun () -> replay_into s cfg)

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
