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

let default_max_steps = 100_000

let config ?(max_steps = default_max_steps) ?(log_switches = false) ?(check_guar = false)
    ?(memory = Memory.default) ?stop layer threads sched =
  { layer; threads; sched; max_steps; log_switches; check_guar; memory; stop }

(* Buffer flushes as scheduler moves (DESIGN.md S29): a flusher is
   runnable exactly while its CPU has pending stores. *)
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

(* The crash move as a scheduler pseudo-thread (DESIGN.md S30): "the
   machine loses power here" is one more scheduler choice.  The
   certifier enumerates the full mask lattice analytically. *)
let crash_threads layer =
  if not (Layer.has_prim Durability.crash_tag layer) then []
  else
    let args = Durability.crash_args ~keep:0 ~tear:0 in
    [ (Durability.crash_tid,
       Prog.Call { prim = Durability.crash_tag; args; k = (fun _ -> Prog.Ret Value.unit) }) ]

(* Negative tids are one shared namespace — crash thread at -1, flusher
   for cpu c at -c-1 with cpus >= 1 — so any collision is a construction
   error caught here rather than a silently mis-scheduled game. *)
let pseudo_threads ~memory layer threads =
  let pseudo = flusher_threads ~memory layer threads @ crash_threads layer in
  let fail fmt = Printf.ksprintf invalid_arg ("Game.pseudo_threads: " ^^ fmt) in
  List.iter
    (fun (i, _) ->
      if i < 0 then
        fail "real thread id %d collides with the pseudo-thread namespace (tids < 0)" i)
    threads;
  let rec distinct what = function
    | [] -> ()
    | (i, _) :: rest ->
      if List.mem_assoc i rest then fail "duplicate %s id %d" what i;
      distinct what rest
  in
  distinct "real thread" threads;
  distinct "pseudo-thread" pseudo;
  pseudo

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

(* All pending threads are blocked.  Flushers block exactly on an empty
   buffer, so a deadlock made only of flushers is a drained, finished
   game; otherwise the flushers are reported out — they are machinery,
   not members of the domain. *)
let deadlock_status ids =
  match List.filter (fun i -> not (Memory.is_flusher i)) ids with
  | [] -> All_done
  | real -> Deadlock real

(* What a game depends on only through its layer, its threads and the
   memory mode (DESIGN.md S36, S37): the played threads — the real ones,
   then the pseudo-threads, synthesised and validated once — as id and
   program arrays, and the two pick orders.  Immutable, so one table
   serves every play of a suite, on any domain. *)
type table = {
  layer : Layer.t;
  played : (Event.tid * Prog.t) list;
  ids : Event.tid array;
  progs : Prog.t array;
  by_tid : int array;  (* thread indices by ascending tid *)
}

let table ~memory layer threads =
  let played = threads @ pseudo_threads ~memory layer threads in
  let ids = Array.of_list (List.map fst played) in
  let by_tid = Array.init (Array.length ids) Fun.id in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) by_tid;
  { layer; played; ids; progs = Array.of_list (List.map snd played); by_tid }

let played t = t.played
let layer t = t.layer

(* One play's state: its parameters, each thread's state and result and
   the move it was last found blocked at ([finished] once it returned),
   the live count and the trace cursor.  The loop below is top-level
   functions over it, so a play allocates no closure of its own. *)
type play = {
  t : table;
  sched : Sched.t;
  max_steps : int;
  log_switches : bool;
  check_guar : bool;
  stop : (unit -> bool) option;
  states : Machine.thread_state array;
  values : Value.t array;
  stamps : int array;
  mutable live : int;
  mutable cursor : Event.tid list;  (* a trace's; round robin is the empty trace *)
}

let finished = max_int

(* Offered at move [step]: running and not found blocked at this move.
   The scheduler (DESIGN.md S36) picks an offered index, allocating
   nothing per move. *)
let offered p step k = p.stamps.(k) < step

(* The [r]-th offered thread, taking threads by tid or in thread order. *)
let rec nth p by_tid step r j =
  let k = if by_tid then p.t.by_tid.(j) else j in
  if not (offered p step k) then nth p by_tid step r (j + 1)
  else if r = 0 then k
  else nth p by_tid step (r - 1) (j + 1)

(* The index of tid [i] if it is offered, else -1. *)
let rec slot_of p step i k =
  if k = Array.length p.t.ids then -1
  else if Int.equal p.t.ids.(k) i then if offered p step k then k else -1
  else slot_of p step i (k + 1)

let rec from_trace p step c =
  match p.cursor with
  | [] -> nth p true step (step mod c) 0
  | i :: rest ->
    p.cursor <- rest;
    let k = slot_of p step i 0 in
    if k >= 0 then k else from_trace p step c

(* Tids in thread order whose stamp is below [bound]: the offered ones
   at move [bound], every running one at [finished]. *)
let running_ids p bound =
  let rec go k acc =
    if k < 0 then acc
    else go (k - 1) (if p.stamps.(k) < bound then p.t.ids.(k) :: acc else acc)
  in
  go (Array.length p.stamps - 1) []

let choose p step log c =
  match p.sched with
  | Sched.Round_robin | Sched.Trace _ -> from_trace p step c
  | Sched.Random seed ->
    nth p false step (Sched.splitmix ((seed * 1_000_003) + step) mod c) 0
  | Sched.Custom { pick; _ } ->
    let k =
      match pick ~step log ~runnable:(running_ids p step) with
      | Some i -> slot_of p step i 0
      | None -> -1
    in
    if k >= 0 then k else nth p false step 0 0

(* Pseudo-threads (tids < 0) are machinery, not members of the domain:
   flushers never finish, but a fired crash thread does, and its unit
   result must not leak into the observable thread results. *)
let results p =
  let rec go k acc =
    if k < 0 then acc
    else if p.stamps.(k) = finished && p.t.ids.(k) >= 0 then
      go (k - 1) ((p.t.ids.(k), p.values.(k)) :: acc)
    else go (k - 1) acc
  in
  go (Array.length p.stamps - 1) []

let finish p log steps silent violations status =
  let guar_violations = List.rev violations and results = results p in
  (* Telemetry (S25); in a [Parallel] job the counts go to its delta. *)
  Probe.incr Probe.schedules_run;
  Probe.add Probe.replay_steps (steps + silent);
  { log; results; status; steps; silent_steps = silent; guar_violations }

(* The play loop (Sec. 2): each round the scheduler picks a runnable
   thread, which makes one move, and the move's events are appended to
   the log. *)
let rec loop p log steps silent last violations =
  if steps >= p.max_steps then finish p log steps silent violations Out_of_fuel
  else if p.live = 0 then finish p log steps silent violations All_done
  else if match p.stop with Some s -> s () | None -> false then
    (* Cooperative cancellation (DESIGN.md S27): polled once per move
       while a move remains, so a game that finished all its moves
       reports [All_done] even on an exactly-spent budget. *)
    finish p log steps silent violations Cancelled
  else attempt p log steps silent last violations p.live

(* Offer the [c] offered threads.  A pick found blocked at this log
   leaves the offer and the scheduler is asked again; it is offered
   again at the next move. *)
and attempt p log steps silent last violations c =
  if c = 0 then
    finish p log steps silent violations (deadlock_status (running_ids p finished))
  else
    let k = choose p steps log c in
    let chosen = p.t.ids.(k) in
    let move_log =
      if p.log_switches && last <> k then Log.append (Event.switch chosen) log
      else log
    in
    let result, cost = Machine.step_move_counted p.t.layer chosen p.states.(k) move_log in
    match result with
    | Machine.Moved (evs, st') ->
      p.states.(k) <- st';
      moved p k move_log evs steps (silent + cost) violations
    | Machine.Finished (v, _) ->
      p.values.(k) <- v;
      p.stamps.(k) <- finished;
      p.live <- p.live - 1;
      moved p k move_log [] steps (silent + cost) violations
    | Machine.Blocked_at (st', _) ->
      p.states.(k) <- st';
      p.stamps.(k) <- steps;
      attempt p log steps silent last violations (c - 1)
    | Machine.Stuck (kind, msg) ->
      finish p log steps silent violations (Stuck (chosen, kind, msg))

and moved p k move_log evs steps silent violations =
  let log' = Log.append_all evs move_log in
  let violations =
    if
      p.check_guar && evs <> []
      && not (p.t.layer.Layer.guar.Rely_guarantee.holds p.t.ids.(k) log')
    then (p.t.ids.(k), log') :: violations
    else violations
  in
  loop p log' (steps + 1) silent k violations

let unstarted = { Machine.prog = Prog.ret_unit; abs = Abs.empty; crit = false }

(* Every play starts its threads afresh, in thread order, before any
   move: the table holds programs, never thread states. *)
let play ?(max_steps = default_max_steps) ?(log_switches = false)
    ?(check_guar = false) ?stop t sched =
  let n = Array.length t.ids in
  let states = Array.make n unstarted in
  for k = 0 to n - 1 do
    states.(k) <- Machine.initial t.layer t.ids.(k) t.progs.(k)
  done;
  let cursor = match sched with Sched.Trace tr -> tr.choices | _ -> [] in
  let p =
    { t; sched; max_steps; log_switches; check_guar; stop; states;
      values = Array.make n Value.unit; stamps = Array.make n (-1); live = n; cursor }
  in
  Replay.scoped (fun () -> loop p Log.empty 0 0 (-1) [])

let run (cfg : config) =
  play ~max_steps:cfg.max_steps ~log_switches:cfg.log_switches
    ~check_guar:cfg.check_guar ?stop:cfg.stop
    (table ~memory:cfg.memory cfg.layer cfg.threads)
    cfg.sched

let replay = run

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
