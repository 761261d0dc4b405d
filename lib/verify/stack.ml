open Ccal_core
open Ccal_objects

type report = Edges.report = {
  edges : Edges.row list;
  total_checks : int;
  total_millis : float;
}

type progress = Edges.progress = { completed : report; next_edge : string option }

let layout =
  { Edges.title = None; total = "checks"; label_width = Some 5; name_width = 55;
    after_name = " "; columns = [ { count = "checks"; width = 4; unit = "checks" } ];
    millis_width = 6 }

let vi = Value.int

(* The client workloads of the game-driving edges, shared between the
   edge bodies and the edge fingerprints so the two can never drift. *)

let faa_round i =
  Prog.seq_all
    [ Prog.call "faa" [ vi 0; vi 1 ]; Prog.call "faa" [ vi 0; vi 1 ];
      Prog.ret (vi i) ]

let lock_client m i =
  Prog.Module.link m
    (Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
         Prog.call "rel" [ vi 0; vi i ]))

let queue_client i =
  Prog.seq_all
    [ Prog.call "enQ_s" [ vi 0; vi (10 + i) ]; Prog.call "deQ_s" [ vi 0 ] ]

let mt_placement = [ 1, 0; 2, 0; 3, 1 ]

let mt_prog i =
  Prog.seq_all
    [ Prog.call "acq" [ vi 0 ]; Prog.call "rel" [ vi 0; vi i ];
      Prog.call Thread_sched.yield_tag []; Prog.call Thread_sched.exit_tag [] ]

let ipc_placement = [ 1, 1; 2, 2; 9, 9 ]

let ipc_client i =
  if i = 1 then
    Prog.seq_all
      [ Prog.call "send" [ vi 5; vi 10 ]; Prog.call "send" [ vi 5; vi 11 ];
        Prog.call "send" [ vi 5; vi 12 ]; Prog.call Thread_sched.exit_tag [] ]
  else
    Prog.seq_all
      [ Prog.call "recv" [ vi 5 ]; Prog.call "recv" [ vi 5 ];
        Prog.call "recv" [ vi 5 ]; Prog.call Thread_sched.exit_tag [] ]

(* ------------------------------------------------------------------ *)
(* The lock the stack is built over, chosen once.  Both implementations
   export the same [Llock] interface (Sec. 6), so nothing below looks at
   which one this is. *)

type lock_impl = {
  lock_name : string;
  lock_fns : Ccal_clight.Csyntax.fn list;
  lock : Object_intf.t;
}

let lock_impl = function
  | `Ticket ->
    {
      lock_name = "ticket";
      lock_fns = [ Ticket_lock.acq_fn; Ticket_lock.rel_fn ];
      lock = Ticket_lock.recipe;
    }
  | `Mcs ->
    {
      lock_name = "mcs";
      lock_fns = [ Mcs_lock.acq_fn; Mcs_lock.rel_fn ];
      lock = Mcs_lock.recipe;
    }

(* ------------------------------------------------------------------ *)
(* Edge keys.

   One key per edge, covering exactly what that edge's verdict depends
   on: the ClightX sources of the objects it certifies (via
   [Csyntax.fp_fn] — the structural hash, so editing one object module
   invalidates exactly the edges whose key folds it in), the layer
   interfaces, the client workloads, and — for the game-driving edges
   only — the engine descriptor that names the scheduler suite.  [jobs]
   is never part of a key: verdicts are identical across jobs counts. *)

let fp_fns st fns = List.fold_left Ccal_clight.Csyntax.fp_fn st fns

let fp_placement st p =
  Fingerprint.list
    (fun st (t, c) -> Fingerprint.int (Fingerprint.int st t) c)
    st p

let fp_threads st threads =
  Fingerprint.list
    (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
    st threads

let queue_fns =
  [ Ticket_lock.acq_fn; Ticket_lock.rel_fn; Queue_shared.enq_fn;
    Queue_shared.deq_fn ]

let ipc_fns =
  [ Ipc.send_fn; Ipc.recv_fn; Condvar.cv_wait_fn; Condvar.cv_signal_fn;
    Condvar.cv_broadcast_fn ]

(* ------------------------------------------------------------------ *)
(* Edge bodies: a verdict is an edge's kind label and its checks. *)

let checks label n = label, [ "checks", n ]

let cert_checks (c : Calculus.cert) =
  checks (Calculus.rule_to_string c.Calculus.rule) (Calculus.count_checks c)

let certified = Result.map cert_checks

let ( let* ) = Result.bind

(* The stack as data: each edge is its name, its key fold and its body,
   written once.  Nothing runs until [Edges.run] reaches the edge. *)
let edges ~ctx ~lock ~strategy ~adversarial =
  (* Every game-driving edge derives its scheduler suite from [strategy]
     over the edge's own game (DPOR must walk the game it will replay).
     The strategy-carrying context shares this call's token, so the walk
     stays under the same budget. *)
  let ctx = Ctx.with_strategy strategy ctx in
  let memory = ctx.Ctx.memory in
  let lk = lock_impl lock in
  (* locks sit below the scheduler: no thread placement *)
  let lock_l0 () = lk.lock.Object_intf.underlay memory [] in
  let lock_certify focus = Object_intf.certify lk.lock ~memory ~focus () in
  (* The memory mode is part of EVERY edge key — even the edges whose
     underlay is already an atomic interface — so a verdict computed
     under SC is never served for a TSO query (or vice versa). *)
  let edge ?key ?(setup = ignore) name run =
    let base () =
      Fingerprint.memory
        (Fingerprint.string (Fingerprint.string Fingerprint.empty "stack-edge") name)
        memory
    in
    {
      Edges.name;
      key = Option.map (fun fold () -> Fingerprint.finish (fold (base ()))) key;
      setup;
      run;
    }
  in
  let suite st = Fingerprint.engine st strategy in
  (* A linking edge: the suite's plays judged one by one; the first
     failure ends the scan, and a scan the budget cut short leaves the
     edge unfinished. *)
  let linking ?log_switches layer threads judge =
    let rec count n = function
      | [] -> Ok (checks "Link" n)
      | Ok () :: rest -> count (n + 1) rest
      | Error e :: _ -> Error e
    in
    count 0
      (Edges.value
         (Parallel.games ~ctx ?log_switches ~cut:Result.is_error layer threads
            judge (Explore.scheds_of_strategy_ctx ~ctx layer threads)))
  in
  let soundness cert client =
    Result.map
      (fun r -> checks "Sound" r.Linearizability.runs)
      (Edges.value (Linearizability.refine_cert_ctx ~ctx cert ~client))
  in
  let machine () = Ccal_machine.Tso.machine_layer memory in
  let faa_threads = [ 1, faa_round 1; 2, faa_round 2 ] in
  let lock_threads () =
    let m = lk.lock.Object_intf.c_module () in
    [ 1, lock_client m 1; 2, lock_client m 2 ]
  in
  let lock_key st =
    let st = fp_fns (Fingerprint.string st lk.lock_name) lk.lock_fns in
    Fingerprint.layer (Fingerprint.layer st (lock_l0 ())) (Lock_intf.layer "Llock")
  in
  let queue_key st =
    let st = Fingerprint.layer (fp_fns st queue_fns) (Ticket_lock.l0 ~memory ()) in
    Fingerprint.layer st (Queue_shared.overlay ())
  in
  let mt_layer () = Thread_sched.mt_layer mt_placement (Lock_intf.layer "Llock") in
  let mt_threads = [ 1, mt_prog 1; 2, mt_prog 2; 3, mt_prog 3 ] in
  let ipc_key st = Fingerprint.layer (fp_fns st ipc_fns) (Ipc.overlay ()) in
  (* Shared by edges 4 and 5, outside the cache, so a cache hit on edge 4
     leaves edge 5 to build the certificate outside its timed window. *)
  let stack_cert = lazy (Queue_shared.full_stack_certify ~memory ()) in
  [
    (* 1. multicore linking over the hardware machine of the mode *)
    edge "Mx86 refines Lx86[D] (Thm 3.1)"
      ~key:(fun st -> suite (fp_threads (Fingerprint.layer st (machine ())) faa_threads))
      (fun () ->
        let layer = machine () in
        linking ~log_switches:true layer faa_threads
          (Ccal_machine.Mx86.judge_linking layer faa_threads));
    (* 2. spinlock certificate *)
    edge
      (Printf.sprintf "L0 |- M_%s : Llock (Fun)" lk.lock_name)
      ~key:lock_key
      (fun () -> certified (lock_certify [ 1; 2 ]));
    (* 3. parallel composition of per-thread lock certificates, over the
       compat corpus of logs from contention games *)
    edge "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)"
      ~key:(fun st -> suite (fp_threads (lock_key st) (lock_threads ())))
      (fun () ->
        let* c1 = lock_certify [ 1 ] in
        let* c2 = lock_certify [ 2 ] in
        let layer = lock_l0 () and threads = lock_threads () in
        let outcomes =
          Edges.value
            (Explore.run_all_ctx ~ctx layer threads
               (Explore.scheds_of_strategy_ctx ~ctx layer threads))
        in
        certified
          (Calculus.pcomp c1 c2
             ~compat_logs:(List.map (fun o -> o.Game.log) outcomes)));
    (* 4. shared queue over the lock: vertical composition *)
    edge "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)" ~key:queue_key
      (fun () -> Result.map cert_checks (Lazy.force stack_cert));
    (* 5. queue soundness game; the certificate is built in [setup], so
       the timing and counters cover the game only *)
    edge "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)"
      ~key:(fun st ->
        suite (fp_threads (queue_key st) [ 1, queue_client 1; 2, queue_client 2 ]))
      ~setup:(fun () -> ignore (Lazy.force stack_cert))
      (fun () ->
        let* cert = Lazy.force stack_cert in
        soundness cert queue_client);
    (* 6. multithreaded linking over the scheduler *)
    edge "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)"
      ~key:(fun st ->
        suite (fp_threads (Fingerprint.layer (fp_placement st mt_placement) (mt_layer ())) mt_threads))
      (fun () ->
        let layer = mt_layer () in
        linking layer mt_threads
          (Thread_sched.judge_linking ~placement:mt_placement layer mt_threads));
    (* 7. queuing lock *)
    edge "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)"
      ~key:(fun st ->
        Fingerprint.layer (fp_fns st [ Qlock.acq_q_fn; Qlock.rel_q_fn ]) (Qlock.overlay ()))
      (fun () -> certified (Object_intf.certify Qlock.recipe ()));
    (* 8. IPC channel over condition variables *)
    edge "Lmt(spin+cv) |- M_ipc : Lipc (Fun)" ~key:ipc_key
      (fun () -> certified (Object_intf.certify Ipc.recipe ()));
    (* 9. IPC producer/consumer soundness including the blocking paths *)
    edge "[[producer|consumer]] refines Lipc (blocking paths)"
      ~key:(fun st ->
        suite
          (fp_threads (fp_placement (ipc_key st) ipc_placement)
             [ 1, ipc_client 1; 2, ipc_client 2 ]))
      (fun () ->
        let* cert = Object_intf.certify Ipc.recipe ~placement:ipc_placement () in
        soundness cert ipc_client);
    (* 10. reader-writer lock: a synchronization library added on top of
       the existing lock layer without touching it *)
    edge "Llock |- M_rwlock : Lrwlock (Fun, extension)"
      ~key:(fun st ->
        Fingerprint.layer
          (fp_fns st [ Rwlock.acq_r_fn; Rwlock.rel_r_fn; Rwlock.acq_w_fn; Rwlock.rel_w_fn ])
          (Rwlock.overlay ()))
      (fun () -> certified (Object_intf.certify Rwlock.recipe ()));
  ]
  @
  if not adversarial then []
  else
    [
      (* 11 (opt-in), never cached: its verdict is a budget
         demonstration.  The spinning rwlock implementation under the
         trace-prefix suite: the spin retry loop phase-locks with
         [of_trace]'s round-robin degradation (the writer's turn always
         lands while a reader holds the underlay lock), so these games
         livelock to the fuel limit — the workload that demonstrates
         budgets turning a hang into an [Exhausted] report.  Stuckness
         and deadlock still fail the edge; burning all fuel does not.  A
         game burns its fuel in milliseconds (S32), so the suite is 3^7
         games, and only their statuses are kept. *)
      edge "Lrwlock spin suite under adversarial schedules (livelock)"
        (fun () ->
          let layer = Rwlock.underlay () in
          let spin acq rel =
            Prog.Module.link (Rwlock.c_module ())
              (Prog.seq (Prog.call acq [ vi 4 ]) (Prog.call rel [ vi 4 ]))
          in
          let reader = spin "acq_r" "rel_r" in
          let threads = [ 1, reader; 2, reader; 3, spin "acq_w" "rel_w" ] in
          let judged =
            Edges.value
              (Parallel.games ~ctx ~max_steps:200_000 layer threads
                 (fun sched o ->
                   match o.Game.status with
                   | Game.Stuck _ | Game.Deadlock _ ->
                     Error
                       (Failure.underlay ~sched:(Sched.name sched) o.Game.log
                          (Format.asprintf "adversarial rwlock game failed: %a"
                             Game.pp_status o.Game.status))
                   | _ -> Ok ())
                 (Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:7))
          in
          match List.find_opt Result.is_error judged with
          | Some (Error f) -> Error f
          | _ -> Ok (checks "Adv" (List.length judged)));
    ]

let default_strategy = Ctx.Engine.random ~count:4

let edge_fingerprints ?(lock = `Ticket) ?(strategy = default_strategy)
    ?(memory = Memory.default) () =
  List.filter_map
    (fun e -> Option.map (fun key -> e.Edges.name, key ()) e.Edges.key)
    (edges
       ~ctx:(Ctx.with_memory memory Ctx.default)
       ~lock ~strategy ~adversarial:false)

let verify_all_ctx ~ctx ?(lock = `Ticket) ?(strategy = default_strategy)
    ?(adversarial = false) () =
  Ctx.arm ctx @@ fun () ->
  Edges.run ~ctx ~kind:"edge" ~layout (edges ~ctx ~lock ~strategy ~adversarial)
