open Ccal_core
open Ccal_objects

type edge = {
  edge_name : string;
  kind : [ `Cert of Calculus.rule_name | `Linking | `Soundness | `Adversarial ];
  checks : int;
  millis : float;
  counters : (string * int) list;
      (* this edge's telemetry counter growth; [] when telemetry is off *)
}

type report = {
  edges : edge list;
  total_checks : int;
  total_millis : float;
}

type progress = { completed : report; next_edge : string option }

let kind_label = function
  | `Cert rule ->
    (match rule with
    | Calculus.Empty -> "Empty"
    | Calculus.Fun -> "Fun"
    | Calculus.Vcomp -> "Vcomp"
    | Calculus.Hcomp -> "Hcomp"
    | Calculus.Wk -> "Wk"
    | Calculus.Pcomp -> "Pcomp")
  | `Linking -> "Link"
  | `Soundness -> "Sound"
  | `Adversarial -> "Adv"

let pp_counters fmt counters =
  if counters <> [] then
    Format.fprintf fmt "          %s@."
      (String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) counters))

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf fmt "  [%-5s] %-55s %4d checks  %6.1f ms@."
        (kind_label e.kind) e.edge_name e.checks e.millis;
      pp_counters fmt e.counters)
    r.edges;
  Format.fprintf fmt "  total: %d checks in %.1f ms@]" r.total_checks r.total_millis

(* The verdict-stable projection of the report: everything except the
   timing fields.  This is the "bit-identical" contract of the
   certificate cache — a warm run prints exactly this text, byte for
   byte, for every jobs count (DESIGN "Certificate cache"), so the CI
   cache leg can [cmp] cold and warm runs. *)
let pp_report_canonical fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf fmt "  [%-5s] %-55s %4d checks@." (kind_label e.kind)
        e.edge_name e.checks;
      pp_counters fmt e.counters)
    r.edges;
  Format.fprintf fmt "  total: %d checks@]" r.total_checks

(* Like [Verify_clock.timed], but also the edge's telemetry counter
   growth — [Probe.counters] snapshots are cheap (a handful of atomics)
   and empty when telemetry is off, so this adds nothing to the
   uninstrumented path. *)
let timed f =
  let before = Probe.counters () in
  let r, ms = Verify_clock.timed f in
  (r, ms, Probe.diff_counters before (Probe.counters ()))

(* Fold a [Parallel.budgeted_scan]-produced prefix of per-schedule linking
   results back into the sequential count-or-first-error shape. *)
let fold_linking results =
  let rec go n = function
    | [] -> Ok n
    | Ok _ :: rest -> go (n + 1) rest
    | (Error _ as e) :: _ -> e
  in
  go 0 results

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
(* Edge fingerprints.

   One key per edge, covering exactly what that edge's verdict depends
   on: the ClightX sources of the objects it certifies (via
   [Csyntax.fp_fn] — the structural hash, so editing one object module
   invalidates exactly the edges whose key folds it in), the layer
   interfaces, the client workloads, and — for the game-driving edges
   only — the scheduler-suite identity (seeds or strategy).  [jobs] is
   never part of a key: verdicts are identical across jobs counts. *)

let fp_fns st fns = List.fold_left Ccal_clight.Csyntax.fp_fn st fns

let fp_placement st p =
  Fingerprint.list
    (fun st (t, c) -> Fingerprint.int (Fingerprint.int st t) c)
    st p

let edge_keys ~lock ~seeds ~strategy ~memory =
  let suite st =
    match strategy with
    | None -> Fingerprint.string (Fingerprint.int st 1) (Printf.sprintf "seeds:%d" seeds)
    | Some s ->
      Fingerprint.string (Fingerprint.int st 2) (Ctx.Engine.to_string s)
  in
  (* The memory mode is part of EVERY edge key — even the edges whose
     underlay is already an atomic interface — so a verdict computed
     under SC is never served for a TSO query (or vice versa). *)
  let base name =
    Fingerprint.memory
      (Fingerprint.string (Fingerprint.string Fingerprint.empty "stack-edge") name)
      memory
  in
  let lock_name = match lock with `Ticket -> "ticket" | `Mcs -> "mcs" in
  let lock_fns =
    match lock with
    | `Ticket -> [ Ticket_lock.acq_fn; Ticket_lock.rel_fn ]
    | `Mcs -> [ Mcs_lock.acq_fn; Mcs_lock.rel_fn ]
  in
  let lock_l0 =
    match lock with
    | `Ticket -> Ticket_lock.l0 ~memory ()
    | `Mcs -> Mcs_lock.l0 ~memory ()
  in
  let lock_overlay =
    match lock with
    | `Ticket -> Ticket_lock.overlay ()
    | `Mcs -> Mcs_lock.overlay ()
  in
  let lock_m =
    match lock with
    | `Ticket -> Ticket_lock.c_module ()
    | `Mcs -> Mcs_lock.c_module ()
  in
  let queue_fns =
    [ Ticket_lock.acq_fn; Ticket_lock.rel_fn; Queue_shared.enq_fn;
      Queue_shared.deq_fn ]
  in
  let ipc_fns =
    [ Ipc.send_fn; Ipc.recv_fn; Condvar.cv_wait_fn; Condvar.cv_signal_fn;
      Condvar.cv_broadcast_fn ]
  in
  let fp_threads st threads =
    Fingerprint.list
      (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
      st threads
  in
  let e1 =
    let st = base "Mx86 refines Lx86[D] (Thm 3.1)" in
    let st = Fingerprint.layer st (Ccal_machine.Tso.machine_layer memory) in
    let st = fp_threads st [ 1, faa_round 1; 2, faa_round 2 ] in
    Fingerprint.finish (suite st)
  in
  let e2 =
    let st = base (Printf.sprintf "L0 |- M_%s : Llock (Fun)" lock_name) in
    let st = Fingerprint.string st lock_name in
    let st = fp_fns st lock_fns in
    let st = Fingerprint.layer st lock_l0 in
    Fingerprint.finish (Fingerprint.layer st lock_overlay)
  in
  let e3 =
    let st = base "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)" in
    let st = Fingerprint.string st lock_name in
    let st = fp_fns st lock_fns in
    let st = Fingerprint.layer st lock_l0 in
    let st = Fingerprint.layer st lock_overlay in
    let st = fp_threads st [ 1, lock_client lock_m 1; 2, lock_client lock_m 2 ] in
    Fingerprint.finish (suite st)
  in
  let e4 =
    let st = base "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)" in
    let st = fp_fns st queue_fns in
    let st = Fingerprint.layer st (Ticket_lock.l0 ~memory ()) in
    Fingerprint.finish (Fingerprint.layer st (Queue_shared.overlay ()))
  in
  let e5 =
    let st = base "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)" in
    let st = fp_fns st queue_fns in
    let st = Fingerprint.layer st (Ticket_lock.l0 ~memory ()) in
    let st = Fingerprint.layer st (Queue_shared.overlay ()) in
    let st = fp_threads st [ 1, queue_client 1; 2, queue_client 2 ] in
    Fingerprint.finish (suite st)
  in
  let e6 =
    let st = base "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)" in
    let st = fp_placement st mt_placement in
    let st =
      Fingerprint.layer st
        (Thread_sched.mt_layer mt_placement (Lock_intf.layer "Llock"))
    in
    let st = fp_threads st [ 1, mt_prog 1; 2, mt_prog 2; 3, mt_prog 3 ] in
    Fingerprint.finish (suite st)
  in
  let e7 =
    let st = base "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)" in
    let st = fp_fns st [ Qlock.acq_q_fn; Qlock.rel_q_fn ] in
    Fingerprint.finish (Fingerprint.layer st (Qlock.overlay ()))
  in
  let e8 =
    let st = base "Lmt(spin+cv) |- M_ipc : Lipc (Fun)" in
    let st = fp_fns st ipc_fns in
    Fingerprint.finish (Fingerprint.layer st (Ipc.overlay ()))
  in
  let e9 =
    let st = base "[[producer|consumer]] refines Lipc (blocking paths)" in
    let st = fp_fns st ipc_fns in
    let st = Fingerprint.layer st (Ipc.overlay ()) in
    let st = fp_placement st ipc_placement in
    let st = fp_threads st [ 1, ipc_client 1; 2, ipc_client 2 ] in
    Fingerprint.finish (suite st)
  in
  let e10 =
    let st = base "Llock |- M_rwlock : Lrwlock (Fun, extension)" in
    let st =
      fp_fns st
        [ Rwlock.acq_r_fn; Rwlock.rel_r_fn; Rwlock.acq_w_fn; Rwlock.rel_w_fn ]
    in
    Fingerprint.finish (Fingerprint.layer st (Rwlock.overlay ()))
  in
  [
    "Mx86 refines Lx86[D] (Thm 3.1)", e1;
    Printf.sprintf "L0 |- M_%s : Llock (Fun)" lock_name, e2;
    "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)", e3;
    "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)", e4;
    "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)", e5;
    "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)", e6;
    "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)", e7;
    "Lmt(spin+cv) |- M_ipc : Lipc (Fun)", e8;
    "[[producer|consumer]] refines Lipc (blocking paths)", e9;
    "Llock |- M_rwlock : Lrwlock (Fun, extension)", e10;
  ]

let edge_fingerprints ?(lock = `Ticket) ?(seeds = 4) ?strategy
    ?(memory = Memory.default) () =
  edge_keys ~lock ~seeds ~strategy ~memory

(* Budgeted sub-checkers inside an edge body signal exhaustion by
   exception; the edge loop catches it and reports the stack-level
   [Exhausted] with that edge as the frontier. *)
exception Ran_out_of_budget

let value_or_raise = function
  | Budget.Complete v -> v
  | Budget.Exhausted _ -> raise Ran_out_of_budget

let adversarial_edge_name =
  "Lrwlock spin suite under adversarial schedules (livelock)"

let verify_all_ctx ~ctx ?(lock = `Ticket) ?(seeds = 4) ?strategy
    ?(adversarial = false) () =
  Ctx.arm ctx @@ fun () ->
  let jobs = Ctx.jobs_opt ctx in
  (* A linking edge's suite under the run's token: a game costs its
     steps, and a scan the budget cut short leaves the edge unfinished. *)
  let linking_scan check scheds =
    let scan =
      Parallel.budgeted_scan ?jobs ~token:ctx.Ctx.token
        ~cost:(function Ok steps -> steps | Error _ -> 0)
        ~interrupted:(fun _ -> false) ~cut:Result.is_error
        (fun ~stop:_ sched -> check sched)
        scheds
    in
    if scan.Parallel.ran_out then raise Ran_out_of_budget;
    fold_linking scan.Parallel.prefix
  in
  let cache = ctx.Ctx.cache in
  let memory = ctx.Ctx.memory in
  let keys = edge_keys ~lock ~seeds ~strategy ~memory in
  (* Per-edge memoization.  The cache probe and store sit OUTSIDE the
     [timed] window of the edge body, so a cold run's per-edge counters
     are unaffected by caching and a warm hit reproduces the stored
     edge verbatim (timing aside: a hit's [millis] is the lookup time).
     Only successful edges are stored — a failing edge aborts the stack
     and always re-runs live.  Edges without a fingerprint (the
     adversarial one: its verdict is a budget demonstration, not a
     cacheable fact) always run live. *)
  let edge_cached name (run : unit -> (edge, string) result) =
    match cache, List.assoc_opt name keys with
    | None, _ | _, None -> run ()
    | Some c, Some key -> (
      let found, lookup_ms =
        Verify_clock.timed (fun () -> Cache.find c ~kind:"edge" key)
      in
      match found with
      | Some (e : edge) -> Ok { e with millis = lookup_ms }
      | None -> (
        match run () with
        | Ok e ->
          Cache.store c ~kind:"edge" key e;
          Ok e
        | Error _ as err -> err))
  in
  let scheds () = Sched.default_suite ~seeds in
  (* With an explicit strategy, every game-driving edge derives its
     scheduler suite from the edge's own game (DPOR must walk the game it
     will replay); without one, the seeded default suite is used.  The
     strategy-carrying context shares this call's token and cache, so the
     walk stays under the same budget. *)
  let scheds_for layer threads =
    match strategy with
    | None -> scheds ()
    | Some s ->
      Explore.scheds_of_strategy_ctx ~ctx:(Ctx.with_strategy s ctx) layer
        threads
  in
  let cert_scheds_for (cert : Calculus.cert) client =
    match strategy with
    | None -> scheds ()
    | Some s ->
      let j = cert.Calculus.judgment in
      let threads =
        List.map
          (fun i -> i, Prog.Module.link j.Calculus.impl (client i))
          j.Calculus.focus
      in
      Explore.scheds_of_strategy_ctx
        ~ctx:(Ctx.with_strategy s ctx)
        j.Calculus.underlay threads
  in
  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in

  (* Certificate memo shared by edges 4 and 5, outside the cache, so a
     cache hit on edge 4 does not force edge 5 to rebuild the
     certificate inside its own timed window. *)
  let stack_cert_memo = ref None in
  let build_stack_cert () =
    match !stack_cert_memo with
    | Some c -> Ok c
    | None ->
      Result.map
        (fun c ->
          stack_cert_memo := Some c;
          c)
        (Result.map_error (Format.asprintf "%a" Calculus.pp_error)
           (Queue_shared.full_stack_certify ~memory ()))
  in

  let lock_name, certify_lock =
    match lock with
    | `Ticket ->
      "ticket", fun () -> Ticket_lock.certify ~memory ~focus:[ 1; 2 ] ()
    | `Mcs -> "mcs", fun () -> Mcs_lock.certify ~memory ~focus:[ 1; 2 ] ()
  in
  let lock_edge_name = Printf.sprintf "L0 |- M_%s : Llock (Fun)" lock_name in

  (* The stack as data: each edge is a named thunk, run in order with the
     budget polled between edges — the frontier of an [Exhausted] stack
     is the first edge that did not complete. *)
  let edge_thunks =
    [
      (* 1. multicore linking over the hardware machine of the mode *)
      ( "Mx86 refines Lx86[D] (Thm 3.1)",
        fun () ->
          let link_result, ms, cs =
            timed (fun () ->
                let threads = [ 1, faa_round 1; 2, faa_round 2 ] in
                let check sched =
                  match memory with
                  | Memory.Sc ->
                    Ccal_machine.Mx86.check_multicore_linking_sched ~threads
                      sched
                  | Memory.Tso ->
                    Ccal_machine.Tso.check_multicore_linking_sched ~threads
                      sched
                in
                linking_scan check
                  (scheds_for (Ccal_machine.Tso.machine_layer memory) threads))
          in
          let* n = link_result in
          Ok
            { edge_name = "Mx86 refines Lx86[D] (Thm 3.1)"; kind = `Linking;
              checks = n; millis = ms; counters = cs } );
      (* 2. spinlock certificate *)
      ( lock_edge_name,
        fun () ->
          let lock_cert, ms, cs = timed certify_lock in
          let* lock_cert =
            Result.map_error (Format.asprintf "%a" Calculus.pp_error) lock_cert
          in
          Ok
            { edge_name = lock_edge_name; kind = `Cert lock_cert.Calculus.rule;
              checks = Calculus.count_checks lock_cert; millis = ms;
              counters = cs } );
      (* 3. parallel composition of per-thread lock certificates *)
      ( "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)",
        fun () ->
          let pcomp_result, ms, cs =
            timed (fun () ->
                let mk focus =
                  match lock with
                  | `Ticket -> Ticket_lock.certify ~memory ~focus ()
                  | `Mcs -> Mcs_lock.certify ~memory ~focus ()
                in
                let* c1 =
                  Result.map_error (Format.asprintf "%a" Calculus.pp_error)
                    (mk [ 1 ])
                in
                let* c2 =
                  Result.map_error (Format.asprintf "%a" Calculus.pp_error)
                    (mk [ 2 ])
                in
                (* the compat corpus: logs from contention games *)
                let layer =
                  match lock with
                  | `Ticket -> Ticket_lock.l0 ~memory ()
                  | `Mcs -> Mcs_lock.l0 ~memory ()
                in
                let m =
                  match lock with
                  | `Ticket -> Ticket_lock.c_module ()
                  | `Mcs -> Mcs_lock.c_module ()
                in
                let threads = [ 1, lock_client m 1; 2, lock_client m 2 ] in
                let logs =
                  List.map
                    (fun o -> o.Game.log)
                    (value_or_raise
                       (Explore.run_all_ctx ~ctx layer threads
                          (scheds_for layer threads)))
                in
                Result.map_error (Format.asprintf "%a" Calculus.pp_error)
                  (Calculus.pcomp c1 c2 ~compat_logs:logs))
          in
          let* pcert = pcomp_result in
          Ok
            { edge_name = "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)";
              kind = `Cert pcert.Calculus.rule;
              checks = Calculus.count_checks pcert; millis = ms;
              counters = cs } );
      (* 4. shared queue over the lock: vertical composition *)
      ( "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)",
        fun () ->
          let stack_cert, ms, cs = timed build_stack_cert in
          let* stack_cert = stack_cert in
          Ok
            { edge_name = "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)";
              kind = `Cert stack_cert.Calculus.rule;
              checks = Calculus.count_checks stack_cert; millis = ms;
              counters = cs } );
      (* 5. queue soundness game.  The certificate comes from the memo
         (or a rebuild, outside the timed window, when edge 4 was a cache
         hit); the edge's timing and counters cover the soundness game
         only, exactly as they always did. *)
      ( "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)",
        fun () ->
          let* stack_cert = build_stack_cert () in
          let sound, ms, cs =
            timed (fun () ->
                Result.map_error (Format.asprintf "%a" Refinement.pp_failure)
                  (value_or_raise
                     (Linearizability.refine_cert_ctx ~ctx stack_cert
                        ~client:queue_client
                        ~scheds:(cert_scheds_for stack_cert queue_client))))
          in
          let* sound_report = sound in
          Ok
            { edge_name = "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)";
              kind = `Soundness;
              checks = sound_report.Refinement.scheds_checked; millis = ms;
              counters = cs } );
      (* 6. multithreaded linking over the scheduler *)
      ( "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)",
        fun () ->
          let mtl, ms, cs =
            timed (fun () ->
                let layer =
                  Thread_sched.mt_layer mt_placement (Lock_intf.layer "Llock")
                in
                let threads = [ 1, mt_prog 1; 2, mt_prog 2; 3, mt_prog 3 ] in
                linking_scan
                  (Thread_sched.check_multithreaded_linking_sched
                     ~placement:mt_placement ~layer ~threads)
                  (scheds_for layer threads))
          in
          let* n = mtl in
          Ok
            { edge_name = "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)"; kind = `Linking;
              checks = n; millis = ms; counters = cs } );
      (* 7. queuing lock *)
      ( "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)",
        fun () ->
          let ql, ms, cs = timed (fun () -> Qlock.certify ()) in
          let* ql =
            Result.map_error (Format.asprintf "%a" Calculus.pp_error) ql
          in
          Ok
            { edge_name = "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)";
              kind = `Cert ql.Calculus.rule; checks = Calculus.count_checks ql;
              millis = ms; counters = cs } );
      (* 8. IPC channel over condition variables *)
      ( "Lmt(spin+cv) |- M_ipc : Lipc (Fun)",
        fun () ->
          let ipc, ms, cs = timed (fun () -> Ipc.certify ()) in
          let* ipc_cert =
            Result.map_error (Format.asprintf "%a" Calculus.pp_error) ipc
          in
          Ok
            { edge_name = "Lmt(spin+cv) |- M_ipc : Lipc (Fun)";
              kind = `Cert ipc_cert.Calculus.rule;
              checks = Calculus.count_checks ipc_cert; millis = ms;
              counters = cs } );
      (* 9. IPC producer/consumer soundness including the blocking paths *)
      ( "[[producer|consumer]] refines Lipc (blocking paths)",
        fun () ->
          let ipc_sound, ms, cs =
            timed (fun () ->
                let* cert =
                  Result.map_error (Format.asprintf "%a" Calculus.pp_error)
                    (Ipc.certify ~placement:ipc_placement ~focus:[ 1; 2 ] ())
                in
                Result.map_error (Format.asprintf "%a" Refinement.pp_failure)
                  (value_or_raise
                     (Linearizability.refine_cert_ctx ~ctx cert
                        ~client:ipc_client
                        ~scheds:(cert_scheds_for cert ipc_client))))
          in
          let* r = ipc_sound in
          Ok
            { edge_name = "[[producer|consumer]] refines Lipc (blocking paths)";
              kind = `Soundness; checks = r.Refinement.scheds_checked;
              millis = ms; counters = cs } );
      (* 10. reader-writer lock: a synchronization library added on top of
         the existing lock layer without touching it *)
      ( "Llock |- M_rwlock : Lrwlock (Fun, extension)",
        fun () ->
          let rw, ms, cs = timed (fun () -> Rwlock.certify ()) in
          let* rw =
            Result.map_error (Format.asprintf "%a" Calculus.pp_error) rw
          in
          Ok
            { edge_name = "Llock |- M_rwlock : Lrwlock (Fun, extension)";
              kind = `Cert rw.Calculus.rule; checks = Calculus.count_checks rw;
              millis = ms; counters = cs } );
    ]
    @
    if not adversarial then []
    else
      [
        (* 11 (opt-in). the spinning rwlock implementation under the
           trace-prefix suite: the spin retry loop phase-locks with
           [of_trace]'s round-robin degradation (the writer's turn always
           lands while a reader holds the underlay lock), so these games
           livelock to the fuel limit — the workload that demonstrates
           budgets turning a hang into an [Exhausted] report.  Stuckness
           and deadlock still fail the edge; burning all fuel does not.
           A game burns its fuel in milliseconds (S32), so the suite is
           3^7 games, and only their statuses are kept. *)
        ( adversarial_edge_name,
          fun () ->
            let result, ms, cs =
              timed (fun () ->
                  let layer = Rwlock.underlay () in
                  let m = Rwlock.c_module () in
                  let spin p = Prog.Module.link m p in
                  let reader =
                    spin
                      (Prog.seq
                         (Prog.call "acq_r" [ vi 4 ])
                         (Prog.call "rel_r" [ vi 4 ]))
                  in
                  let writer =
                    spin
                      (Prog.seq
                         (Prog.call "acq_w" [ vi 4 ])
                         (Prog.call "rel_w" [ vi 4 ]))
                  in
                  let threads = [ 1, reader; 2, reader; 3, writer ] in
                  let scan =
                    Parallel.budgeted_scan ?jobs ~token:ctx.Ctx.token ~cost:snd
                      ~interrupted:(fun (s, _) -> s = Game.Cancelled)
                      ~cut:(fun _ -> false)
                      (fun ~stop sched ->
                        let o =
                          Game.run
                            (Game.config ~max_steps:200_000 ?stop
                               ~memory:ctx.Ctx.memory layer threads sched)
                        in
                        o.Game.status, o.Game.steps)
                      (Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:7)
                  in
                  if scan.Parallel.ran_out then raise Ran_out_of_budget;
                  match
                    List.find_opt
                      (function
                        | (Game.Stuck _ | Game.Deadlock _), _ -> true | _ -> false)
                      scan.Parallel.prefix
                  with
                  | Some (status, _) ->
                    Error
                      (Format.asprintf "adversarial rwlock game failed: %a"
                         Game.pp_status status)
                  | None -> Ok (List.length scan.Parallel.prefix))
            in
            let* n = result in
            Ok
              { edge_name = adversarial_edge_name; kind = `Adversarial;
                checks = n; millis = ms; counters = cs } );
      ]
  in

  let mk_report acc =
    let edges = List.rev acc in
    {
      edges;
      total_checks = List.fold_left (fun n e -> n + e.checks) 0 edges;
      total_millis = List.fold_left (fun t e -> t +. e.millis) 0. edges;
    }
  in
  let exhausted_at acc name =
    Budget.Exhausted
      {
        spent = Budget.spent ctx.Ctx.token;
        partial = Ok { completed = mk_report acc; next_edge = Some name };
      }
  in
  let rec go acc = function
    | [] -> Budget.Complete (Ok { completed = mk_report acc; next_edge = None })
    | (name, thunk) :: rest ->
      if Budget.poll ctx.Ctx.token then exhausted_at acc name
      else (
        match edge_cached name thunk with
        | exception Ran_out_of_budget -> exhausted_at acc name
        | Error e -> Budget.Complete (Error e)
        | Ok edge -> go (edge :: acc) rest)
  in
  go [] edge_thunks
