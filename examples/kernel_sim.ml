(* The Figure 1 stack, end to end.

   "Above the hardware layers, we must first build an efficient and
   starvation-free spinlock implementation.  With spinlocks, we can
   implement shared objects for sleep and pending thread queues, which are
   then used to implement the thread schedulers, and the primitives yield,
   sleep, and wakeup.  On top of them, we can then implement high-level
   synchronization libraries such as queuing locks, condition variables
   (CV), and message-passing primitives."  (Sec. 1)

   This driver certifies every edge of that stack and checks the linking
   theorems, then exercises the result with a small "kernel" workload:
   worker threads on two CPUs pass work items through the certified IPC
   channel while contending on a queuing lock.

   Run with:  dune exec examples/kernel_sim.exe *)

open Ccal_core
open Ccal_objects

let vi = Value.int

let () =
  Format.printf "== kernel_sim: verifying the Fig. 1 layer stack ==@.@.";
  (match
     Ccal_verify.Budget.value
       (Ccal_verify.Stack.verify_all_ctx ~ctx:Ccal_verify.Ctx.default
          ~lock:`Ticket
          ~strategy:(Ccal_verify.Ctx.Engine.random ~count:4) ())
   with
  | Ok p ->
    Format.printf "%a@."
      (Ccal_verify.Edges.pp ~millis:true Ccal_verify.Stack.layout)
      p.Ccal_verify.Stack.completed.Ccal_verify.Stack.edges
  | Error f ->
    Format.printf "STACK VERIFICATION FAILED: %a@." Failure.pp f;
    exit 1);

  (* ---- a small kernel workload over the verified layers ---- *)
  Format.printf "== workload: work queue + queuing lock on 2 CPUs ==@.@.";
  let placement = [ 1, 0; 2, 0; 3, 1; 4, 1 ] in
  let base = Lock_intf.layer ~extra:Queue_shared.helpers "Lkern" in
  let layer = Thread_sched.mt_layer placement base in
  let modules =
    Prog.Module.union (Ipc.c_module ()) (Qlock.c_module ())
  in
  let qlock = 77 and chan = 5 in
  (* producers on CPU 0 push work items; workers on CPU 1 process them
     under the queuing lock and accumulate into the lock-protected word *)
  let producer i items =
    Prog.seq_all
      (List.concat_map
         (fun k ->
           [ Prog.call "send" [ vi chan; vi ((10 * i) + k) ];
             Prog.call Thread_sched.yield_tag [] ])
         items
      @ [ Prog.call Thread_sched.exit_tag [] ])
  in
  let worker n =
    let rec go k acc =
      if k = 0 then
        Prog.seq (Prog.call Thread_sched.exit_tag []) (Prog.ret (vi acc))
      else
        Prog.bind (Prog.call "recv" [ vi chan ]) (fun v ->
            Prog.seq_all
              [ Prog.call "acq_q" [ vi qlock ]; Prog.call "rel_q" [ vi qlock ] ]
            |> fun crit -> Prog.seq crit (go (k - 1) (acc + Value.to_int v)))
    in
    go n 0
  in
  let threads =
    [ 1, Prog.Module.link modules (producer 1 [ 1; 2; 3 ]);
      2, Prog.Module.link modules (producer 2 [ 1; 2; 3 ]);
      3, Prog.Module.link modules (worker 3);
      4, Prog.Module.link modules (worker 3) ]
  in
  let o =
    Game.run (Game.config ~max_steps:500_000 layer threads (Sched.random ~seed:11))
  in
  Format.printf "status: %a, %d events@." Game.pp_status o.Game.status
    (Log.length o.Game.log);
  let total =
    List.fold_left
      (fun acc (i, v) -> if i >= 3 then acc + Value.to_int v else acc)
      0 o.Game.results
  in
  Format.printf "work processed by workers: %d (expected %d)@." total
    (11 + 12 + 13 + 21 + 22 + 23);
  let t = Sim_rel.apply Ipc.r_ipc o.Game.log in
  Format.printf "channel history wellformed: %b@."
    (Replay.well_formed (Ipc.replay_chan chan) t);
  let tq = Sim_rel.apply Qlock.r_qlock o.Game.log in
  Format.printf "queuing-lock history wellformed: %b@."
    (Replay.well_formed (Qlock.replay_qlock qlock) tq)
