open Ccal_core

let cpuid_prim =
  ("cpuid", Layer.Private (fun c _args abs -> Ok (abs, Value.int c)))

let layer () =
  Layer.make "Lx86" (Atomic.prims @ Pushpull.prims @ [ cpuid_prim ])

let erase_switches =
  Sim_rel.of_events "erase-switches" (fun e ->
      if Event.is_switch e then [] else [ e ])

(* Judge one play of the hardware machine [l] (its game recorded with
   [log_switches]): erase the scheduling events and replay the result on
   the same layer.  Any hardware machine over the same game semantics
   works — the TSO machine's plays carry its flush moves.  The replayed
   strategies must reproduce the erased log verbatim, so the client
   workload must be commit-free under TSO (no plain stores); store-buffer
   discipline for storeful workloads is checked separately
   ({!Tso.replay_buffer} well-formedness). *)
let judge_linking ?max_steps l threads sched (outcome : Game.outcome) =
  Probe.span "mx86.linking" @@ fun () ->
  match outcome.Game.status with
  | Game.Stuck (i, _, msg) ->
    Error
      (Failure.underlay ~sched:(Sched.name sched) outcome.Game.log
         (Printf.sprintf "Mx86 run stuck at CPU %d: %s" i msg))
  | Game.Deadlock _ | Game.Out_of_fuel | Game.Cancelled ->
    Error
      (Failure.underlay ~sched:(Sched.name sched) outcome.Game.log
         (Format.asprintf "Mx86 run did not complete: %a" Game.pp_status
            outcome.Game.status))
  | Game.All_done -> (
    let erased = Sim_rel.apply erase_switches outcome.Game.log in
    match Refinement.replay_multi ?max_steps l threads erased with
    | Ok _ -> Ok ()
    | Error (reason, replayed) ->
      Error
        (Failure.overlay ~sched:(Sched.name sched) ~lower:outcome.Game.log
           replayed ("multicore linking failed: " ^ reason)))
