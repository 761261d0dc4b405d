open Ccal_core

let cpuid_prim =
  ("cpuid", Layer.Private (fun c _args abs -> Ok (abs, Value.int c)))

let layer () =
  Layer.make "Lx86" (Atomic.prims @ Pushpull.prims @ [ cpuid_prim ])

let behaviors ?max_steps ~threads ~scheds () =
  Game.behaviors ?max_steps ~log_switches:true (layer ()) threads scheds

let erase_switches =
  Sim_rel.of_events "erase-switches" (fun e ->
      if Event.is_switch e then [] else [ e ])

(* [?layer]/[?memory] generalize the linking check to other hardware
   machines over the same game semantics — {!Tso} passes its buffered
   layer and [Memory.Tso] so flush moves are part of the play.  The
   replayed strategies must reproduce the erased log verbatim, so the
   client workload must be commit-free under TSO (no plain stores);
   store-buffer discipline for storeful workloads is checked separately
   ({!Tso.replay_buffer} well-formedness). *)
let check_multicore_linking_sched ?max_steps ?layer:l ?(memory = Memory.default)
    ~threads sched =
  Probe.span "mx86.linking" @@ fun () ->
  let l = match l with Some l -> l | None -> layer () in
  let outcome =
    Game.run (Game.config ?max_steps ~log_switches:true ~memory l threads sched)
  in
  match outcome.Game.status with
  | Game.Stuck (i, _, msg) ->
    Error (Printf.sprintf "Mx86 run stuck at CPU %d: %s" i msg)
  | Game.Deadlock _ | Game.Out_of_fuel | Game.Cancelled ->
    Error
      (Printf.sprintf "Mx86 run did not complete under %s" sched.Sched.name)
  | Game.All_done -> (
    let erased = Sim_rel.apply erase_switches outcome.Game.log in
    match Refinement.replay_multi ?max_steps l threads erased with
    | Ok _ -> Ok outcome.Game.steps
    | Error (reason, _) ->
      Error
        (Printf.sprintf "multicore linking failed under %s: %s"
           sched.Sched.name reason))

let check_multicore_linking ?max_steps ~threads ~scheds () =
  let rec go n = function
    | [] -> Ok n
    | sched :: rest -> (
      match check_multicore_linking_sched ?max_steps ~threads sched with
      | Ok _ -> go (n + 1) rest
      | Error _ as e -> e)
  in
  go 0 scheds
