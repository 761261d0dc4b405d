(* Two lock implementations, one atomic interface.

   Sec. 6: "Both ticket and MCS locks share the same high-level atomic
   specifications ... the lock implementations can be freely interchanged
   without affecting any proof in the higher-level modules using locks."

   This example certifies both implementations against the same [Llock]
   interface, runs the same contended client over each, and compares the
   observable behaviour: both produce atomic acq/rel histories, both are
   FIFO, and the waiting spans measured at the hardware level differ only
   in the constants.

   Run with:  dune exec examples/ticket_vs_mcs.exe *)

open Ccal_core
open Ccal_objects

let vi = Value.int

let client rounds i =
  let rec go k =
    if k = 0 then Prog.ret (vi i)
    else
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
          Prog.seq
            (Prog.call "rel" [ vi 0; vi (Value.to_int v + 1) ])
            (go (k - 1)))
  in
  go rounds

let contend name layer m rel ~ticket_tag =
  let threads =
    List.map (fun i -> i, Prog.Module.link m (client 3 i)) [ 1; 2; 3; 4 ]
  in
  let o =
    Game.run (Game.config ~max_steps:500_000 layer threads (Sched.random ~seed:2024))
  in
  assert (Game.successful o);
  let atomic = Sim_rel.apply rel o.Game.log in
  let spans =
    Ccal_verify.Progress.waiting_spans ~ticket_tag ~enter_tag:"pull" o.Game.log
  in
  let max_span = List.fold_left (fun m (_, s) -> max m s) 0 spans in
  Format.printf
    "%-8s %4d hardware events -> %2d atomic events | mutex %b | FIFO %b | max wait %d events@."
    name (Log.length o.Game.log) (Log.length atomic)
    (Lock_intf.mutual_exclusion atomic)
    (Ccal_verify.Progress.fifo_order ~ticket_tag ~enter_tag:"pull" o.Game.log)
    max_span;
  atomic

let () =
  Format.printf "== ticket vs MCS: same interface, interchangeable ==@.@.";

  (* certify both against the same overlay *)
  (match Object_intf.certify Ticket_lock.recipe () with
  | Ok c -> Format.printf "ticket certified: %d checks@." (Calculus.count_checks c)
  | Error e -> Format.printf "ticket FAILED: %a@." Failure.pp e);
  (match Object_intf.certify Mcs_lock.recipe () with
  | Ok c -> Format.printf "mcs    certified: %d checks@.@." (Calculus.count_checks c)
  | Error e -> Format.printf "mcs FAILED: %a@." Failure.pp e);

  let a1 =
    contend "ticket" (Ticket_lock.l0 ()) (Ticket_lock.c_module ())
      Ticket_lock.r_ticket ~ticket_tag:"FAI_t"
  in
  let a2 =
    contend "mcs" (Mcs_lock.l0 ()) (Mcs_lock.c_module ()) Mcs_lock.r_mcs
      ~ticket_tag:"xchg"
  in

  (* the final protected value is the number of critical sections on both *)
  let final atomic =
    match
      List.find_opt
        (fun (e : Event.t) -> String.equal e.Event.tag Lock_intf.rel_tag)
        (Log.newest_first atomic)
    with
    | Some e -> (match e.Event.args with [ _; v ] -> Value.to_int v | _ -> -1)
    | None -> -1
  in
  Format.printf
    "@.final counter: ticket=%d mcs=%d (both count the 12 critical sections)@."
    (final a1) (final a2);

  (* swap the lock under the shared queue: the queue layer is untouched *)
  Format.printf "@.swapping the lock under the shared queue (Sec. 6):@.";
  match
    Ccal_verify.Budget.value
      (Ccal_verify.Stack.verify_all_ctx ~ctx:Ccal_verify.Ctx.default
         ~lock:`Mcs
         ~strategy:(Ccal_verify.Ctx.Engine.random ~count:2) ())
  with
  | Ok p ->
    let r = p.Ccal_verify.Stack.completed in
    Format.printf
      "  full stack re-verified over the MCS lock: %d checks in %.0f ms@."
      r.Ccal_verify.Stack.total_checks r.Ccal_verify.Stack.total_millis
  | Error f -> Format.printf "  %a@." Failure.pp f
