(* Tests for the lock objects: atomic interface, ticket lock (Sec. 2,
   Fig. 10), MCS lock, and their certification (S15, S16). *)
open Ccal_core
open Ccal_objects
open Util

let acq b = Prog.call Lock_intf.acq_tag [ vi b ]
let rel b v = Prog.call Lock_intf.rel_tag [ vi b; vi v ]

(* ---- atomic lock interface ---- *)

let test_atomic_lock_roundtrip () =
  let layer = Lock_intf.layer "L" in
  let v =
    expect_done layer
      (Prog.seq_all [ acq 0; rel 0 33; acq 0 ])
  in
  check_int "published value" 33 (Value.to_int v)

let test_atomic_lock_blocks_when_held () =
  let layer = Lock_intf.layer "L" in
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.seq (acq 0) (Prog.call "acq" [ vi 0 ]) ]
         Sched.round_robin)
  in
  (* second acq by the same thread: self-deadlock *)
  match o.Game.status with
  | Game.Deadlock [ 1 ] -> ()
  | s -> Alcotest.failf "expected deadlock, got %a" Game.pp_status s

let test_atomic_rel_without_acq_stuck () =
  let layer = Lock_intf.layer "L" in
  ignore (expect_stuck layer (rel 0 1))

let test_locks_independent () =
  let layer = Lock_intf.layer "L" in
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.seq (acq 0) (rel 0 1); 2, Prog.seq (acq 1) (rel 1 2) ]
         (Sched.of_trace [ 1; 2; 1; 2 ]))
  in
  check_bool "both complete" true (Game.successful o)

let test_mutual_exclusion_predicate () =
  let good = log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev ~args:[ vi 0; vi 1 ] 1 "rel";
                      ev ~args:[ vi 0 ] 2 "acq" ] in
  let bad = log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev ~args:[ vi 0 ] 2 "acq" ] in
  check_bool "good" true (Lock_intf.mutual_exclusion good);
  check_bool "bad" false (Lock_intf.mutual_exclusion bad)

let test_handoffs () =
  let l = log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev ~args:[ vi 0; vi 1 ] 1 "rel";
                   ev ~args:[ vi 0 ] 2 "acq" ] in
  Alcotest.(check (list int)) "order" [ 1; 2 ] (Lock_intf.handoffs 0 l)

(* ---- rely/guarantee helpers ---- *)

let test_lock_wellformed () =
  let inv = Rg.lock_wellformed ~acq_tag:"acq" ~rel_tag:"rel" in
  let ok = log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev ~args:[ vi 0; vi 9 ] 1 "rel" ] in
  let double = log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev ~args:[ vi 0 ] 1 "acq" ] in
  let orphan = log_of [ ev ~args:[ vi 0; vi 9 ] 1 "rel" ] in
  check_bool "ok" true (inv.Rely_guarantee.holds 1 ok);
  check_bool "double acq" false (inv.Rely_guarantee.holds 1 double);
  check_bool "orphan rel" false (inv.Rely_guarantee.holds 1 orphan);
  check_bool "other thread unaffected" true (inv.Rely_guarantee.holds 2 double)

let test_releases_within () =
  let inv = Rg.releases_within ~bound:2 ~acq_tag:"acq" ~rel_tag:"rel" in
  let quick =
    log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev 2 "x"; ev ~args:[ vi 0; vi 1 ] 1 "rel" ]
  in
  let slow =
    log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev 2 "x"; ev 2 "y"; ev 2 "z" ]
  in
  check_bool "quick" true (inv.Rely_guarantee.holds 1 quick);
  check_bool "slow" false (inv.Rely_guarantee.holds 1 slow)

(* The locks a thread holds decide what it may acquire and release next. *)
let test_held_locks () =
  let wf = Rg.lock_wellformed ~acq_tag:"acq" ~rel_tag:"rel" in
  let l = log_of [ ev ~args:[ vi 0 ] 1 "acq"; ev ~args:[ vi 4 ] 1 "acq";
                   ev ~args:[ vi 0; vi 1 ] 1 "rel" ] in
  let then_ tag lock = wf.Rely_guarantee.holds 1 (Log.append (ev ~args:[ vi lock ] 1 tag) l) in
  check_bool "held: 4" true (wf.Rely_guarantee.holds 1 l);
  check_bool "release the held 4" true (then_ "rel" 4);
  check_bool "release the freed 0" false (then_ "rel" 0);
  check_bool "re-acquire the held 4" false (then_ "acq" 4);
  check_bool "re-acquire the freed 0" true (then_ "acq" 0)

(* ---- ticket lock ---- *)

let test_rticket_replay () =
  let l =
    log_of
      [ ev ~args:[ vi 0 ] 1 "FAI_t"; ev ~args:[ vi 0 ] 2 "FAI_t";
        ev ~args:[ vi 0 ] 1 "inc_n" ]
  in
  let st = Result.get_ok (Ticket_lock.replay_ticket 0 l) in
  check_int "next" 2 st.Ticket_lock.next;
  check_int "serving" 1 st.Ticket_lock.serving;
  (* other locks unaffected *)
  let st1 = Result.get_ok (Ticket_lock.replay_ticket 1 l) in
  check_int "other lock" 0 st1.Ticket_lock.next

let test_ticket_solo_roundtrip () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let prog =
    Prog.Module.link m (Prog.seq_all [ acq 0; rel 0 5; acq 0 ])
  in
  check_int "sees published" 5 (Value.to_int (expect_done layer prog))

let test_ticket_certify_c () =
  match Object_intf.certify Ticket_lock.recipe () with
  | Ok cert -> check_bool "fun rule" true (cert.Calculus.rule = Calculus.Fun)
  | Error e -> Alcotest.failf "%a" Failure.pp e

let test_ticket_certify_asm () =
  match Object_intf.certify Ticket_lock.recipe ~focus:[ 1 ] ~use_asm:true () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

let test_ticket_low_strategies () =
  (* the hand-written automata of Sec. 2 simulate the C code (fun-lift,
     identity relation) *)
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  match
    Simulation.check_strategies Sim_rel.id ~tid:1
      ~impl:(fun () ->
        Machine.strategy_of_prog layer 1 (Prog.Module.link m (acq 0)))
      ~spec:(fun () -> Ticket_lock.phi_acq_low 1 0)
      ~envs:[ Env_context.empty ]
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%a" Failure.pp f

let test_ticket_rel_strategy () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  match
    Simulation.check_strategies Sim_rel.id ~tid:1
      ~impl:(fun () ->
        Machine.strategy_of_prog layer 1
          (Prog.Module.link m (Prog.seq (acq 0) (rel 0 7))))
      ~spec:(fun () ->
        let acq_s = Ticket_lock.phi_acq_low 1 0 in
        let rec chain (s : Strategy.t) =
          {
            Strategy.step =
              (fun l ->
                match s.Strategy.step l with
                | Strategy.Move (evs, Strategy.Done _) ->
                  Strategy.Move (evs, Strategy.Next (Ticket_lock.phi_rel_low 1 0 (vi 7)))
                | Strategy.Move (evs, Strategy.Next s') ->
                  Strategy.Move (evs, Strategy.Next (chain s'))
                | r -> r);
          }
        in
        chain acq_s)
      ~envs:[ Env_context.empty ]
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%a" Failure.pp f

let lock_clients rounds i =
  let rec go k =
    if k = 0 then Prog.ret (vi i)
    else
      Prog.bind (acq 0) (fun _ ->
          Prog.seq (rel 0 ((10 * i) + k)) (go (k - 1)))
  in
  go rounds

let run_ticket_game ?(threads = [ 1; 2; 3 ]) ?(rounds = 2) sched =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  Game.run
    (Game.config layer
       (List.map (fun i -> i, Prog.Module.link m (lock_clients rounds i)) threads)
       sched)

let test_ticket_game_mutex () =
  List.iter
    (fun sched ->
      let o = run_ticket_game sched in
      check_bool "completes" true (Game.successful o);
      check_bool "translated log mutex" true
        (Lock_intf.mutual_exclusion (Sim_rel.apply Ticket_lock.r_ticket o.Game.log)))
    (Sched.default_suite ~seeds:8)

let test_ticket_fifo () =
  List.iter
    (fun sched ->
      let o = run_ticket_game sched in
      check_bool "FIFO by tickets" true
        (Ccal_verify.Progress.fifo_order ~ticket_tag:"FAI_t" ~enter_tag:"pull"
           o.Game.log))
    (Sched.default_suite ~seeds:8)

let prop_ticket_random_schedules =
  qtc ~count:40 "ticket lock safe under random schedules"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let o = run_ticket_game (Sched.random ~seed) in
      Game.successful o
      && Lock_intf.mutual_exclusion (Sim_rel.apply Ticket_lock.r_ticket o.Game.log)
      && Ccal_verify.Progress.fifo_order ~ticket_tag:"FAI_t" ~enter_tag:"pull"
           o.Game.log)

(* ---- MCS lock ---- *)

let test_mcs_solo_roundtrip () =
  let layer = Mcs_lock.l0 () in
  let m = Mcs_lock.c_module () in
  let prog = Prog.Module.link m (Prog.seq_all [ acq 0; rel 0 9; acq 0 ]) in
  check_int "sees published" 9 (Value.to_int (expect_done layer prog))

let test_mcs_certify () =
  match Object_intf.certify Mcs_lock.recipe () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

let test_mcs_certify_asm () =
  match Object_intf.certify Mcs_lock.recipe ~focus:[ 1 ] ~use_asm:true () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

let run_mcs_game ?(threads = [ 1; 2; 3 ]) ?(rounds = 2) sched =
  let layer = Mcs_lock.l0 () in
  let m = Mcs_lock.c_module () in
  Game.run
    (Game.config ~max_steps:400_000 layer
       (List.map (fun i -> i, Prog.Module.link m (lock_clients rounds i)) threads)
       sched)

let test_mcs_game_mutex () =
  List.iter
    (fun sched ->
      let o = run_mcs_game sched in
      check_bool "completes" true (Game.successful o);
      check_bool "mutex" true
        (Lock_intf.mutual_exclusion (Sim_rel.apply Mcs_lock.r_mcs o.Game.log)))
    (Sched.default_suite ~seeds:6)

let test_mcs_fifo_by_xchg () =
  List.iter
    (fun sched ->
      let o = run_mcs_game sched in
      check_bool "FIFO by xchg order" true
        (Ccal_verify.Progress.fifo_order ~ticket_tag:"xchg" ~enter_tag:"pull"
           o.Game.log))
    (Sched.default_suite ~seeds:6)

(* ---- interchangeability (Sec. 6) ---- *)

let test_locks_interchangeable () =
  (* the same client and the same overlay work over either implementation *)
  let client i = Prog.bind (acq 0) (fun _ -> Prog.seq (rel 0 i) (Prog.ret (vi i))) in
  let check_impl name underlay m r =
    match
      refine ~underlay ~impl:m ~overlay:(Lock_intf.layer "Llock")
        ~rel:r ~client ~tids:[ 1; 2 ] ~scheds:(Sched.default_suite ~seeds:3) ()
    with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "%s: %a" name Failure.pp f
  in
  check_impl "ticket" (Ticket_lock.l0 ()) (Ticket_lock.c_module ()) Ticket_lock.r_ticket;
  check_impl "mcs" (Mcs_lock.l0 ()) (Mcs_lock.c_module ()) Mcs_lock.r_mcs

let suite =
  [
    tc "atomic lock roundtrip" test_atomic_lock_roundtrip;
    tc "atomic lock blocks when held" test_atomic_lock_blocks_when_held;
    tc "atomic rel without acq stuck" test_atomic_rel_without_acq_stuck;
    tc "locks independent" test_locks_independent;
    tc "mutual exclusion predicate" test_mutual_exclusion_predicate;
    tc "handoffs" test_handoffs;
    tc "lock wellformed invariant" test_lock_wellformed;
    tc "releases within bound" test_releases_within;
    tc "held locks" test_held_locks;
    tc "Rticket replay" test_rticket_replay;
    tc "ticket solo roundtrip" test_ticket_solo_roundtrip;
    tc "ticket certify (C)" test_ticket_certify_c;
    tc "ticket certify (asm)" test_ticket_certify_asm;
    tc "ticket phi'_acq automaton" test_ticket_low_strategies;
    tc "ticket phi'_rel automaton" test_ticket_rel_strategy;
    tc "ticket game mutex" test_ticket_game_mutex;
    tc "ticket FIFO" test_ticket_fifo;
    prop_ticket_random_schedules;
    tc "mcs solo roundtrip" test_mcs_solo_roundtrip;
    tc "mcs certify (C)" test_mcs_certify;
    tc "mcs certify (asm)" test_mcs_certify_asm;
    tc "mcs game mutex" test_mcs_game_mutex;
    tc "mcs FIFO by xchg" test_mcs_fifo_by_xchg;
    tc "locks interchangeable" test_locks_interchangeable;
  ]
