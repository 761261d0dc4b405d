(* Tests for the verification harness (S22) and failure injection: every
   checker must *catch* a seeded bug, not just pass on correct code. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util
module C = Ccal_clight.Csyntax

(* ---- explore ---- *)

let test_exhaustive_count () =
  check_int "2^3" 8 (List.length (Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth:3))

let test_full_suite_size () =
  let suite = Explore.full_suite ~tids:[ 1; 2 ] ~depth:2 ~random:3 () in
  check_int "1 + 4 + 3" 8 (List.length suite)

let test_distinct_logs () =
  let layer = counter_layer () in
  let threads =
    [ 1, Prog.call "tick" [ vi 0 ]; 2, Prog.call "tick" [ vi 0 ] ]
  in
  let outcomes =
    Budget.value
      (Explore.run_all_ctx ~ctx:Ctx.default layer threads
         (Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth:2))
  in
  check_int "two orders" 2 (Explore.count_distinct_logs outcomes)

(* ---- linearizability ---- *)

let test_linearizability_ticket () =
  match Ticket_lock.certify ~focus:[ 1; 2 ] () with
  | Error e -> Alcotest.failf "%a" Calculus.pp_error e
  | Ok cert -> (
    let client i =
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
    in
    match
      Budget.value
        (Linearizability.check_cert_ctx ~ctx:Ctx.default
           ~scheds:(Explore.full_suite ~tids:[ 1; 2 ] ~depth:3 ~random:4 ())
           cert ~client)
    with
    | Ok r ->
      check_bool "several interleavings" true (r.Linearizability.distinct_logs >= 2)
    | Error f -> Alcotest.failf "%a" Refinement.pp_failure f)

(* ---- progress ---- *)

let test_progress_bound_ticket () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.call "rel" [ vi 0; vi i ])
  in
  let threads = List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2; 3 ] in
  match
    Budget.value
      (Progress.completes_within_ctx ~ctx:Ctx.default
         ~scheds:(Sched.default_suite ~seeds:10) ~bound:2_000 layer threads)
  with
  | Ok r -> check_bool "bound respected" true (r.Progress.max_steps_used < 2_000)
  | Error msg -> Alcotest.fail msg

let test_progress_detects_starvation () =
  (* a thread spinning on a flag nobody sets starves: the bound trips *)
  let layer = Ccal_machine.Mx86.layer () in
  let rec spin () =
    Prog.bind (Prog.call "aload" [ vi 0 ]) (fun v ->
        if Value.to_int v = 1 then Prog.ret_unit else spin ())
  in
  match
    Budget.value
      (Progress.completes_within_ctx ~ctx:Ctx.default
         ~scheds:[ Sched.round_robin ] ~bound:200 layer [ 1, spin () ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "starvation not detected"

let test_waiting_spans () =
  let l =
    log_of
      [ ev ~args:[ vi 0 ] 1 "FAI_t"; ev ~args:[ vi 0 ] 2 "FAI_t";
        ev ~args:[ vi 0 ] 1 "pull"; ev ~args:[ vi 0; vi 1 ] 1 "push";
        ev ~args:[ vi 0 ] 2 "pull" ]
  in
  let spans = Progress.waiting_spans ~ticket_tag:"FAI_t" ~enter_tag:"pull" l in
  Alcotest.(check (list (pair int int))) "spans" [ 1, 2; 2, 3 ] spans

let test_fifo_violation_detected () =
  let l =
    log_of
      [ ev ~args:[ vi 0 ] 1 "FAI_t"; ev ~args:[ vi 0 ] 2 "FAI_t";
        ev ~args:[ vi 0 ] 2 "pull" ]
  in
  check_bool "2 jumped the queue" false
    (Progress.fifo_order ~ticket_tag:"FAI_t" ~enter_tag:"pull" l)

(* ---- races ---- *)

let test_races_clean_program () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  match
    Races.check_ctx ~ctx:Ctx.default ~scheds:(Sched.default_suite ~seeds:6)
      layer
      [ 1, Prog.Module.link m (client 1); 2, Prog.Module.link m (client 2) ]
  with
  | Races.Race_free { runs } -> check_int "runs" 7 runs
  | Races.Race { detail; _ } -> Alcotest.failf "false positive: %s" detail
  | Races.Other_failure msg -> Alcotest.fail msg
  | Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_races_detects_unlocked_access () =
  (* two threads pull the same location without any lock *)
  let layer = Ccal_machine.Mx86.layer () in
  let prog = Prog.seq (Prog.call "pull" [ vi 0 ]) (Prog.call "push" [ vi 0; vi 1 ]) in
  match
    Races.check_ctx ~ctx:Ctx.default ~scheds:[ Sched.of_trace [ 1; 2 ] ] layer
      [ 1, prog; 2, prog ]
  with
  | Races.Race _ -> ()
  | _ -> Alcotest.fail "race not detected"

(* ---- failure injection: seeded bugs must fail certification ---- *)

(* Bug 1: acq skips the spin loop (no mutual exclusion). *)
let broken_acq_no_spin =
  {
    C.name = "acq";
    params = [ "b" ];
    locals = [ "myt"; "v" ];
    body =
      C.seq
        [
          C.calla "myt" "FAI_t" [ C.v "b" ];
          C.calla "v" "pull" [ C.v "b" ];
          C.return (C.v "v");
        ];
  }

let certify_with_acq acq_fn =
  let impl = Ccal_clight.Csem.module_of_fns [ acq_fn; Ticket_lock.rel_fn ] in
  Calculus.fun_rule ~underlay:(Ticket_lock.l0 ()) ~overlay:(Ticket_lock.overlay ())
    ~impl ~rel:Ticket_lock.r_ticket ~focus:[ 1 ]
    ~prim_tests:(Ticket_lock.prim_tests ())
    ~envs:(Ticket_lock.env_suite ()) ()

let test_inject_no_spin_caught () =
  match certify_with_acq broken_acq_no_spin with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lock without spinning certified"

(* Bug 2: rel forgets inc_n (next waiter starves). *)
let broken_rel_no_inc =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body = C.seq [ C.call_ "push" [ C.v "b"; C.v "v" ]; C.return_unit ];
  }

let test_inject_missing_inc_caught () =
  let impl = Ccal_clight.Csem.module_of_fns [ Ticket_lock.acq_fn; broken_rel_no_inc ] in
  let r =
    Calculus.fun_rule ~underlay:(Ticket_lock.l0 ()) ~overlay:(Ticket_lock.overlay ())
      ~impl ~rel:Ticket_lock.r_ticket ~focus:[ 1 ]
      ~prim_tests:(Ticket_lock.prim_tests ())
      ~envs:(Ticket_lock.env_suite ()) ()
  in
  match r with
  | Error _ -> ()
  | Ok cert -> (
    (* the per-primitive cases may pass (no rival needs the ticket), but the
       whole-machine refinement starves and must fail *)
    let client i =
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.call "acq" [ vi 0 ]))
    in
    match
      Refinement.check_cert ~max_steps:5_000 cert ~client
        ~scheds:[ Sched.round_robin ]
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "missing inc_n not caught")

(* Bug 3: non-atomic FAI (read then separate increment events).  We model
   it by an acq that reads the ticket twice, taking the same ticket as a
   rival — duplicated tickets break FIFO/mutex and the simulation. *)
let broken_acq_shared_ticket =
  {
    C.name = "acq";
    params = [ "b" ];
    locals = [ "n"; "v" ];
    body =
      C.seq
        [
          (* wait for "now serving" without ever drawing a ticket *)
          C.calla "n" "get_n" [ C.v "b" ];
          C.calla "v" "pull" [ C.v "b" ];
          C.return (C.v "v");
        ];
  }

let test_inject_duplicate_ticket_caught () =
  match certify_with_acq broken_acq_shared_ticket with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ticketless acquire certified"

(* Bug 4: rel publishes the wrong value. *)
let broken_rel_wrong_value =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body =
      C.seq
        [
          C.call_ "push" [ C.v "b"; C.i 0 ];
          C.call_ "inc_n" [ C.v "b" ];
          C.return_unit;
        ];
  }

let test_inject_wrong_publish_caught () =
  let impl = Ccal_clight.Csem.module_of_fns [ Ticket_lock.acq_fn; broken_rel_wrong_value ] in
  let r =
    Calculus.fun_rule ~underlay:(Ticket_lock.l0 ()) ~overlay:(Ticket_lock.overlay ())
      ~impl ~rel:Ticket_lock.r_ticket ~focus:[ 1 ]
      ~prim_tests:(Ticket_lock.prim_tests ())
      ~envs:(Ticket_lock.env_suite ()) ()
  in
  match r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong published value certified"

(* Bug 5: a broken shared queue that releases before operating. *)
let broken_deq_outside_lock =
  {
    C.name = "deQ_s";
    params = [ "q" ];
    locals = [ "l"; "r"; "l2" ];
    body =
      C.seq
        [
          C.calla "l" "acq" [ C.v "q" ];
          C.call_ "rel" [ C.v "q"; C.v "l" ];
          C.calla "r" "q_hd" [ C.v "l" ];
          C.return (C.v "r");
        ];
  }

let test_inject_early_release_caught () =
  let impl =
    Ccal_clight.Csem.module_of_fns [ broken_deq_outside_lock; Queue_shared.enq_fn ]
  in
  let r =
    Calculus.fun_rule ~underlay:(Queue_shared.underlay ())
      ~overlay:(Queue_shared.overlay ()) ~impl ~rel:Queue_shared.r_lock
      ~focus:[ 1 ] ~prim_tests:(Queue_shared.prim_tests ())
      ~envs:(Queue_shared.env_suite ()) ()
  in
  match r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "early release certified"

(* Bug 6: a miscompiler (constant folding gone wrong) must fail
   translation validation. *)
let test_inject_miscompile_caught () =
  let f =
    { C.name = "f"; params = [ "x" ]; locals = [];
      body = C.return C.(v "x" * i 2) }
  in
  let sabotaged =
    let asm = Ccal_compcertx.Compile.compile_fn f in
    { asm with Ccal_machine.Asm.body =
        List.map
          (function
            | Ccal_machine.Asm.Op (Ccal_machine.Asm.Mul, r, o) ->
              Ccal_machine.Asm.Op (Ccal_machine.Asm.Add, r, o)
            | i -> i)
          asm.Ccal_machine.Asm.body }
  in
  let layer = Ccal_machine.Mx86.layer () in
  let c = expect_done layer (Ccal_clight.Csem.prog_of_fn f [ vi 3 ]) in
  let a = expect_done layer (Ccal_machine.Asm_sem.prog_of_fn sabotaged [ vi 3 ]) in
  check_bool "validation distinguishes" false (Value.equal c a)

(* Bug 7: an unfair "scheduler" (always picks thread 1) starves thread 2's
   acquire — the progress checker reports it. *)
let test_inject_unfair_scheduler_starves () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let rec forever i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (forever i))
  in
  let one_round i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  let unfair =
    Sched.Custom { name = "always-1";
      pick = (fun ~step:_ _ ~runnable ->
          if List.mem 1 runnable then Some 1 else List.nth_opt runnable 0) }
  in
  match
    Budget.value
      (Progress.completes_within_ctx ~ctx:Ctx.default ~scheds:[ unfair ]
         ~bound:3_000 layer
         [ 1, Prog.Module.link m (forever 1);
           2, Prog.Module.link m (one_round 2) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "starvation under unfair scheduler not detected"

let suite =
  [
    tc "exhaustive count" test_exhaustive_count;
    tc "full suite size" test_full_suite_size;
    tc "distinct logs" test_distinct_logs;
    tc "linearizability (ticket)" test_linearizability_ticket;
    tc "progress bound (ticket)" test_progress_bound_ticket;
    tc "progress detects starvation" test_progress_detects_starvation;
    tc "waiting spans" test_waiting_spans;
    tc "fifo violation detected" test_fifo_violation_detected;
    tc "races: clean program" test_races_clean_program;
    tc "races: unlocked access detected" test_races_detects_unlocked_access;
    tc "inject: no spin caught" test_inject_no_spin_caught;
    tc "inject: missing inc_n caught" test_inject_missing_inc_caught;
    tc "inject: ticketless acquire caught" test_inject_duplicate_ticket_caught;
    tc "inject: wrong publish caught" test_inject_wrong_publish_caught;
    tc "inject: early release caught" test_inject_early_release_caught;
    tc "inject: miscompilation caught" test_inject_miscompile_caught;
    tc "inject: unfair scheduler starves" test_inject_unfair_scheduler_starves;
  ]
