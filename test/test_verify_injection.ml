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

let test_suite_names_distinct () =
  let names scheds = List.sort_uniq compare (List.map Sched.name scheds) in
  check_int "2^2 exhaustive prefixes" 4
    (List.length (names (Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth:2)));
  check_int "round-robin + 3 seeds" 4
    (List.length (names (Sched.default_suite ~seeds:3)))

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
  check_int "two orders" 2 (List.length (Log.dedup (Explore.all_logs outcomes)))

(* ---- linearizability ---- *)

let test_linearizability_ticket () =
  match Object_intf.certify Ticket_lock.recipe () with
  | Error e -> Alcotest.failf "%a" Failure.pp e
  | Ok cert -> (
    let client i =
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
    in
    match
      Budget.value
        (check_cert ~ctx:Ctx.default
           ~scheds:(full_suite ~tids:[ 1; 2 ] ~depth:3 ~random:4)
           cert ~client)
    with
    | Ok r ->
      check_bool "several interleavings" true (r.Linearizability.distinct_logs >= 2)
    | Error f -> Alcotest.failf "%a" Failure.pp f)

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
  | Error f -> Alcotest.failf "%a" Failure.pp f

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
  | Races.Race f -> Alcotest.failf "false positive: %a" Failure.pp f
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

(* An object's own recipe with only the focused implementation replaced:
   the rivals keep running the correct one. *)
let with_fns (recipe : Object_intf.t) fns =
  { recipe with c_module = (fun () -> Ccal_clight.Csem.module_of_fns fns) }

let certify_with recipe fns = Object_intf.certify (with_fns recipe fns) ~focus:[ 1 ] ()

(* The Fun-rule obligations of [certify_with] over only the environment
   the failure names, found by name in each focused thread's suite:
   every obligation before the failing one passed under every
   environment, so the first to fail is the same one, in the same
   run. *)
let replay_fun recipe fns (f : Failure.t) =
  let recipe = with_fns recipe fns in
  let memory = Memory.default and focus = [ 1 ] in
  let placement = Thread_sched.default_placement focus recipe.rivals in
  let suite = Object_intf.env_suite recipe ~memory ~placement in
  let named i = List.filter (fun e -> e.Env_context.name = f.f_sched) (suite i) in
  check_int "one environment by that name" 1 (List.length (named 1));
  Calculus.fun_rule ~underlay:(recipe.underlay memory placement) ~overlay:recipe.overlay
    ~impl:(recipe.c_module ()) ~rel:(Ccal_machine.Tso.under_memory memory recipe.rel)
    ~focus ~prim_tests:recipe.prim_tests ~envs:named ()

(* A seeded bug in an object's C code: certification fails, naming an
   environment and an index; replaying that environment fails again with
   the same record; the printed line is pinned.  The Fun rule runs its
   obligations on one domain and takes no jobs count, so its
   jobs-independence is a second run giving the same record. *)
let fun_control recipe fns ~golden =
  let failing () =
    match certify_with recipe fns with
    | Error f -> f
    | Ok _ -> Alcotest.fail "the seeded bug certified"
  in
  let f = failing () in
  check_names_run "Fun control" f;
  check_bool "same record on a second run" true (failing () = f);
  (match replay_fun recipe fns f with
  | Error f' ->
    check_int "replay fails at the same index" f.f_index f'.Failure.f_index;
    check_bool "replay gives the same record" true (f' = f)
  | Ok _ -> Alcotest.fail "the named environment passes on replay");
  check_string "printed failure" golden (failure_line f)

let test_inject_no_spin_caught () =
  fun_control Ticket_lock.recipe [ broken_acq_no_spin; Ticket_lock.rel_fn ]
    ~golden:"failure: run two-rivals(r1), event 13: Fun rule: [acq(0); rel(0,7); \
       acq(0)]@1 not simulated by its specification: impl stuck: pull: race: CPU 1 \
       pulls location 0 owned by CPU 8"

(* Bug 2: rel forgets inc_n (next waiter starves). *)
let broken_rel_no_inc =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body = C.seq [ C.call_ "push" [ C.v "b"; C.v "v" ]; C.return_unit ];
  }

let test_inject_missing_inc_caught () =
  (* the acquire after the release waits for a turn that never comes *)
  fun_control Ticket_lock.recipe [ Ticket_lock.acq_fn; broken_rel_no_inc ]
    ~golden:"failure: run empty, event 10001: Fun rule: [acq(0); rel(0,7); acq(0)]@1 \
       not simulated by its specification: impl stuck: step bound exceeded"

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
  fun_control Ticket_lock.recipe [ broken_acq_shared_ticket; Ticket_lock.rel_fn ]
    ~golden:"failure: run two-rivals(r1), event 13: Fun rule: [acq(0); rel(0,7); \
       acq(0)]@1 not simulated by its specification: impl stuck: pull: race: CPU 1 \
       pulls location 0 owned by CPU 8"

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
  fun_control Ticket_lock.recipe [ Ticket_lock.acq_fn; broken_rel_wrong_value ]
    ~golden:"failure: run empty, event 1: Fun rule: [acq(0); rel(0,7); acq(0)]@1 not \
       simulated by its specification: spec emitted 1.rel(0,7)->() but translated log \
       has 1.rel(0,0)->()"

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
  fun_control Queue_shared.recipe [ broken_deq_outside_lock; Queue_shared.enq_fn ]
    ~golden:"failure: run empty, event 3: Fun rule: [enQ_s(0,4); enQ_s(0,5); \
       deQ_s(0); deQ_s(0)]@1 not simulated by its specification: spec emitted \
       1.deQ_s(0)->5 but translated log has 1.deQ_s(0)->4"

(* Bug 6: a miscompiler (constant folding gone wrong) must fail
   translation validation, which names the environment and the index. *)
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
  (* a rival's store lands in both logs before the function returns *)
  let envs _ =
    [ Env_context.of_script "store" [ [ ev ~args:[ vi 60; vi 9 ] 2 "astore" ] ];
      Env_context.empty ]
  in
  match
    Ccal_compcertx.Validate.validate_module ~layer:(Ccal_machine.Mx86.layer ())
      ~tids:[ 1 ] ~arg_cases:[ "f", [ [ vi 3 ] ] ] ~envs [ f, sabotaged ]
  with
  | Ok _ -> Alcotest.fail "miscompilation validated"
  | Error fl ->
    check_names_run "miscompiler" fl;
    check_string "names the environment" "store" fl.Failure.f_sched;
    check_int "after the environment's event" 1 fl.Failure.f_index;
    check_string "printed failure"
      "failure: run store, event 1: translation validation of f(3) on thread 1: \
       results differ: C returned 6, assembly returned 5"
      (failure_line fl)

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
  let suite = [ unfair; Sched.round_robin ] in
  let failing jobs scheds =
    match
      Budget.value
        (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs ()) ~scheds
           ~bound:3_000 layer
           [ 1, Prog.Module.link m (forever 1);
             2, Prog.Module.link m (one_round 2) ])
    with
    | Error f -> f
    | Ok _ -> Alcotest.fail "starvation under unfair scheduler not detected"
  in
  let f = failing 1 suite in
  check_names_run "unfair scheduler" f;
  check_bool "same record at jobs 4" true (failing 4 suite = f);
  let named = List.filter (fun s -> Sched.name s = f.f_sched) suite in
  check_int "one schedule by that name" 1 (List.length named);
  check_bool "replaying the named schedule gives the same record" true
    (failing 1 named = f);
  check_string "printed failure"
    "failure: run always-1, event 3000: run exceeded the progress bound of 3000 moves"
    (failure_line f)

let suite =
  [
    tc "exhaustive count" test_exhaustive_count;
    tc "suite schedulers have distinct names" test_suite_names_distinct;
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
