(* Tests for the multicore machine substrate: push/pull memory (Fig. 6/8),
   atomic cells, Mx86 and the assembly semantics (S9–S11). *)
open Ccal_core
open Ccal_machine
open Util

let hw () = Mx86.layer ()

(* ---- push/pull ---- *)

let test_pull_then_push () =
  let prog =
    Prog.seq_all
      [
        Prog.call "pull" [ vi 0 ];
        Prog.call "push" [ vi 0; vi 42 ];
        Prog.call "pull" [ vi 0 ];
      ]
  in
  let v = expect_done (hw ()) prog in
  check_int "second pull sees the push" 42 (Value.to_int v)

let test_pull_initial_zero () =
  let v = expect_done (hw ()) (Prog.call "pull" [ vi 7 ]) in
  check_int "fresh location" 0 (Value.to_int v)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_double_pull_race () =
  let msg =
    expect_stuck (hw ())
      (Prog.seq (Prog.call "pull" [ vi 0 ]) (Prog.call "pull" [ vi 0 ]))
  in
  check_bool "mentions race" true (contains msg "race")

let test_push_without_pull_race () =
  match (run_solo (hw ()) (Prog.call "push" [ vi 0; vi 1 ])).Machine.outcome with
  | Machine.Stuck_run _ -> ()
  | _ -> Alcotest.fail "push of free location must be a race"

let test_cross_thread_push_race () =
  (* thread 2 pushes a location thread 1 pulled *)
  let layer = hw () in
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.call "pull" [ vi 0 ];
           2, Prog.call "push" [ vi 0; vi 5 ] ]
         (Sched.of_trace [ 1; 2 ]))
  in
  match o.Game.status with
  | Game.Stuck (2, Layer.Data_race, _) -> ()
  | s -> Alcotest.failf "expected race, got %a" Game.pp_status s

let test_replay_loc_ownership () =
  let l = log_of [ ev ~args:[ vi 3 ] 1 "pull" ] in
  (match Result.get_ok (Pushpull.replay_loc 3 l) with
  | _, Pushpull.Owned 1 -> ()
  | _ -> Alcotest.fail "expected owned by 1");
  let l2 = Log.append (ev ~args:[ vi 3; vi 9 ] 1 "push") l in
  match Result.get_ok (Pushpull.replay_loc 3 l2) with
  | v, Pushpull.Free -> check_int "published" 9 (Value.to_int v)
  | _ -> Alcotest.fail "expected free"

let test_race_free_predicate () =
  let good = log_of [ ev ~args:[ vi 0 ] 1 "pull"; ev ~args:[ vi 0; vi 1 ] 1 "push" ] in
  let bad = log_of [ ev ~args:[ vi 0 ] 1 "pull"; ev ~args:[ vi 0 ] 2 "pull" ] in
  check_bool "good" true (Pushpull.race_free good);
  check_bool "bad" false (Pushpull.race_free bad)

(* ---- atomic cells ---- *)

let test_faa () =
  let prog =
    Prog.seq_all
      [ Prog.call "faa" [ vi 10; vi 1 ];
        Prog.call "faa" [ vi 10; vi 1 ];
        Prog.call "aload" [ vi 10 ] ]
  in
  check_int "two increments" 2 (Value.to_int (expect_done (hw ()) prog))

let test_faa_returns_old () =
  let prog =
    Prog.seq (Prog.call "faa" [ vi 10; vi 5 ]) (Prog.call "faa" [ vi 10; vi 5 ])
  in
  check_int "second faa sees 5" 5 (Value.to_int (expect_done (hw ()) prog))

let test_xchg () =
  let prog =
    Prog.seq (Prog.call "xchg" [ vi 11; vi 7 ]) (Prog.call "xchg" [ vi 11; vi 8 ])
  in
  check_int "xchg returns old" 7 (Value.to_int (expect_done (hw ()) prog))

let test_cas_success_and_failure () =
  let prog =
    Prog.seq_all
      [ Prog.call "astore" [ vi 12; vi 3 ];
        Prog.call "cas" [ vi 12; vi 3; vi 4 ];  (* succeeds, returns 3 *)
        Prog.call "cas" [ vi 12; vi 3; vi 5 ];  (* fails, returns 4 *)
        Prog.call "aload" [ vi 12 ] ]
  in
  check_int "cell after cas" 4 (Value.to_int (expect_done (hw ()) prog))

let test_cells_independent () =
  let prog =
    Prog.seq_all
      [ Prog.call "astore" [ vi 1; vi 100 ]; Prog.call "aload" [ vi 2 ] ]
  in
  check_int "cell 2 untouched" 0 (Value.to_int (expect_done (hw ()) prog))

let test_cpuid () =
  check_int "cpuid" 5 (Value.to_int (expect_done ~tid:5 (hw ()) (Prog.call "cpuid" [])))

(* ---- Mx86 behaviors & multicore linking (Thm 3.1) ---- *)

let faa_round i =
  Prog.seq_all
    [ Prog.call "faa" [ vi 0; vi 1 ]; Prog.call "faa" [ vi 0; vi 1 ];
      Prog.ret (vi i) ]

let test_mx86_logs_switches () =
  let outcomes =
    behaviors ~log_switches:true (Mx86.layer ())
      [ 1, faa_round 1; 2, faa_round 2 ]
      [ Sched.of_trace [ 1; 2; 1; 2 ] ]
  in
  match outcomes with
  | [ o ] -> check_bool "switch events" true (Log.count Event.is_switch o.Game.log >= 2)
  | _ -> Alcotest.fail "one outcome expected"

let test_multicore_linking () =
  let layer = Mx86.layer () and threads = [ 1, faa_round 1; 2, faa_round 2 ] in
  match
    judge_all ~log_switches:true layer threads
      (Mx86.judge_linking layer threads)
      (Sched.default_suite ~seeds:6)
  with
  | Ok n -> check_int "all schedules linked" 7 n
  | Error f -> Alcotest.failf "%a" Failure.pp f

let test_erase_switches () =
  let l = log_of [ Event.switch 1; ev 1 "faa"; Event.switch 2 ] in
  check_int "erased" 1 (Log.length (Sim_rel.apply Mx86.erase_switches l))

(* ---- assembly semantics ---- *)

let asm_const_fn =
  { Asm.name = "const42"; arity = 0;
    body = [ Asm.Mov (Asm.EAX, Asm.Imm 42); Asm.Ret (Asm.Reg Asm.EAX) ] }

let test_asm_const () =
  check_int "const" 42
    (Value.to_int (expect_done (hw ()) (Asm_sem.prog_of_fn asm_const_fn [])))

let asm_add_fn =
  { Asm.name = "add"; arity = 2;
    body =
      [ Asm.Load (Asm.EAX, Asm.Imm 0);
        Asm.Load (Asm.EBX, Asm.Imm 1);
        Asm.Op (Asm.Add, Asm.EAX, Asm.Reg Asm.EBX);
        Asm.Ret (Asm.Reg Asm.EAX) ] }

let test_asm_args_in_frame () =
  check_int "3+4" 7
    (Value.to_int (expect_done (hw ()) (Asm_sem.prog_of_fn asm_add_fn [ vi 3; vi 4 ])))

let asm_loop_fn =
  (* sum 1..n via a loop *)
  { Asm.name = "sum"; arity = 1;
    body =
      [ Asm.Load (Asm.ECX, Asm.Imm 0);
        Asm.Mov (Asm.EAX, Asm.Imm 0);
        Asm.Label "loop";
        Asm.Jz (Asm.Reg Asm.ECX, "end");
        Asm.Op (Asm.Add, Asm.EAX, Asm.Reg Asm.ECX);
        Asm.Op (Asm.Sub, Asm.ECX, Asm.Imm 1);
        Asm.Jmp "loop";
        Asm.Label "end";
        Asm.Ret (Asm.Reg Asm.EAX) ] }

let test_asm_loop () =
  check_int "sum 1..5" 15
    (Value.to_int (expect_done (hw ()) (Asm_sem.prog_of_fn asm_loop_fn [ vi 5 ])))

let asm_call_fn =
  { Asm.name = "do_faa"; arity = 1;
    body =
      [ Asm.Load (Asm.EAX, Asm.Imm 0);
        Asm.Push (Asm.Reg Asm.EAX);
        Asm.Push (Asm.Imm 1);
        Asm.CallPrim ("faa", 2);
        Asm.Ret (Asm.Reg Asm.EAX) ] }

let test_asm_callprim_arg_order () =
  (* faa(cell, 1): first pushed must be the cell address *)
  let prog =
    Prog.seq
      (Asm_sem.prog_of_fn asm_call_fn [ vi 33 ])
      (Prog.call "aload" [ vi 33 ])
  in
  check_int "cell incremented" 1 (Value.to_int (expect_done (hw ()) prog))

let test_asm_div_by_zero_faults () =
  let f =
    { Asm.name = "crash"; arity = 0;
      body = [ Asm.Mov (Asm.EAX, Asm.Imm 1); Asm.Op (Asm.Div, Asm.EAX, Asm.Imm 0);
               Asm.Ret (Asm.Reg Asm.EAX) ] }
  in
  ignore (expect_stuck (hw ()) (Asm_sem.prog_of_fn f []))

let test_asm_fuel_faults () =
  let f =
    { Asm.name = "spin"; arity = 0;
      body = [ Asm.Label "l"; Asm.Jmp "l" ] }
  in
  ignore (expect_stuck (hw ()) (Asm_sem.prog_of_fn ~fuel:1000 f []))

let test_asm_pop_empty_faults () =
  let f = { Asm.name = "pop"; arity = 0; body = [ Asm.Pop Asm.EAX ] } in
  ignore (expect_stuck (hw ()) (Asm_sem.prog_of_fn f []))

let test_asm_duplicate_label () =
  let f =
    { Asm.name = "dup"; arity = 0;
      body = [ Asm.Label "l"; Asm.Label "l" ] }
  in
  Alcotest.check_raises "duplicate" (Asm_sem.Compile_error "duplicate label l")
    (fun () -> ignore (Asm_sem.prog_of_fn f []))

let test_asm_retvoid () =
  let f = { Asm.name = "v"; arity = 0; body = [ Asm.RetVoid ] } in
  check_bool "unit" true
    (Value.equal Value.unit (expect_done (hw ()) (Asm_sem.prog_of_fn f [])))

(* properties *)

let prop_faa_sum_any_interleaving =
  qtc ~count:60 "faa total independent of schedule" QCheck.(int_range 1 500)
    (fun seed ->
      let layer = hw () in
      let o =
        Game.run
          (Game.config layer
             [ 1, faa_round 1; 2, faa_round 2; 3, faa_round 3 ]
             (Sched.random ~seed))
      in
      Game.successful o
      && Result.get_ok (Atomic.replay_cell 0 o.Game.log) = 6)

let prop_xchg_last_wins =
  qtc ~count:60 "cell value = argument of last xchg" QCheck.(int_range 1 500)
    (fun seed ->
      let layer = hw () in
      let prog i = Prog.call "xchg" [ vi 4; vi (100 + i) ] in
      let o =
        Game.run (Game.config layer [ 1, prog 1; 2, prog 2 ] (Sched.random ~seed))
      in
      let final = Result.get_ok (Atomic.replay_cell 4 o.Game.log) in
      final = 101 || final = 102)

let suite =
  [
    tc "pull then push" test_pull_then_push;
    tc "pull initial zero" test_pull_initial_zero;
    tc "double pull race" test_double_pull_race;
    tc "push without pull race" test_push_without_pull_race;
    tc "cross thread push race" test_cross_thread_push_race;
    tc "replay_loc ownership" test_replay_loc_ownership;
    tc "race_free predicate" test_race_free_predicate;
    tc "faa" test_faa;
    tc "faa returns old" test_faa_returns_old;
    tc "xchg" test_xchg;
    tc "cas" test_cas_success_and_failure;
    tc "cells independent" test_cells_independent;
    tc "cpuid" test_cpuid;
    tc "mx86 logs switches" test_mx86_logs_switches;
    tc "multicore linking (thm 3.1)" test_multicore_linking;
    tc "erase switches" test_erase_switches;
    tc "asm const" test_asm_const;
    tc "asm args in frame" test_asm_args_in_frame;
    tc "asm loop" test_asm_loop;
    tc "asm callprim arg order" test_asm_callprim_arg_order;
    tc "asm div by zero faults" test_asm_div_by_zero_faults;
    tc "asm fuel faults" test_asm_fuel_faults;
    tc "asm pop empty faults" test_asm_pop_empty_faults;
    tc "asm duplicate label" test_asm_duplicate_label;
    tc "asm retvoid" test_asm_retvoid;
    prop_faa_sum_any_interleaving;
    prop_xchg_last_wins;
  ]
