(* Tests for Prog, the local layer machine, strategies and the game
   semantics (S2, S4, S5). *)
open Ccal_core
open Util

(* ---- Prog and modules ---- *)

let test_prog_bind () =
  let p =
    Prog.bind (Prog.ret (vi 1)) (fun v ->
        Prog.ret (vi (Value.to_int v + 1)))
  in
  match p with
  | Prog.Ret v -> check_int "bind of ret" 2 (Value.to_int v)
  | Prog.Call _ -> Alcotest.fail "expected Ret"

let test_prog_seq_all () =
  match Prog.seq_all [ Prog.ret (vi 1); Prog.ret (vi 2); Prog.ret (vi 3) ] with
  | Prog.Ret v -> check_int "last result" 3 (Value.to_int v)
  | Prog.Call _ -> Alcotest.fail "expected Ret"

let test_module_union_disjoint () =
  let m1 = Prog.Module.of_bodies [ "f", (fun _ -> Prog.ret_unit) ] in
  let m2 = Prog.Module.of_bodies [ "g", (fun _ -> Prog.ret_unit) ] in
  Alcotest.(check (list string))
    "names" [ "f"; "g" ]
    (Prog.Module.names (Prog.Module.union m1 m2));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Prog.Module.union: primitive implemented twice: f")
    (fun () -> ignore (Prog.Module.union m1 m1))

let test_module_link () =
  let m =
    Prog.Module.of_bodies
      [ ("double", fun args ->
          match args with
          | [ v ] ->
            Prog.bind (Prog.call "tick" [ v ]) (fun _ -> Prog.call "tick" [ v ])
          | _ -> Prog.ret_unit) ]
  in
  let layer = counter_layer () in
  let v = expect_done layer (Prog.Module.link m (Prog.call "double" [ vi 0 ])) in
  check_int "two ticks" 2 (Value.to_int v)

let test_module_stack () =
  let lower = Prog.Module.of_bodies [ "f", (fun _ -> Prog.call "tick" [ vi 0 ]) ] in
  let upper = Prog.Module.of_bodies [ "g", (fun _ -> Prog.call "f" []) ] in
  let stacked = Prog.Module.stack ~lower ~upper in
  let layer = counter_layer () in
  let v = expect_done layer (Prog.Module.link stacked (Prog.call "g" [])) in
  check_int "g -> f -> tick" 1 (Value.to_int v)

(* ---- local machine ---- *)

let test_run_local_counts () =
  let layer = counter_layer () in
  let prog =
    Prog.seq_all
      [
        Prog.call "stash" [ vi 9 ];
        Prog.call "tick" [ vi 0 ];
        Prog.call "tick" [ vi 0 ];
        Prog.call "unstash" [];
      ]
  in
  let r = run_solo layer prog in
  check_int "moves" 2 r.Machine.moves;
  check_bool "silent steps counted" true (r.Machine.silent_steps >= 2);
  check_int "log" 2 (Log.length r.Machine.log);
  match r.Machine.outcome with
  | Machine.Done v -> check_int "unstash" 9 (Value.to_int v)
  | _ -> Alcotest.fail "expected Done"

let test_unknown_prim_stuck () =
  let msg = expect_stuck (counter_layer ()) (Prog.call "nonsense" []) in
  check_bool "mentions prim" true
    (String.length msg > 0 && String.sub msg 0 7 = "unknown")

let test_private_fuel () =
  let layer = counter_layer () in
  let rec spin () = Prog.bind (Prog.call "unstash" []) (fun _ -> spin ()) in
  let st = Machine.initial layer 1 (spin ()) in
  match Machine.step_move ~private_fuel:100 layer 1 st Log.empty with
  | Machine.Stuck (_, msg) -> check_string "fuel msg" Prog.steps_bound_exceeded msg
  | _ -> Alcotest.fail "expected stuck on divergent private loop"

let test_env_events_reach_prims () =
  let layer = counter_layer () in
  let env = Env_context.of_script "one" [ [ ev ~args:[ vi 0 ] ~ret:(vi 1) 2 "tick" ] ] in
  let r = Machine.run_local layer 1 ~env (Prog.call "read" [ vi 0 ]) in
  match r.Machine.outcome with
  | Machine.Done v -> check_int "sees env tick" 1 (Value.to_int v)
  | _ -> Alcotest.fail "expected Done"

let test_critical_suppresses_queries () =
  (* A layer whose [enter] primitive enters the critical state; the script
     environment would inject an event at every query point — none may be
     consumed while critical. *)
  let layer =
    Layer.make "Lcrit"
      [
        ( "enter",
          Layer.Shared
            (fun c _ _ ->
              Layer.Step
                { events = [ ev c "enter" ]; ret = Value.unit; crit = Layer.Enter }) );
        ( "leave",
          Layer.Shared
            (fun c _ _ ->
              Layer.Step
                { events = [ ev c "leave" ]; ret = Value.unit; crit = Layer.Exit }) );
        ( "mid",
          Layer.Shared
            (fun c _ _ ->
              Layer.Step
                { events = [ ev c "mid" ]; ret = Value.unit; crit = Layer.Keep }) );
      ]
  in
  let env =
    Env_context.of_script "noisy"
      [ [ ev 2 "x" ]; [ ev 2 "y" ]; [ ev 2 "z" ]; [ ev 2 "w" ] ]
  in
  let prog =
    Prog.seq_all
      [ Prog.call "enter" []; Prog.call "mid" []; Prog.call "leave" [];
        Prog.call "mid" [] ]
  in
  let r = Machine.run_local layer 1 ~env prog in
  let tags = List.map (fun (e : Event.t) -> e.Event.tag, e.Event.src)
      (Log.chronological r.Machine.log) in
  (* queries happen before [enter] and before the final [mid] (after
     leaving), but not between enter and leave *)
  check_bool "no env event inside critical section" true
    (match tags with
    | ("x", 2) :: ("enter", 1) :: ("mid", 1) :: ("leave", 1) :: rest ->
      List.mem ("y", 2) rest
    | _ -> false)

let test_blocked_retries_exhaust () =
  let layer =
    Layer.make "Lblock"
      [ "never", Layer.Shared (fun _ _ _ -> Layer.Block) ]
  in
  let r = run_solo layer (Prog.call "never" []) in
  match r.Machine.outcome with
  | Machine.No_progress _ -> ()
  | _ -> Alcotest.fail "expected no-progress on always-blocked primitive"

let test_guar_violation_detected () =
  let guar = Rely_guarantee.make "at-most-one-tick" (fun i l ->
      Log.count (fun (e : Event.t) -> e.src = i) l <= 1)
  in
  let layer = Layer.with_conditions ~rely:Rely_guarantee.always ~guar (counter_layer ()) in
  let prog = Prog.seq (Prog.call "tick" [ vi 0 ]) (Prog.call "tick" [ vi 0 ]) in
  let r = Machine.run_local layer 1 ~env:Env_context.empty ~check_guar:true prog in
  check_bool "violation found" true (r.Machine.guar_violation <> None)

(* ---- strategies ---- *)

let test_strategy_of_prog_moves () =
  let layer = counter_layer () in
  let s = Machine.strategy_of_prog layer 1 (Prog.call "tick" [ vi 0 ]) in
  match s.Strategy.step Log.empty with
  | Strategy.Move ([ e ], Strategy.Next s') -> (
    check_string "tag" "tick" e.Event.tag;
    match s'.Strategy.step (log_of [ e ]) with
    | Strategy.Move ([], Strategy.Done _) -> ()
    | _ -> Alcotest.fail "expected silent finish")
  | _ -> Alcotest.fail "expected one-event move"

let test_strategy_map_events () =
  let s = Strategy.of_moves [ (fun _ -> [ ev 1 "a" ]) ] in
  let s' = Strategy.map_events (fun e -> [ { e with Event.tag = "b" } ]) s in
  match s'.Strategy.step Log.empty with
  | Strategy.Move ([ e ], _) -> check_string "renamed" "b" e.Event.tag
  | _ -> Alcotest.fail "expected move"

(* ---- game ---- *)

let two_tickers () =
  let layer = counter_layer () in
  let prog _i =
    Prog.seq (Prog.call "tick" [ vi 0 ]) (Prog.call "tick" [ vi 0 ])
  in
  layer, [ 1, prog 1; 2, prog 2 ]

let test_game_all_done () =
  let layer, threads = two_tickers () in
  let o = Game.run (Game.config layer threads Sched.round_robin) in
  check_bool "done" true (Game.successful o);
  check_int "four events" 4 (Log.length o.Game.log)

let test_game_counter_value () =
  let layer, threads = two_tickers () in
  let o = Game.run (Game.config layer threads (Sched.random ~seed:42)) in
  (* the final tick returns 4 regardless of interleaving: the counter is
     replayed from the log *)
  let last = Option.get (Log.latest o.Game.log) in
  check_int "last tick value" 4 (Value.to_int last.Event.ret)

let test_game_interleavings_differ () =
  let layer, threads = two_tickers () in
  let o1 = Game.run (Game.config layer threads (Sched.of_trace [ 1; 1; 2; 2 ])) in
  let o2 = Game.run (Game.config layer threads (Sched.of_trace [ 2; 2; 1; 1 ])) in
  check_bool "logs differ" false (Log.equal o1.Game.log o2.Game.log)

let test_game_deadlock () =
  let layer =
    Layer.make "Lblock" [ "never", Layer.Shared (fun _ _ _ -> Layer.Block) ]
  in
  let o =
    Game.run (Game.config layer [ 1, Prog.call "never" [] ] Sched.round_robin)
  in
  match o.Game.status with
  | Game.Deadlock [ 1 ] -> ()
  | s -> Alcotest.failf "expected deadlock, got %s" (Format.asprintf "%a" Game.pp_status s)

let test_game_stuck () =
  let layer = counter_layer () in
  let o =
    Game.run (Game.config layer [ 1, Prog.call "nope" [] ] Sched.round_robin)
  in
  match o.Game.status with
  | Game.Stuck (1, Layer.Invalid_transition, _) -> ()
  | _ -> Alcotest.fail "expected stuck"

let test_game_switch_events () =
  let layer, threads = two_tickers () in
  let o =
    Game.run (Game.config ~log_switches:true layer threads (Sched.of_trace [ 1; 2; 1; 2 ]))
  in
  let switches = Log.count Event.is_switch o.Game.log in
  check_bool "switches logged" true (switches >= 3)

let test_game_fuel () =
  let layer = counter_layer () in
  let rec forever () =
    Prog.bind (Prog.call "tick" [ vi 0 ]) (fun _ -> forever ())
  in
  let o = Game.run (Game.config ~max_steps:50 layer [ 1, forever () ] Sched.round_robin) in
  match o.Game.status with
  | Game.Out_of_fuel -> check_int "steps" 50 o.Game.steps
  | _ -> Alcotest.fail "expected out of fuel"

(* ---- schedulers ---- *)

let test_round_robin_fair () =
  let picks =
    List.init 9 (fun step ->
        Option.get (Sched_oracle.round_robin ~step Log.empty ~runnable:[ 1; 2; 3 ]))
  in
  check_int "each picked 3 times" 3
    (List.length (List.filter (fun t -> t = 1) picks))

let test_random_deterministic () =
  let s1 = Sched.random ~seed:5 and s2 = Sched.random ~seed:5 in
  let run s =
    let pick = Sched_oracle.pick s in
    List.init 20 (fun step -> pick ~step Log.empty ~runnable:[ 1; 2; 3 ])
  in
  check_bool "same seed same picks" true (run s1 = run s2)

let test_trace_sched_skips_unrunnable () =
  let s = Sched.of_trace [ 7; 2 ] in
  match Sched_oracle.pick s ~step:0 Log.empty ~runnable:[ 1; 2 ] with
  | Some 2 -> ()
  | _ -> Alcotest.fail "expected the trace to skip to thread 2"

let prop_splitmix_nonneg =
  qtc "splitmix non-negative" QCheck.int (fun x -> Sched.splitmix x >= 0)

let prop_game_deterministic =
  qtc ~count:50 "same scheduler, same outcome" QCheck.(int_range 1 1000)
    (fun seed ->
      let layer, threads = two_tickers () in
      let o1 = Game.run (Game.config layer threads (Sched.random ~seed)) in
      let o2 = Game.run (Game.config layer threads (Sched.random ~seed)) in
      Log.equal o1.Game.log o2.Game.log)

let prop_counter_linearizable_total =
  qtc ~count:50 "final counter = total ticks" QCheck.(int_range 1 1000)
    (fun seed ->
      let layer, threads = two_tickers () in
      let o = Game.run (Game.config layer threads (Sched.random ~seed)) in
      Game.successful o
      && Log.count (fun (e : Event.t) -> String.equal e.tag "tick") o.Game.log = 4)

let suite =
  [
    tc "prog bind" test_prog_bind;
    tc "prog seq_all" test_prog_seq_all;
    tc "module union disjoint" test_module_union_disjoint;
    tc "module link" test_module_link;
    tc "module stack" test_module_stack;
    tc "run_local counts" test_run_local_counts;
    tc "unknown prim stuck" test_unknown_prim_stuck;
    tc "private fuel" test_private_fuel;
    tc "env events reach prims" test_env_events_reach_prims;
    tc "critical suppresses queries" test_critical_suppresses_queries;
    tc "blocked retries exhaust" test_blocked_retries_exhaust;
    tc "guarantee violation detected" test_guar_violation_detected;
    tc "strategy of prog" test_strategy_of_prog_moves;
    tc "strategy map_events" test_strategy_map_events;
    tc "game all done" test_game_all_done;
    tc "game counter value" test_game_counter_value;
    tc "game interleavings differ" test_game_interleavings_differ;
    tc "game deadlock" test_game_deadlock;
    tc "game stuck" test_game_stuck;
    tc "game switch events" test_game_switch_events;
    tc "game fuel" test_game_fuel;
    tc "round robin fair" test_round_robin_fair;
    tc "random deterministic" test_random_deterministic;
    tc "trace sched skips unrunnable" test_trace_sched_skips_unrunnable;
    prop_splitmix_nonneg;
    prop_game_deterministic;
    prop_counter_linearizable_total;
  ]
