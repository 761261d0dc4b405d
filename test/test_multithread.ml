(* Tests for the multithreaded machinery: thread scheduler (Sec. 5.1–5.3),
   queuing lock (Fig. 11), condition variables and the IPC channel
   (S18–S21). *)
open Ccal_core
open Ccal_objects
open Util
module T = Thread_sched

let mt placement = T.mt_layer placement (Lock_intf.layer "Llock")

let yield_ = Prog.call T.yield_tag []
let texit = Prog.call T.exit_tag []

(* ---- Rsched replay ---- *)

(* Read off [Rsched] for one thread or one channel. *)
let is_running placement t l =
  match T.replay_sched placement l, List.assoc_opt t placement with
  | Ok st, Some c -> (
    match List.assoc_opt c st.T.cpus with Some cs -> cs.T.running = Some t | None -> false)
  | _ -> false

let sleepers placement chan l =
  match T.replay_sched placement l with
  | Ok st -> Option.value ~default:[] (List.assoc_opt chan st.T.slpq)
  | Error _ -> []

let test_init_state () =
  let st = Result.get_ok (T.replay_sched [ 1, 0; 2, 0; 3, 1 ] Log.empty) in
  (match List.assoc 0 st.T.cpus with
  | { T.running = Some 1; rdq = [ 2 ]; pendq = [] } -> ()
  | _ -> Alcotest.fail "cpu0 wrong");
  match List.assoc 1 st.T.cpus with
  | { T.running = Some 3; rdq = []; pendq = [] } -> ()
  | _ -> Alcotest.fail "cpu1 wrong"

let test_yield_rotates () =
  let placement = [ 1, 0; 2, 0 ] in
  let l = log_of [ ev 1 T.yield_tag ] in
  check_bool "2 now running" true (is_running placement 2 l);
  check_bool "1 descheduled" false (is_running placement 1 l);
  let l2 = Log.append (ev 2 T.yield_tag) l in
  check_bool "1 again" true (is_running placement 1 l2)

let test_sleep_wakeup_cycle () =
  let placement = [ 1, 0; 2, 0 ] in
  let l = log_of [ ev ~args:[ vi 9 ] 1 T.sleep_tag ] in
  check_bool "2 running after 1 sleeps" true (is_running placement 2 l);
  Alcotest.(check (list int)) "sleeper" [ 1 ] (sleepers placement 9 l);
  let l2 = Log.append (ev ~args:[ vi 9 ] ~ret:(vi 1) 2 T.wakeup_tag) l in
  Alcotest.(check (list int)) "woken" [] (sleepers placement 9 l2);
  (* same cpu: 1 went to the ready queue, 2 still runs *)
  check_bool "2 still running" true (is_running placement 2 l2);
  let l3 = Log.append (ev 2 T.yield_tag) l2 in
  check_bool "1 resumes" true (is_running placement 1 l3)

let test_wakeup_idle_cpu () =
  let placement = [ 1, 0; 2, 1 ] in
  let l = log_of [ ev ~args:[ vi 9 ] 1 T.sleep_tag ] in
  (* cpu0 idle now *)
  let l2 = Log.append (ev ~args:[ vi 9 ] ~ret:(vi 1) 2 T.wakeup_tag) l in
  check_bool "woken directly to running" true (is_running placement 1 l2)

let test_texit_removes () =
  let placement = [ 1, 0; 2, 0 ] in
  let l = log_of [ ev 1 T.exit_tag ] in
  check_bool "2 running" true (is_running placement 2 l);
  let l2 = Log.append (ev 2 T.exit_tag) l in
  check_bool "nobody" false (is_running placement 1 l2 || is_running placement 2 l2)

let test_sched_event_by_descheduled_rejected () =
  let placement = [ 1, 0; 2, 0 ] in
  let l = log_of [ ev 2 T.yield_tag ] in
  check_bool "replay stuck" false
    (Replay.well_formed (T.replay_sched placement) l)

let test_unplaced_thread_rejected () =
  let l = log_of [ ev 7 T.yield_tag ] in
  check_bool "stuck" false (Replay.well_formed (T.replay_sched [ 1, 0 ]) l)

(* ---- turn discipline ---- *)

let test_turn_blocks_descheduled () =
  let placement = [ 1, 0; 2, 0 ] in
  let layer = mt placement in
  (* thread 2 cannot move until thread 1 yields *)
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.seq yield_ texit;
           2, Prog.seq (Prog.call "acq" [ vi 0 ])
                (Prog.seq (Prog.call "rel" [ vi 0; vi 2 ]) texit) ]
         (Sched.of_trace [ 2; 2; 1; 2; 2; 2; 1 ]))
  in
  check_bool "completes" true (Game.successful o);
  (* 2's acq necessarily came after 1's yield *)
  let tags = List.map (fun (e : Event.t) -> e.Event.src, e.Event.tag)
      (Log.chronological o.Game.log) in
  check_bool "yield first" true
    (match tags with (1, "yield") :: _ -> true | _ -> false)

let test_turn_consistent () =
  let placement = [ 1, 0; 2, 0 ] in
  let layer = mt placement in
  let prog i =
    Prog.seq_all
      [ Prog.call "acq" [ vi 0 ]; Prog.call "rel" [ vi 0; vi i ]; yield_; texit ]
  in
  let o =
    Game.run (Game.config layer [ 1, prog 1; 2, prog 2 ] (Sched.random ~seed:3))
  in
  check_bool "done" true (Game.successful o);
  check_bool "turn consistent" true (T.turn_consistent placement o.Game.log)

let test_multithreaded_linking () =
  let placement = [ 1, 0; 2, 0; 3, 1 ] in
  let layer = mt placement in
  let prog i =
    Prog.seq_all
      [ Prog.call "acq" [ vi 0 ]; Prog.call "rel" [ vi 0; vi i ]; yield_; texit ]
  in
  let threads = [ 1, prog 1; 2, prog 2; 3, prog 3 ] in
  match
    judge_all layer threads
      (T.judge_linking ~placement layer threads)
      (Sched.default_suite ~seeds:5)
  with
  | Ok n -> check_int "schedules" 6 n
  | Error f -> Alcotest.failf "%a" Failure.pp f

let test_sleep_requires_lock () =
  let placement = [ 1, 0 ] in
  let layer = mt placement in
  ignore (expect_stuck layer (Prog.call T.sleep_tag [ vi 9; vi 0; vi 1 ]))

let test_sleep_releases_lock_atomically () =
  let placement = [ 1, 0; 2, 0 ] in
  let layer = mt placement in
  let prog1 =
    Prog.seq
      (Prog.call "acq" [ vi 0 ])
      (Prog.call T.sleep_tag [ vi 9; vi 0; vi 7 ])
  in
  let prog2 =
    Prog.seq_all
      [ Prog.call "acq" [ vi 0 ]; Prog.call "rel" [ vi 0; vi 2 ]; texit ]
  in
  let o =
    Game.run (Game.config layer [ 1, prog1; 2, prog2 ] Sched.round_robin)
  in
  (* 1 sleeps forever but released the lock, so 2 finishes *)
  check_bool "thread 2 finished" true (List.mem_assoc 2 o.Game.results);
  (* the sleep emitted rel and sleep adjacently *)
  let tags = List.filter_map
      (fun (e : Event.t) -> if e.src = 1 then Some e.Event.tag else None)
      (Log.chronological o.Game.log) in
  check_bool "rel then sleep" true
    (match tags with [ "acq"; "rel"; "sleep" ] -> true | _ -> false)

let test_get_tid () =
  let layer = mt [ 4, 0 ] in
  check_int "tid" 4 (Value.to_int (expect_done ~tid:4 layer (Prog.call "get_tid" [])))

(* ---- queuing lock ---- *)

let test_qlock_certify () =
  match Object_intf.certify Qlock.recipe () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

let test_qlock_certify_asm () =
  match Object_intf.certify Qlock.recipe ~focus:[ 1 ] ~use_asm:true () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

let qlock_client l i =
  Prog.seq_all
    [ Prog.call "acq_q" [ vi l ]; Prog.call "rel_q" [ vi l ]; yield_; texit;
      Prog.ret (vi i) ]

let run_qlock_game placement sched =
  let layer = Qlock.underlay ~placement () in
  let m = Qlock.c_module () in
  Game.run
    (Game.config ~max_steps:400_000 layer
       (List.map (fun (t, _) -> t, Prog.Module.link m (qlock_client 3 t)) placement)
       sched)

let test_qlock_game_own_cpus () =
  List.iter
    (fun sched ->
      let o = run_qlock_game [ 1, 1; 2, 2; 3, 3 ] sched in
      check_bool "completes" true (Game.successful o);
      let t = Sim_rel.apply Qlock.r_qlock o.Game.log in
      check_bool "qlock history wellformed" true
        (Replay.well_formed (Qlock.replay_qlock 3) t))
    (Sched.default_suite ~seeds:8)

let test_qlock_game_shared_cpu () =
  List.iter
    (fun sched ->
      let o = run_qlock_game [ 1, 0; 2, 0; 3, 1 ] sched in
      check_bool "completes" true (Game.successful o))
    (Sched.default_suite ~seeds:8)

let test_qlock_sleeping_not_spinning () =
  (* under contention the waiter sleeps: the log contains sleep events and
     no unbounded spinning *)
  let o = run_qlock_game [ 1, 1; 2, 2 ] (Sched.of_trace [ 1; 2; 2; 2; 2; 2 ]) in
  check_bool "completes" true (Game.successful o);
  check_bool "log stays small" true (Log.length o.Game.log < 40)

let prop_qlock_random =
  qtc ~count:25 "qlock safe under random schedules" QCheck.(int_range 1 2_000)
    (fun seed ->
      let o = run_qlock_game [ 1, 0; 2, 0; 3, 1 ] (Sched.random ~seed) in
      Game.successful o
      &&
      let t = Sim_rel.apply Qlock.r_qlock o.Game.log in
      Replay.well_formed (Qlock.replay_qlock 3) t)

let test_qlock_refinement_shared_cpu () =
  match
    Object_intf.certify Qlock.recipe ~placement:[ 1, 0; 2, 0; 8, 8; 9, 9 ] ()
  with
  | Error e -> Alcotest.failf "%a" Failure.pp e
  | Ok cert -> (
    let client i =
      Prog.seq_all
        [ Prog.call "acq_q" [ vi 3 ]; Prog.call "rel_q" [ vi 3 ];
          yield_; texit; Prog.ret (vi i) ]
    in
    match
      refine_cert cert ~client ~scheds:(Sched.default_suite ~seeds:5)
    with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "%a" Failure.pp f)

(* ---- condition variables ---- *)

let test_cv_signal_no_sleeper () =
  let layer = mt [ 1, 0 ] in
  let m = Condvar.c_module () in
  let v = expect_done layer (Prog.Module.link m (Prog.call "cv_signal" [ vi 9 ])) in
  check_int "nobody woken" 0 (Value.to_int v)

let test_cv_broadcast_counts () =
  let placement = [ 1, 0; 2, 2; 3, 3 ] in
  let layer = mt placement in
  let m = Condvar.c_module () in
  let sleeper i =
    Prog.seq
      (Prog.call "acq" [ vi 0 ])
      (Prog.seq
         (Prog.Module.link m (Prog.call "cv_wait" [ vi 9; vi 0; vi 0 ]))
         (Prog.ret (vi i)))
  in
  let waker =
    Prog.seq yield_
      (Prog.bind (Prog.Module.link m (Prog.call "cv_broadcast" [ vi 9 ]))
         (fun n -> Prog.seq texit (Prog.ret n)))
  in
  let o =
    Game.run
      (Game.config ~max_steps:100_000 layer
         [ 2, sleeper 2; 3, sleeper 3; 1, waker ]
         (Sched.of_trace [ 2; 2; 2; 3; 3; 3; 1; 1; 1; 1; 2; 3 ]))
  in
  match List.assoc_opt 1 o.Game.results with
  | Some n -> check_int "two woken" 2 (Value.to_int n)
  | None -> Alcotest.failf "waker unfinished: %a" Game.pp_status o.Game.status

(* ---- IPC ---- *)

let test_ipc_certify () =
  match Object_intf.certify Ipc.recipe () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

(* A placement that leaves out the rival thread 9 is rejected, naming
   it; once 9 is placed, its one-rival context runs it on the empty log. *)
let test_ipc_placement_places_rivals () =
  Alcotest.check_raises "rival 9 unplaced"
    (Invalid_argument "Object_intf.certify: placement leaves out thread 9")
    (fun () ->
      ignore
        (Object_intf.certify Ipc.recipe ~placement:[ 1, 1; 2, 2; 3, 3 ] ()));
  let placement = [ 1, 1; 2, 2; 3, 3; 9, 9 ] in
  (match Object_intf.certify Ipc.recipe ~placement () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e);
  let envs = Object_intf.env_suite Ipc.recipe ~memory:Memory.Sc ~placement 1 in
  match
    List.find_opt
      (fun (e : Env_context.t) -> e.Env_context.name = "one-rival(r1)")
      envs
  with
  | None -> Alcotest.fail "no one-rival(r1) context"
  | Some e ->
    check_bool "one-rival(r1) answers events on the empty log" true
      (e.Env_context.query ~focus:[ 1 ] Log.empty <> [])

let test_ipc_overlay_blocks () =
  let layer = Ipc.overlay () in
  let o =
    Game.run
      (Game.config layer [ 1, Prog.call "recv" [ vi 0 ] ] Sched.round_robin)
  in
  match o.Game.status with
  | Game.Deadlock [ 1 ] -> ()
  | s -> Alcotest.failf "expected blocked recv, got %a" Game.pp_status s

let test_ipc_overlay_capacity () =
  let layer = Ipc.overlay () in
  let sends =
    Prog.seq_all
      (* one send more than the channel's capacity of 2 *)
      (List.init 3 (fun k -> Prog.call "send" [ vi 0; vi k ]))
  in
  let o = Game.run (Game.config layer [ 1, sends ] Sched.round_robin) in
  match o.Game.status with
  | Game.Deadlock [ 1 ] -> ()
  | s -> Alcotest.failf "expected blocked send, got %a" Game.pp_status s

let producer_consumer placement sched n =
  let layer = Ipc.underlay ~placement () in
  let m = Ipc.c_module () in
  let producer =
    Prog.Module.link m
      (Prog.seq_all
         (List.init n (fun k -> Prog.call "send" [ vi 5; vi (100 + k) ])
         @ [ Prog.call T.exit_tag [] ]))
  in
  let consumer =
    Prog.Module.link m
      (let rec go k acc =
         if k = 0 then Prog.seq (Prog.call T.exit_tag []) (Prog.ret (Value.list (List.rev acc)))
         else
           Prog.bind (Prog.call "recv" [ vi 5 ]) (fun v -> go (k - 1) (v :: acc))
       in
       go n [])
  in
  Game.run
    (Game.config ~max_steps:400_000 layer [ 1, producer; 2, consumer ] sched)

let test_ipc_producer_consumer_order () =
  List.iter
    (fun sched ->
      let o = producer_consumer [ 1, 1; 2, 2 ] sched 5 in
      check_bool "completes" true (Game.successful o);
      match List.assoc_opt 2 o.Game.results with
      | Some (Value.Vlist vs) ->
        Alcotest.(check (list int))
          "FIFO delivery" [ 100; 101; 102; 103; 104 ]
          (List.map Value.to_int vs)
      | _ -> Alcotest.fail "consumer result missing")
    (Sched.default_suite ~seeds:6)

let test_ipc_translation_wellformed () =
  let o = producer_consumer [ 1, 1; 2, 2 ] (Sched.random ~seed:77) 4 in
  let t = Sim_rel.apply Ipc.r_ipc o.Game.log in
  check_bool "channel replay ok" true (Replay.well_formed (Ipc.replay_chan 5) t);
  check_int "4 sends" 4 (Log.count (fun e -> String.equal e.Event.tag "send") t);
  check_int "4 recvs" 4 (Log.count (fun e -> String.equal e.Event.tag "recv") t)

let prop_ipc_random =
  qtc ~count:20 "ipc delivers in order under random schedules"
    QCheck.(int_range 1 2_000) (fun seed ->
      let o = producer_consumer [ 1, 1; 2, 2 ] (Sched.random ~seed) 4 in
      Game.successful o
      &&
      match List.assoc_opt 2 o.Game.results with
      | Some (Value.Vlist vs) ->
        List.map Value.to_int vs = [ 100; 101; 102; 103 ]
      | _ -> false)

let suite =
  [
    tc "init state" test_init_state;
    tc "yield rotates" test_yield_rotates;
    tc "sleep/wakeup cycle" test_sleep_wakeup_cycle;
    tc "wakeup idle cpu" test_wakeup_idle_cpu;
    tc "texit removes" test_texit_removes;
    tc "sched event by descheduled rejected" test_sched_event_by_descheduled_rejected;
    tc "unplaced thread rejected" test_unplaced_thread_rejected;
    tc "turn blocks descheduled" test_turn_blocks_descheduled;
    tc "turn consistent" test_turn_consistent;
    tc "multithreaded linking (thm 5.1)" test_multithreaded_linking;
    tc "sleep requires lock" test_sleep_requires_lock;
    tc "sleep releases lock atomically" test_sleep_releases_lock_atomically;
    tc "get_tid" test_get_tid;
    tc "qlock certify" test_qlock_certify;
    tc "qlock certify (asm)" test_qlock_certify_asm;
    tc "qlock game own cpus" test_qlock_game_own_cpus;
    tc "qlock game shared cpu" test_qlock_game_shared_cpu;
    tc "qlock sleeps not spins" test_qlock_sleeping_not_spinning;
    prop_qlock_random;
    tc "qlock refinement shared cpu" test_qlock_refinement_shared_cpu;
    tc "cv signal no sleeper" test_cv_signal_no_sleeper;
    tc "cv broadcast counts" test_cv_broadcast_counts;
    tc "ipc certify" test_ipc_certify;
    tc "ipc placement must place the rival" test_ipc_placement_places_rivals;
    tc "ipc overlay blocks" test_ipc_overlay_blocks;
    tc "ipc overlay capacity" test_ipc_overlay_capacity;
    tc "ipc producer/consumer order" test_ipc_producer_consumer_order;
    tc "ipc translation wellformed" test_ipc_translation_wellformed;
    prop_ipc_random;
  ]
