(* Edge-case and surface tests: environment contexts, layer combinators,
   abstract state, rely/guarantee algebra, pretty-printers, syntax sizes,
   and translation corner cases not covered by the integration suites. *)
open Ccal_core
open Ccal_objects
open Util
module C = Ccal_clight.Csyntax

(* ---- Abs ---- *)

let test_abs_basic () =
  let a = Abs.empty |> Abs.set "x" (vi 1) |> Abs.set "y" (vi 2) in
  check_int "get" 1 (Value.to_int (Abs.get "x" a));
  check_bool "missing field not bound" false (List.mem_assoc "z" (Abs.fields a));
  check_bool "get missing is unit" true (Value.equal Value.unit (Abs.get "z" a));
  let a' = Abs.set "x" (vi 11) a in
  check_int "set" 11 (Value.to_int (Abs.get "x" a'));
  check_int "fields" 2 (List.length (Abs.fields a));
  check_bool "equal" true
    (Abs.equal a (Abs.empty |> Abs.set "y" (vi 2) |> Abs.set "x" (vi 1)));
  check_bool "not equal" false (Abs.equal a a')

(* ---- Rely_guarantee algebra ---- *)

let test_rg_algebra () =
  let ev_count n = Rely_guarantee.make (Printf.sprintf "le%d" n)
      (fun i l -> Log.count (fun e -> e.Event.src = i) l <= n)
  in
  let l = log_of [ ev 1 "a"; ev 1 "b" ] in
  let c = Rely_guarantee.conj (ev_count 1) (ev_count 3) in
  check_bool "conj fails" false (c.Rely_guarantee.holds 1 l);
  check_bool "conj with always is id" true
    (Rely_guarantee.same (Rely_guarantee.conj Rely_guarantee.always (ev_count 1)) (ev_count 1))

(* ---- Env_context ---- *)

let test_env_script_single_use () =
  let e = Env_context.of_script "s" [ [ ev 2 "a" ]; [ ev 2 "b" ] ] in
  check_int "first" 1 (List.length (e.Env_context.query ~focus:[ 1 ] Log.empty));
  check_int "second" 1 (List.length (e.Env_context.query ~focus:[ 1 ] Log.empty));
  check_int "exhausted" 0 (List.length (e.Env_context.query ~focus:[ 1 ] Log.empty))

let test_env_valid_events () =
  let checked script =
    Env_context.checked ~rely:Rely_guarantee.always
      (Env_context.of_script "s" [ script ])
  in
  check_int "foreign ok" 1
    (List.length ((checked [ ev 2 "a" ]).Env_context.query ~focus:[ 1 ] Log.empty));
  check_bool "own rejected" true
    (try ignore ((checked [ ev 1 "a" ]).Env_context.query ~focus:[ 1 ] Log.empty); false
     with Env_context.Invalid_env _ -> true)

let test_env_checked_raises () =
  let bad = Env_context.of_script "bad" [ [ ev 1 "a" ] ] in
  let checked = Env_context.checked ~rely:Rely_guarantee.always bad in
  check_bool "raises on own event" true
    (try ignore (checked.Env_context.query ~focus:[ 1 ] Log.empty); false
     with Env_context.Invalid_env _ -> true)

let test_env_checked_rely () =
  let rely = Rely_guarantee.make "none" (fun _ _ -> false) in
  let e = Env_context.of_script "e" [ [ ev 2 "a" ] ] in
  let checked = Env_context.checked ~rely e in
  check_bool "raises on rely violation" true
    (try ignore (checked.Env_context.query ~focus:[ 1 ] Log.empty); false
     with Env_context.Invalid_env _ -> true)

let test_env_of_strategies_blocked_skipped () =
  let blocked = { Strategy.step = (fun _ -> Strategy.Blocked) } in
  let live = Strategy.of_moves [ (fun _ -> [ ev 3 "x" ]) ] in
  let e = Env_context.of_strategies "mix" [ 2, blocked; 3, live ] ~rounds:2 in
  let evs = e.Env_context.query ~focus:[ 1 ] Log.empty in
  check_int "only the live participant emits" 1 (List.length evs)

(* ---- Layer combinators ---- *)

let test_layer_duplicate_prim_rejected () =
  check_bool "raises" true
    (try
       ignore (Layer.make "L" [ Layer.pure_private "p" (fun _ -> Value.unit);
                                Layer.pure_private "p" (fun _ -> Value.unit) ]);
       false
     with Invalid_argument _ -> true)

let test_layer_restrict () =
  let l = counter_layer () in
  let r = Layer.restrict [ "tick" ] l in
  check_bool "kept" true (Layer.has_prim "tick" r);
  check_bool "hidden" false (Layer.has_prim "read" r)

let test_layer_union_prim_clash () =
  let a = Layer.make "A" [ Layer.pure_private "p" (fun _ -> Value.unit) ] in
  let b = Layer.make "B" [ Layer.pure_private "p" (fun _ -> Value.unit) ] in
  check_bool "raises" true
    (try ignore (Layer.union a b); false with Invalid_argument _ -> true)

let test_layer_union_merges_init_abs () =
  let a =
    Layer.make ~init_abs:(fun _ -> Abs.set "a" (vi 1) Abs.empty) "A"
      [ Layer.pure_private "p" (fun _ -> Value.unit) ]
  in
  let b =
    Layer.make ~init_abs:(fun _ -> Abs.set "b" (vi 2) Abs.empty) "B"
      [ Layer.pure_private "q" (fun _ -> Value.unit) ]
  in
  let u = Layer.union a b in
  let abs = u.Layer.init_abs 1 in
  check_int "a" 1 (Value.to_int (Abs.get "a" abs));
  check_int "b" 2 (Value.to_int (Abs.get "b" abs))

(* ---- Strategy combinators ---- *)

let test_strategy_stopped () =
  match (Strategy.of_moves ~ret:(vi 5) []).Strategy.step Log.empty with
  | Strategy.Move ([], Strategy.Done v) -> check_int "value" 5 (Value.to_int v)
  | _ -> Alcotest.fail "expected silent done"

let test_strategy_of_moves_reads_log () =
  let s = Strategy.of_moves [ (fun l -> [ ev (Log.length l + 4) "ping" ]) ] in
  match s.Strategy.step (log_of [ ev 1 "a" ]) with
  | Strategy.Move ([ e ], Strategy.Next rest) -> (
    check_int "src from the log" 5 e.Event.src;
    match rest.Strategy.step Log.empty with
    | Strategy.Move ([], Strategy.Done v) ->
      check_bool "unit result" true (Value.equal Value.unit v)
    | _ -> Alcotest.fail "expected silent done after the move")
  | _ -> Alcotest.fail "expected one move"

(* ---- pretty-printers (smoke: they terminate and are non-empty) ---- *)

let test_pp_smoke () =
  let nonempty s = check_bool "nonempty" true (String.length s > 0) in
  nonempty (Value.to_string (Value.pair (vi 1) (Value.list [ vi 2; Value.bool true ])));
  nonempty (log_string (log_of [ ev 1 "a" ]));
  nonempty (Format.asprintf "%a" C.pp_fn Ticket_lock.acq_fn);
  nonempty
    (Format.asprintf "%a" Ccal_machine.Asm.pp_fn
       (Ccal_compcertx.Compile.compile_fn Ticket_lock.acq_fn))

let test_csyntax_sizes () =
  check_bool "acq has statements" true (C.fn_size Ticket_lock.acq_fn >= 5);
  check_int "skip" 1 (C.stmt_size C.Sskip);
  check_bool "asm size positive" true
    (Ccal_machine.Asm.size (Ccal_compcertx.Compile.compile_fn Ticket_lock.rel_fn) > 3)

(* ---- translation corner cases ---- *)

let test_qlock_translation_fast_path () =
  let l3 = Value.int 3 in
  let l =
    log_of
      [ ev ~args:[ l3 ] ~ret:(vi 0) 1 "acq"; ev ~args:[ l3; vi 1 ] 1 "rel" ]
  in
  match Log.chronological (Sim_rel.apply Qlock.r_qlock l) with
  | [ e ] -> check_string "fast acq_q" "acq_q" e.Event.tag
  | _ -> Alcotest.fail "expected a single acq_q"

let test_qlock_translation_handoff () =
  let l3 = Value.int 3 in
  let l =
    log_of
      [ (* thread 1 releases and wakes thread 2 *)
        ev ~args:[ l3 ] ~ret:(vi 0) 1 "acq";
        ev ~args:[ l3 ] ~ret:(vi 2) 1 "wakeup";
        ev ~args:[ l3; vi 2 ] 1 "rel";
        ev ~args:[ l3 ] 2 "wait" ]
  in
  Alcotest.(check (list (pair int string)))
    "rel_q then acq_q by the woken thread"
    [ 1, "rel_q"; 2, "acq_q" ]
    (List.map
       (fun (e : Event.t) -> e.src, e.Event.tag)
       (Log.chronological (Sim_rel.apply Qlock.r_qlock l)))

let test_ipc_translation_sleep_retry_erased () =
  let c5 = Value.int 5 in
  let l =
    log_of
      [ ev ~args:[ c5 ] ~ret:(Value.list []) 1 "acq";
        (* sleeping retry: publishes the unchanged buffer *)
        ev ~args:[ c5; Value.list [] ] 1 "rel";
        ev ~args:[ Value.int 1011 ] 1 "sleep" ]
  in
  check_int "nothing survives" 0 (Log.length (Sim_rel.apply Ipc.r_ipc l))

let test_ticket_translation_keeps_foreign () =
  let l = log_of [ ev 1 "FAI_t"; ev 2 "something_else" ] in
  let t = Sim_rel.apply Ticket_lock.r_ticket l in
  Alcotest.(check (list string))
    "foreign kept" [ "something_else" ]
    (List.map (fun (e : Event.t) -> e.Event.tag) (Log.chronological t))

(* ---- multi-lock independence at the object level ---- *)

let test_ticket_two_locks () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client b i =
    Prog.Module.link m
      (Prog.bind (Prog.call "acq" [ vi b ]) (fun _ ->
           Prog.seq (Prog.call "rel" [ vi b; vi i ]) (Prog.ret (vi i))))
  in
  let o =
    Game.run
      (Game.config layer [ 1, client 0 1; 2, client 7 2 ] (Sched.of_trace [ 1; 2; 1; 2; 1; 2; 1; 2 ]))
  in
  check_bool "both complete without interference" true (Game.successful o);
  let t = Sim_rel.apply Ticket_lock.r_ticket o.Game.log in
  Alcotest.(check (list int)) "lock 0 handoffs" [ 1 ] (Lock_intf.handoffs 0 t);
  Alcotest.(check (list int)) "lock 7 handoffs" [ 2 ] (Lock_intf.handoffs 7 t)

(* ---- wakeup on an empty channel ---- *)

let test_wakeup_empty_channel () =
  let layer = Thread_sched.mt_layer [ 1, 0 ] (Lock_intf.layer "L") in
  let v = expect_done layer (Prog.call "wakeup" [ vi 9 ]) in
  check_int "nobody" 0 (Value.to_int v)

(* ---- simulation drive: blocked strategies report cleanly ---- *)

let test_drive_blocked () =
  let blocked = { Strategy.step = (fun _ -> Strategy.Blocked) } in
  let d =
    Simulation.drive ~block_retries:3 1 blocked ~env:Env_context.empty
      ~init_log:Log.empty
  in
  check_bool "blocked" true d.Simulation.blocked;
  check_bool "no result" true (d.Simulation.ret = None)

let test_drive_refused () =
  let refusing = { Strategy.step = (fun _ -> Strategy.Refuse "nope") } in
  let d = Simulation.drive 1 refusing ~env:Env_context.empty ~init_log:Log.empty in
  check_bool "refused" true (d.Simulation.refused = Some "nope")

(* ---- condvar: broadcast with no sleepers ---- *)

let test_broadcast_empty () =
  let layer = Thread_sched.mt_layer [ 1, 0 ] (Lock_intf.layer "L") in
  let m = Condvar.c_module () in
  let v = expect_done layer (Prog.Module.link m (Prog.call "cv_broadcast" [ vi 9 ])) in
  check_int "zero woken" 0 (Value.to_int v)

(* ---- game: results of finished threads only ---- *)

let test_game_partial_results () =
  let layer =
    Layer.make "L"
      [ "never", Layer.Shared (fun _ _ _ -> Layer.Block);
        Layer.event_prim "go" (fun _ _ _ -> Ok (vi 1)) ]
  in
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.call "go" []; 2, Prog.call "never" [] ]
         Sched.round_robin)
  in
  check_bool "thread 1 finished" true (List.mem_assoc 1 o.Game.results);
  check_bool "thread 2 did not" false (List.mem_assoc 2 o.Game.results)

let suite =
  [
    tc "abs basic" test_abs_basic;
    tc "rely/guarantee algebra" test_rg_algebra;
    tc "env script single use" test_env_script_single_use;
    tc "env valid events" test_env_valid_events;
    tc "env checked raises on own event" test_env_checked_raises;
    tc "env checked enforces rely" test_env_checked_rely;
    tc "env of_strategies skips blocked" test_env_of_strategies_blocked_skipped;
    tc "layer duplicate prim rejected" test_layer_duplicate_prim_rejected;
    tc "layer restrict" test_layer_restrict;
    tc "layer union prim clash" test_layer_union_prim_clash;
    tc "layer union merges init_abs" test_layer_union_merges_init_abs;
    tc "strategy stopped" test_strategy_stopped;
    tc "strategy of_moves reads the log" test_strategy_of_moves_reads_log;
    tc "pretty-printers smoke" test_pp_smoke;
    tc "csyntax sizes" test_csyntax_sizes;
    tc "qlock translation fast path" test_qlock_translation_fast_path;
    tc "qlock translation handoff" test_qlock_translation_handoff;
    tc "ipc translation erases sleep retry" test_ipc_translation_sleep_retry_erased;
    tc "ticket translation keeps foreign" test_ticket_translation_keeps_foreign;
    tc "ticket two locks independent" test_ticket_two_locks;
    tc "wakeup empty channel" test_wakeup_empty_channel;
    tc "drive blocked" test_drive_blocked;
    tc "drive refused" test_drive_refused;
    tc "broadcast empty" test_broadcast_empty;
    tc "game partial results" test_game_partial_results;
  ]
