(* Tests for Sim_rel, Simulation (Def. 2.1), the layer calculus (Fig. 9)
   and Refinement (Thm 2.2) on small synthetic layers (S6, S7, S8). *)
open Ccal_core
open Util

(* Underlay: per-thread counter ticks.  Overlay: an atomic [bump2] that
   advances the caller's counter by two in one event.  Module: bump2 =
   tick; tick.  Relation: a stateful scan pairing each thread's ticks and
   renaming the second of each pair to [bump2]. *)
let bump2_tag = "bump2"

let own_count tag c id log =
  Log.count
    (fun (e : Event.t) ->
      e.src = c && String.equal e.tag tag && e.args = [ Value.int id ])
    log

let under_layer () =
  Layer.make "Ltick"
    [
      Layer.event_prim "tick" (fun c args log ->
          match args with
          | [ Value.Vint id ] -> Ok (vi (own_count "tick" c id log + 1))
          | _ -> Error "tick: bad args");
    ]

let over_layer () =
  Layer.make "Lbump"
    [
      Layer.event_prim bump2_tag (fun c args log ->
          match args with
          | [ Value.Vint id ] -> Ok (vi (2 * (own_count bump2_tag c id log + 1)))
          | _ -> Error "bump2: bad args");
    ]

let bump_module () =
  Prog.Module.of_bodies
    [ ( bump2_tag,
        fun args ->
          Prog.seq (Prog.call "tick" args) (Prog.call "tick" args) ) ]

(* Per-thread stateful translation: each thread's ticks pair up; the pair
   becomes one bump2 whose ret is the second tick's ret. *)
let r_bump =
  Sim_rel.of_log_fn "R_bump" (fun log ->
      let step (firsts, out) (e : Event.t) =
        if String.equal e.tag "tick" then
          match List.assoc_opt e.src firsts with
          | None -> (e.src, e) :: firsts, out
          | Some _ ->
            List.remove_assoc e.src firsts,
            { e with Event.tag = bump2_tag } :: out
        else firsts, e :: out
      in
      let _, out = List.fold_left step ([], []) (Log.chronological log) in
      Log.append_all (List.rev out) Log.empty)

let test_sim_rel_table () =
  let r = Sim_rel.of_table "r" [ "a", `To "b"; "c", `Drop ] in
  let l = log_of [ ev 1 "a"; ev 1 "c"; ev 1 "d" ] in
  Alcotest.(check (list string))
    "translation" [ "b"; "d" ]
    (List.map (fun (e : Event.t) -> e.tag) (Log.chronological (Sim_rel.apply r l)))

let test_sim_rel_default_drop () =
  let r = Sim_rel.of_table "r" ~default:`Drop [ "a", `To "b" ] in
  let l = log_of [ ev 1 "a"; ev 1 "z" ] in
  check_int "only a kept" 1 (Log.length (Sim_rel.apply r l))

let test_sim_rel_compose_id () =
  let r = Sim_rel.of_table "r" [ "a", `To "b" ] in
  check_bool "id right unit" true (Sim_rel.compose r Sim_rel.id == r);
  check_bool "id left unit" true (Sim_rel.compose Sim_rel.id r == r)

let test_sim_rel_compose_order () =
  let r1 = Sim_rel.of_table "r1" [ "a", `To "b" ] in
  let r2 = Sim_rel.of_table "r2" [ "b", `To "c" ] in
  let l = log_of [ ev 1 "a" ] in
  let out = Sim_rel.apply (Sim_rel.compose r1 r2) l in
  check_string "a->b->c" "c" (List.hd (Log.newest_first out)).Event.tag

let envs_for _i = [ Env_context.empty ]

let test_simulation_bump_ok () =
  match
    Simulation.check_progs r_bump ~tid:1 ~impl_layer:(under_layer ())
      ~impl:(Prog.Module.link (bump_module ()) (Prog.call bump2_tag [ vi 0 ]))
      ~spec_layer:(over_layer ()) ~spec:(Prog.call bump2_tag [ vi 0 ])
      ~envs:(envs_for 1)
  with
  | Ok r -> check_int "one env" 1 r.Simulation.envs_checked
  | Error f -> Alcotest.failf "unexpected: %a" Failure.pp f

let test_simulation_detects_wrong_impl () =
  (* a buggy bump2 that ticks only once: the relation leaves a lone tick,
     which the spec cannot produce *)
  let bad = Prog.Module.of_bodies [ bump2_tag, (fun args -> Prog.call "tick" args) ] in
  match
    Simulation.check_progs r_bump ~tid:1 ~impl_layer:(under_layer ())
      ~impl:(Prog.Module.link bad (Prog.call bump2_tag [ vi 0 ]))
      ~spec_layer:(over_layer ()) ~spec:(Prog.call bump2_tag [ vi 0 ])
      ~envs:(envs_for 1)
  with
  | Ok _ -> Alcotest.fail "buggy implementation passed"
  | Error _ -> ()

let test_simulation_detects_wrong_ret () =
  (* correct events but wrong result *)
  let bad =
    Prog.Module.of_bodies
      [ ( bump2_tag,
          fun args ->
            Prog.seq (Prog.call "tick" args)
              (Prog.seq (Prog.call "tick" args) (Prog.ret (vi 999))) ) ]
  in
  match
    Simulation.check_progs r_bump ~tid:1 ~impl_layer:(under_layer ())
      ~impl:(Prog.Module.link bad (Prog.call bump2_tag [ vi 0 ]))
      ~spec_layer:(over_layer ()) ~spec:(Prog.call bump2_tag [ vi 0 ])
      ~envs:(envs_for 1)
  with
  | Ok _ -> Alcotest.fail "wrong return value passed"
  | Error f ->
    check_bool "reason mentions return" true
      (String.length f.Failure.f_reason > 0)

let test_drive_runs_to_done () =
  let layer = under_layer () in
  let s = Machine.strategy_of_prog layer 1 (Prog.call "tick" [ vi 0 ]) in
  let d = Simulation.drive 1 s ~env:Env_context.empty ~init_log:Log.empty in
  check_bool "finished" true (d.Simulation.ret <> None);
  check_int "one event" 1 (Log.length d.Simulation.log)

let test_replay_against_env_injection () =
  (* the foreign event the environment injects before thread 1 moves is
     replayed to the spec as an environment move *)
  let layer = over_layer () in
  let env =
    Env_context.of_script "other" [ [ ev ~args:[ vi 0 ] ~ret:(vi 2) 2 bump2_tag ] ]
  in
  match
    Simulation.check_progs Sim_rel.id ~tid:1 ~impl_layer:layer
      ~impl:(Prog.call bump2_tag [ vi 0 ]) ~spec_layer:layer
      ~spec:(Prog.call bump2_tag [ vi 0 ]) ~envs:[ env ]
  with
  | Ok r -> check_int "one env" 1 r.Simulation.envs_checked
  | Error f -> Alcotest.failf "replay failed: %a" Failure.pp f

(* ---- calculus ---- *)

let fun_cert () =
  Calculus.fun_rule ~underlay:(under_layer ()) ~overlay:(over_layer ())
    ~impl:(bump_module ()) ~rel:r_bump ~focus:[ 1; 2 ]
    ~prim_tests:
      [ bump2_tag,
        [ Calculus.case [ vi 0 ];
          Calculus.case ~pre:[ bump2_tag, [ vi 0 ] ] [ vi 0 ] ] ]
    ~envs:envs_for ()

let test_fun_rule () =
  match fun_cert () with
  | Ok c ->
    check_int "4 obligations" 4 (List.length c.Calculus.evidence);
    check_bool "rule" true (c.Calculus.rule = Calculus.Fun)
  | Error e -> Alcotest.failf "fun rule failed: %a" Failure.pp e

let test_empty_rule () =
  let c = Calculus.empty_rule (under_layer ()) [ 1 ] in
  check_bool "same layers" true
    (String.equal c.Calculus.judgment.Calculus.underlay.Layer.name
       c.Calculus.judgment.Calculus.overlay.Layer.name)

let test_vcomp_name_mismatch () =
  let c = Calculus.empty_rule (under_layer ()) [ 1 ] in
  let c' = Calculus.empty_rule (over_layer ()) [ 1 ] in
  match Calculus.vcomp c c' with
  | Error f ->
    check_bool "a Vcomp failure" true
      (String.starts_with ~prefix:"Vcomp rule: layers do not stack" f.Failure.f_reason);
    check_string "a structural failure has no run" "" f.Failure.f_sched
  | Ok _ -> Alcotest.fail "expected layer mismatch"

let test_vcomp_ok () =
  let c = Calculus.empty_rule (under_layer ()) [ 1; 2 ] in
  match fun_cert () with
  | Error e -> Alcotest.failf "premise failed: %a" Failure.pp e
  | Ok c2 -> (
    match Calculus.vcomp c c2 with
    | Ok c3 ->
      check_bool "overlay is Lbump" true
        (String.equal c3.Calculus.judgment.Calculus.overlay.Layer.name "Lbump")
    | Error e -> Alcotest.failf "vcomp failed: %a" Failure.pp e)

let test_hcomp_focus_mismatch () =
  let c1 = Calculus.empty_rule (under_layer ()) [ 1 ] in
  let c2 = Calculus.empty_rule (under_layer ()) [ 2 ] in
  match Calculus.hcomp c1 c2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected focus mismatch"

let test_pcomp () =
  let mk focus =
    Calculus.fun_rule ~underlay:(under_layer ()) ~overlay:(over_layer ())
      ~impl:(bump_module ()) ~rel:r_bump ~focus
      ~prim_tests:[ bump2_tag, [ Calculus.case [ vi 0 ] ] ]
      ~envs:envs_for ()
  in
  match mk [ 1 ], mk [ 2 ] with
  | Ok c1, Ok c2 -> (
    match Calculus.pcomp c1 c2 ~compat_logs:[ Log.empty ] with
    | Ok c ->
      Alcotest.(check (list int)) "union focus" [ 1; 2 ] (Calculus.focus c)
    | Error e -> Alcotest.failf "pcomp failed: %a" Failure.pp e)
  | _ -> Alcotest.fail "premises failed"

let test_pcomp_overlap_rejected () =
  let c1 = Calculus.empty_rule (under_layer ()) [ 1; 2 ] in
  let c2 = Calculus.empty_rule (under_layer ()) [ 2; 3 ] in
  match Calculus.pcomp c1 c2 ~compat_logs:[] with
  | Error f ->
    check_string "a structural Pcomp failure"
      "failure: no run: Pcomp rule: focused thread sets are not disjoint"
      (Format.asprintf "%a" Failure.pp f)
  | Ok _ -> Alcotest.fail "overlapping focus accepted"

let test_compat_tested_implication () =
  let layer =
    {
      (under_layer ()) with
      Layer.rely =
        Rely_guarantee.make "even" (fun i l ->
            Log.count (fun (e : Event.t) -> e.src = i) l mod 2 = 0);
      guar = Rely_guarantee.make "false" (fun _ _ -> false);
    }
  in
  (* guarantee [never] vacuously implies anything *)
  match Calculus.compat layer ~a:[ 1 ] ~b:[ 2 ] ~logs:[ log_of [ ev 1 "tick" ] ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "vacuous compat failed: %a" Failure.pp f

let test_compat_failure () =
  let layer =
    {
      (under_layer ()) with
      Layer.rely = Rely_guarantee.make "false" (fun _ _ -> false);
      guar = Rely_guarantee.always;
    }
  in
  let breaking = log_of [ ev 1 "tick" ] in
  match Calculus.compat layer ~a:[ 1 ] ~b:[ 2 ] ~logs:[ Log.empty; breaking ] with
  | Error f ->
    (* the first corpus log already breaks the implication, for thread 1 *)
    check_string "names the corpus log"
      "failure: run corpus log 0, event 0: guarantee true of thread 1 does not \
       imply rely false"
      (Format.asprintf "%a" Failure.pp f);
    check_bool "carries the log" true (Log.equal Log.empty f.Failure.f_lower)
  | Ok _ -> Alcotest.fail "always => never should fail"

let test_count_checks () =
  match fun_cert () with
  | Ok c -> check_int "count" 4 (Calculus.count_checks c)
  | Error _ -> Alcotest.fail "premise failed"

(* ---- refinement ---- *)

let test_refinement_ok () =
  match fun_cert () with
  | Error e -> Alcotest.failf "premise failed: %a" Failure.pp e
  | Ok cert -> (
    let client _ =
      Prog.seq (Prog.call bump2_tag [ vi 0 ]) (Prog.call bump2_tag [ vi 0 ])
    in
    match
      refine_cert cert ~client ~scheds:(Sched.default_suite ~seeds:4)
    with
    | Ok r -> check_int "scheds" 5 r.Ccal_verify.Linearizability.runs
    | Error f -> Alcotest.failf "refinement failed: %a" Failure.pp f)

let test_refinement_catches_bad_module () =
  let bad = Prog.Module.of_bodies [ bump2_tag, (fun args -> Prog.call "tick" args) ] in
  match
    refine ~underlay:(under_layer ()) ~impl:bad
      ~overlay:(over_layer ()) ~rel:r_bump
      ~client:(fun _ -> Prog.call bump2_tag [ vi 0 ])
      ~tids:[ 1; 2 ] ~scheds:[ Sched.round_robin ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad module passed refinement"

let test_replay_multi_rejects_foreign_events () =
  let layer = over_layer () in
  let l = log_of [ ev ~args:[ vi 0 ] ~ret:(vi 2) 7 bump2_tag ] in
  match Refinement.replay_multi layer [ 1, Prog.ret_unit ] l with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown thread accepted"

let suite =
  [
    tc "sim_rel table" test_sim_rel_table;
    tc "sim_rel default drop" test_sim_rel_default_drop;
    tc "sim_rel compose id" test_sim_rel_compose_id;
    tc "sim_rel compose order" test_sim_rel_compose_order;
    tc "simulation bump ok" test_simulation_bump_ok;
    tc "simulation detects wrong impl" test_simulation_detects_wrong_impl;
    tc "simulation detects wrong ret" test_simulation_detects_wrong_ret;
    tc "drive runs to done" test_drive_runs_to_done;
    tc "spec replay accepts injected env events" test_replay_against_env_injection;
    tc "fun rule" test_fun_rule;
    tc "empty rule" test_empty_rule;
    tc "vcomp name mismatch" test_vcomp_name_mismatch;
    tc "vcomp ok" test_vcomp_ok;
    tc "hcomp focus mismatch" test_hcomp_focus_mismatch;
    tc "pcomp" test_pcomp;
    tc "pcomp overlap rejected" test_pcomp_overlap_rejected;
    tc "compat tested implication" test_compat_tested_implication;
    tc "compat failure" test_compat_failure;
    tc "count checks" test_count_checks;
    tc "refinement ok" test_refinement_ok;
    tc "refinement catches bad module" test_refinement_catches_bad_module;
    tc "replay_multi rejects foreign events" test_replay_multi_rejects_foreign_events;
  ]
