(* Cross-cutting invariants: relation algebra, guarantee checking in
   games, refinement options, and miscellaneous totality properties. *)
open Ccal_core
open Ccal_objects
open Util

let event_gen =
  QCheck.Gen.(
    let* src = int_range 1 4 in
    let* tag = oneofl [ "FAI_t"; "get_n"; "inc_n"; "pull"; "push"; "other" ] in
    let* b = int_range 0 2 in
    return (Event.make ~args:[ Value.int b ] src tag))
  |> QCheck.make

let log_gen =
  QCheck.map
    (fun evs -> log_of evs)
    (QCheck.list_of_size (QCheck.Gen.int_range 0 25) event_gen)

(* relation algebra *)

let prop_compose_assoc =
  qtc "sim_rel composition associative" log_gen (fun l ->
      let r1 = Sim_rel.of_table "r1" [ "FAI_t", `Drop ] in
      let r2 = Sim_rel.of_table "r2" [ "pull", `To "acq" ] in
      let r3 = Sim_rel.of_table "r3" [ "acq", `To "enter" ] in
      Log.equal
        (Sim_rel.apply (Sim_rel.compose (Sim_rel.compose r1 r2) r3) l)
        (Sim_rel.apply (Sim_rel.compose r1 (Sim_rel.compose r2 r3)) l))

let prop_id_unit =
  qtc "id is a unit for composition" log_gen (fun l ->
      let r = Sim_rel.of_table "r" [ "get_n", `Drop ] in
      Log.equal
        (Sim_rel.apply (Sim_rel.compose Sim_rel.id r) l)
        (Sim_rel.apply (Sim_rel.compose r Sim_rel.id) l))

let prop_related_iff_apply =
  qtc "related = equality after apply" log_gen (fun l ->
      let r = Ticket_lock.r_ticket in
      Sim_rel.related r l (Sim_rel.apply r l))

(* replay totality: the ticket replay never raises on arbitrary logs *)

let prop_ticket_replay_total =
  qtc "Rticket total" log_gen (fun l ->
      match Ticket_lock.replay_ticket 0 l with
      | Ok st -> st.Ticket_lock.next >= 0 && st.Ticket_lock.serving >= 0
      | Error _ -> true)

let prop_sched_replay_never_raises =
  qtc "Rsched returns, never raises" log_gen (fun l ->
      let placement = [ 1, 0; 2, 0; 3, 1; 4, 1 ] in
      match Thread_sched.replay_sched placement l with
      | Ok _ | Error _ -> true)

(* guarantee checking inside games *)

let test_game_check_guar_flags_violation () =
  (* a guarantee that forbids more than one event per thread *)
  let base = counter_layer () in
  let layer =
    Layer.with_conditions ~rely:Rely_guarantee.always
      ~guar:
        (Rely_guarantee.make "one-shot" (fun i l ->
             Log.count (fun (e : Event.t) -> e.src = i) l <= 1))
      base
  in
  let prog = Prog.seq (Prog.call "tick" [ vi 0 ]) (Prog.call "tick" [ vi 0 ]) in
  let o = Game.run (Game.config ~check_guar:true layer [ 1, prog ] Sched.round_robin) in
  check_bool "violation recorded" true (o.Game.guar_violations <> []);
  check_bool "not successful" false (Game.successful o)

let test_game_check_guar_clean () =
  let layer = counter_layer () in
  let o =
    Game.run
      (Game.config ~check_guar:true layer [ 1, Prog.call "tick" [ vi 0 ] ]
         Sched.round_robin)
  in
  check_bool "no violations" true (o.Game.guar_violations = [])

(* lock guarantee holds along every certified run *)

let prop_ticket_guarantee_holds =
  qtc ~count:25 "atomic lock condition holds on translated runs"
    QCheck.(int_range 1 2_000) (fun seed ->
      let layer = Ticket_lock.l0 () in
      let m = Ticket_lock.c_module () in
      let client i =
        Prog.Module.link m
          (Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
               Prog.call "rel" [ vi 0; Value.int (Value.to_int v + i) ]))
      in
      let o =
        Game.run (Game.config layer [ 1, client 1; 2, client 2 ] (Sched.random ~seed))
      in
      let t = Sim_rel.apply Ticket_lock.r_ticket o.Game.log in
      let cond = Lock_intf.condition () in
      Rely_guarantee.holds_for_all cond [ 1; 2 ] t)

(* refinement with expect_all_done:false tolerates partial runs *)

let test_refinement_partial_runs () =
  let layer = Lock_intf.layer "L" in
  (* client 2 blocks forever on a lock client 1 holds and never releases *)
  let client i =
    if i = 1 then Prog.call "acq" [ vi 0 ]
    else Prog.call "acq" [ vi 0 ]
  in
  match
    refine ~expect_all_done:false ~underlay:layer
      ~impl:Prog.Module.empty ~overlay:layer ~rel:Sim_rel.id ~client
      ~tids:[ 1; 2 ] ~scheds:[ Sched.round_robin ] ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%a" Refinement.pp_failure f

let test_refinement_strict_rejects_deadlock () =
  let layer = Lock_intf.layer "L" in
  let client _ = Prog.seq (Prog.call "acq" [ vi 0 ]) (Prog.call "acq" [ vi 0 ]) in
  match
    refine ~underlay:layer ~impl:Prog.Module.empty ~overlay:layer
      ~rel:Sim_rel.id ~client ~tids:[ 1 ] ~scheds:[ Sched.round_robin ] ()
  with
  | Error f ->
    check_bool "mentions incompletion" true
      (String.length f.Refinement.reason > 0)
  | Ok _ -> Alcotest.fail "self-deadlock accepted under strict mode"

(* module inspection *)

let test_module_find_names () =
  let m = Ticket_lock.c_module () in
  Alcotest.(check (list string)) "names" [ "acq"; "rel" ] (Prog.Module.names m);
  check_bool "find" true (Prog.Module.find "acq" m <> None);
  check_bool "find missing" true (Prog.Module.find "zzz" m = None)

(* value projections raise cleanly *)

let test_value_projection_errors () =
  let raises f = try ignore (f ()); false with Value.Type_error _ -> true in
  check_bool "to_pair of int" true (raises (fun () -> Value.to_pair (vi 1)));
  check_bool "to_list of int" true (raises (fun () -> Value.to_list (vi 1)));
  check_bool "to_bool of list" true
    (raises (fun () -> Value.to_bool (Value.list [])))

(* memory algebra: compose_many rejects conflicts *)

let test_compose_many_conflict () =
  let module M = Ccal_compcertx.Mem_algebra in
  let m1, _ = M.alloc M.empty 0 2 in
  let m2, _ = M.alloc M.empty 0 2 in
  check_bool "conflict" true (M.compose_many [ m1; m2 ] = None)

let suite =
  [
    prop_compose_assoc;
    prop_id_unit;
    prop_related_iff_apply;
    prop_ticket_replay_total;
    prop_sched_replay_never_raises;
    tc "game check_guar flags violation" test_game_check_guar_flags_violation;
    tc "game check_guar clean" test_game_check_guar_clean;
    prop_ticket_guarantee_holds;
    tc "refinement tolerates partial runs" test_refinement_partial_runs;
    tc "refinement strict rejects deadlock" test_refinement_strict_rejects_deadlock;
    tc "module find/names" test_module_find_names;
    tc "value projection errors" test_value_projection_errors;
    tc "compose_many conflict" test_compose_many_conflict;
  ]
