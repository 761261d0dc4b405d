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
    {
      base with
      Layer.rely = Rely_guarantee.always;
      guar =
        Rely_guarantee.make "one-shot" (fun i l ->
            Log.count (fun (e : Event.t) -> e.src = i) l <= 1);
    }
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
      List.for_all (fun i -> cond.Rely_guarantee.holds i t) [ 1; 2 ])

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
  | Error f -> Alcotest.failf "%a" Failure.pp f

let test_refinement_strict_rejects_deadlock () =
  let layer = Lock_intf.layer "L" in
  let client _ = Prog.seq (Prog.call "acq" [ vi 0 ]) (Prog.call "acq" [ vi 0 ]) in
  match
    refine ~underlay:layer ~impl:Prog.Module.empty ~overlay:layer
      ~rel:Sim_rel.id ~client ~tids:[ 1 ] ~scheds:[ Sched.round_robin ] ()
  with
  | Error f ->
    check_bool "mentions incompletion" true
      (String.length f.Failure.f_reason > 0)
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
  check_bool "to_int of list" true (raises (fun () -> Value.to_int (Value.list [])));
  check_bool "to_list of int" true (raises (fun () -> Value.to_list (vi 1)))

(* memory algebra: a conflict refuses composition in either order *)

let test_compose_conflict_symmetric () =
  let module M = Ccal_compcertx.Mem_algebra in
  let m1, _ = M.alloc M.empty 0 2 in
  let m2, _ = M.alloc M.empty 0 2 in
  check_bool "m1 * m2" true (M.compose m1 m2 = None);
  check_bool "m2 * m1" true (M.compose m2 m1 = None);
  let m2', _ = M.alloc (M.liftnb M.empty 1) 0 2 in
  check_bool "a placeholder lifts the conflict" true
    (match M.compose m1 m2', M.compose m2' m1 with
     | Some a, Some b -> M.equal a b
     | _ -> false)

(* Golden certificate evidence: every object certificate [ccal verify]
   builds, and the lock certificates of the stack, pinned by a digest of
   their evidence lines (each Fun obligation reads "N envs, M moves"),
   taken recursively through the premises.  A recipe that builds one
   environment context more or fewer changes a line and fails here. *)

let rec evidence_lines (c : Calculus.cert) =
  c.Calculus.evidence @ List.concat_map evidence_lines c.Calculus.premises

let golden_certs () =
  let cert ?memory ?placement ?focus recipe () =
    Object_intf.certify recipe ?memory ?placement ?focus ()
  in
  let tso = Memory.Tso in
  [
    "ticket", cert Ticket_lock.recipe;
    "mcs", cert Mcs_lock.recipe;
    "local-queue", cert Queue_local.recipe;
    "shared-queue", cert Queue_shared.recipe;
    "queue-stack", (fun () -> Queue_shared.full_stack_certify ());
    "queue-stack tso", (fun () -> Queue_shared.full_stack_certify ~memory:tso ());
    "qlock", cert Qlock.recipe;
    "ipc", cert Ipc.recipe;
    "ipc stack placement", cert Ipc.recipe ~placement:[ 1, 1; 2, 2; 9, 9 ];
    "rwlock", cert Rwlock.recipe;
    (* siblings on the focused CPU, and focused threads that are also
       rivals: the context groups shrink *)
    "qlock siblings", cert Qlock.recipe ~placement:[ 1, 0; 2, 0; 8, 8; 9, 9 ];
    "qlock focus 9", cert Qlock.recipe ~focus:[ 9 ];
    "shared-queue focus 9", cert Queue_shared.recipe ~focus:[ 9 ];
    "rwlock focus 9", cert Rwlock.recipe ~focus:[ 9 ];
    "ticket sc 9", cert Ticket_lock.recipe ~focus:[ 9 ];
    (* the stack's lock certificates *)
    "ticket sc 1", cert Ticket_lock.recipe ~focus:[ 1 ];
    "ticket sc 2", cert Ticket_lock.recipe ~focus:[ 2 ];
    "ticket tso 12", cert Ticket_lock.recipe ~memory:tso;
    "ticket tso 1", cert Ticket_lock.recipe ~memory:tso ~focus:[ 1 ];
    "ticket tso 2", cert Ticket_lock.recipe ~memory:tso ~focus:[ 2 ];
    "mcs sc 1", cert Mcs_lock.recipe ~focus:[ 1 ];
    "mcs sc 2", cert Mcs_lock.recipe ~focus:[ 2 ];
    "mcs tso 12", cert Mcs_lock.recipe ~memory:tso;
    "mcs tso 1", cert Mcs_lock.recipe ~memory:tso ~focus:[ 1 ];
    "mcs tso 2", cert Mcs_lock.recipe ~memory:tso ~focus:[ 2 ];
  ]

let golden_evidence =
  [
    "ticket", "45d76e51af5277b528a9a68244451115";
    "mcs", "38bfe8d4bb0653184af894cf78cbfa3e";
    "local-queue", "4f57fe8be123702da7a14c2bcfaf9d91";
    "shared-queue", "b566660960ce098f73fdef4fa7e816e8";
    "queue-stack", "785c4a6e9b45d079a308736180ebc58a";
    "queue-stack tso", "785c4a6e9b45d079a308736180ebc58a";
    "qlock", "170118f43d10825e2088e6e2f2bf0736";
    "ipc", "9b2fe4bc5e05571021cd5ec571a13b36";
    "ipc stack placement", "9b2fe4bc5e05571021cd5ec571a13b36";
    "rwlock", "854ab9ef76e2d4b81363b881332bca1a";
    "qlock siblings", "170118f43d10825e2088e6e2f2bf0736";
    "qlock focus 9", "485ac7cd3dabab36ba471dde232ac7ff";
    "shared-queue focus 9", "3aeafd669cda24325207901aa2c241c9";
    "rwlock focus 9", "dd11b12a557203e2544ddd56d87aa55f";
    "ticket sc 9", "7ee673a31b86147830994c2762425e90";
    "ticket sc 1", "05fbb9fe6939239b6035deb45d333d2b";
    "ticket sc 2", "79b2856feadc3745f1296788010458d3";
    "ticket tso 12", "45d76e51af5277b528a9a68244451115";
    "ticket tso 1", "05fbb9fe6939239b6035deb45d333d2b";
    "ticket tso 2", "79b2856feadc3745f1296788010458d3";
    "mcs sc 1", "2f04ba8e6c64e779c4a086992500774e";
    "mcs sc 2", "2610bc89be4e61e25bc5959e3f60974b";
    "mcs tso 12", "d8e630b10bebafc38b1850fb956f0a05";
    "mcs tso 1", "927189620d2605846a5031c98a855eaf";
    "mcs tso 2", "3d4aa9b13a9b0048dada53f5fb8a67e4";
  ]

let test_golden_evidence () =
  let digests =
    List.map
      (fun (name, certify) ->
        match certify () with
        | Error e -> Alcotest.failf "%s: %a" name Failure.pp e
        | Ok c ->
          ( name,
            Digest.to_hex
              (Digest.string (String.concat "\n" (evidence_lines c))) ))
      (golden_certs ())
  in
  Alcotest.(check (list (pair string string)))
    "evidence digests" golden_evidence digests

let suite =
  [
    tc "golden certificate evidence" test_golden_evidence;
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
    tc "compose conflict is symmetric" test_compose_conflict_symmetric;
  ]
