(* Tests for the extensions: the TSO store-buffer machine (the paper's
   future work, Sec. 6 Limitations), the reader-writer lock, and the
   remaining calculus rules (Wk, Hcomp, layer_sim). *)
open Ccal_core
open Ccal_objects
open Util
module Tso = Ccal_machine.Tso

(* ---- TSO machine ---- *)

let x_cell = 1
let y_cell = 2

(* The store-buffering litmus test (SB / Dekker). *)
let sb_thread ~fenced store load =
  Prog.seq
    (Prog.call "astore" [ vi store; vi 1 ])
    (Prog.seq
       (if fenced then Prog.call "mfence" [] else Prog.ret_unit)
       (Prog.bind (Prog.call "aload" [ vi load ]) (fun r -> Prog.ret r)))

let sb_outcomes ?memory layer ~fenced =
  let scheds = Ccal_verify.Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth:6 in
  let outcomes =
    behaviors ?memory layer
      [ 1, sb_thread ~fenced x_cell y_cell; 2, sb_thread ~fenced y_cell x_cell ]
      scheds
  in
  List.filter_map
    (fun (o : Game.outcome) ->
      match o.Game.status with
      | Game.All_done ->
        Some
          ( Value.to_int (List.assoc 1 o.Game.results),
            Value.to_int (List.assoc 2 o.Game.results) )
      | _ -> None)
    outcomes
  |> List.sort_uniq compare

let test_sb_sc_forbids_00 () =
  let outcomes = sb_outcomes (Ccal_machine.Mx86.layer ()) ~fenced:false in
  check_bool "(0,0) unreachable on SC" false (List.mem (0, 0) outcomes);
  check_bool "other outcomes reachable" true (List.length outcomes >= 2)

let test_sb_tso_allows_00 () =
  let outcomes = sb_outcomes ~memory:Memory.Tso (Tso.layer ()) ~fenced:false in
  check_bool "(0,0) reachable on TSO" true (List.mem (0, 0) outcomes)

let test_sb_tso_fenced_forbids_00 () =
  let outcomes = sb_outcomes ~memory:Memory.Tso (Tso.layer ()) ~fenced:true in
  check_bool "(0,0) gone with mfence" false (List.mem (0, 0) outcomes)

let test_store_forwarding () =
  (* a CPU reads its own buffered store before it commits *)
  let layer = Tso.layer () in
  let prog =
    Prog.seq
      (Prog.call "astore" [ vi 5; vi 42 ])
      (Prog.call "aload" [ vi 5 ])
  in
  check_int "forwarded" 42 (Value.to_int (expect_done layer prog))

let test_buffered_store_invisible () =
  (* another CPU does not see an uncommitted store *)
  let layer = Tso.layer () in
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.call "astore" [ vi 5; vi 9 ];
           2, Prog.call "aload" [ vi 5 ] ]
         (Sched.of_trace [ 1; 2 ]))
  in
  check_int "thread 2 reads 0" 0
    (Value.to_int (List.assoc 2 o.Game.results))

let test_rmw_drains () =
  let layer = Tso.layer () in
  let o =
    Game.run
      (Game.config layer
         [ 1,
           Prog.seq
             (Prog.call "astore" [ vi 5; vi 9 ])
             (Prog.call "faa" [ vi 6; vi 1 ]);
           2, Prog.ret_unit ]
         (Sched.of_trace [ 1; 1; 1 ]))
  in
  (* after the faa, the store to 5 has committed *)
  check_int "committed" 9
    (Result.get_ok (Tso.replay_memory 5 o.Game.log))

let test_replay_buffer () =
  let l =
    log_of
      [ ev ~args:[ vi 1; vi 5 ] 1 Tso.buf_store_tag;
        ev ~args:[ vi 2; vi 6 ] 1 Tso.buf_store_tag;
        ev ~args:[ vi 1; vi 5; vi 1 ] 1 Tso.commit_tag ]
  in
  (match Result.get_ok (Tso.replay_buffer 1 l) with
  | [ (2, 6) ] -> ()
  | _ -> Alcotest.fail "expected one pending store");
  (* commits must drain oldest-first *)
  let bad =
    log_of
      [ ev ~args:[ vi 1; vi 5 ] 1 Tso.buf_store_tag;
        ev ~args:[ vi 2; vi 6 ] 1 Tso.buf_store_tag;
        ev ~args:[ vi 2; vi 6; vi 1 ] 1 Tso.commit_tag ]
  in
  check_bool "out-of-order commit rejected" false
    (Replay.well_formed (Tso.replay_buffer 1) bad)

let test_sc_equivalence_locked_program () =
  (* a properly synchronised program (xchg-based test-and-set lock around
     the shared cell) behaves identically on TSO and SC *)
  let lock = 10 and data = 11 in
  let tas_round i =
    let rec spin () =
      Prog.bind (Prog.call "xchg" [ vi lock; vi 1 ]) (fun old ->
          if Value.to_int old = 0 then Prog.ret_unit else spin ())
    in
    Prog.seq (spin ())
      (Prog.bind (Prog.call "aload" [ vi data ]) (fun v ->
           Prog.seq
             (Prog.call "astore" [ vi data; vi (Value.to_int v + 1) ])
             (* release via xchg: a drained (fence-like) release keeps the
                comparison exact *)
             (Prog.seq (Prog.call "xchg" [ vi lock; vi 0 ]) (Prog.ret (vi i)))))
  in
  let threads = [ 1, tas_round 1; 2, tas_round 2 ] in
  match
    judge_all ~memory:Memory.Tso (Tso.layer ()) threads
      (Tso.judge_sc_equivalence threads)
      (Sched.default_suite ~seeds:8)
  with
  | Ok n -> check_int "all schedules equivalent" 9 n
  | Error f -> Alcotest.failf "%a" Failure.pp f

let test_erase_buffering_relation () =
  let l =
    log_of
      [ ev ~args:[ vi 1; vi 5 ] 1 Tso.buf_store_tag;
        ev ~args:[ vi 1; vi 5; vi 1 ] 1 Tso.commit_tag;
        ev 1 Tso.mfence_tag ]
  in
  let t = Tso.erase_buffering l in
  check_int "one astore left" 1 (Log.length t);
  check_string "renamed" "astore" (List.hd (Log.newest_first t)).Event.tag

(* ---- reader-writer lock ---- *)

let ar l = Prog.call "acq_r" [ vi l ]
let rr l = Prog.call "rel_r" [ vi l ]
let aw l = Prog.call "acq_w" [ vi l ]
let rw l = Prog.call "rel_w" [ vi l ]

let test_rw_overlay_semantics () =
  let layer = Rwlock.overlay () in
  (* two readers together, then a writer *)
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.seq_all [ ar 4; rr 4 ];
           2, Prog.seq_all [ ar 4; rr 4 ];
           3, Prog.seq_all [ aw 4; rw 4 ] ]
         (Sched.of_trace [ 1; 2; 3; 1; 2; 3; 3 ]))
  in
  check_bool "completes" true (Game.successful o);
  check_bool "no overlap" true (Rwlock.no_reader_writer_overlap o.Game.log)

let test_rw_writer_blocks_readers () =
  let layer = Rwlock.overlay () in
  let o =
    Game.run
      (Game.config layer
         [ 1, Prog.seq_all [ aw 4; aw 4 ] ]
         Sched.round_robin)
  in
  (* second acq_w by the same thread blocks: writer exclusion *)
  match o.Game.status with
  | Game.Deadlock [ 1 ] -> ()
  | s -> Alcotest.failf "expected deadlock, got %a" Game.pp_status s

let test_rw_replay_states () =
  let l4 = [ vi 4 ] in
  let l =
    log_of [ ev ~args:l4 1 "acq_r"; ev ~args:l4 2 "acq_r" ]
  in
  (match Result.get_ok (Rwlock.replay_rw 4 l) with
  | Rwlock.Readers 2 -> ()
  | _ -> Alcotest.fail "expected two readers");
  let l2 = Log.append (ev ~args:l4 3 "acq_w") l in
  check_bool "writer over readers invalid" false
    (Replay.well_formed (Rwlock.replay_rw 4) l2)

let test_rw_solo_roundtrip () =
  let layer = Rwlock.underlay () in
  let m = Rwlock.c_module () in
  let prog = Prog.Module.link m (Prog.seq_all [ ar 4; rr 4; aw 4; rw 4; ar 4; rr 4 ]) in
  check_bool "unit" true (Value.equal Value.unit (expect_done layer prog))

let test_rw_certify () =
  match Object_intf.certify Rwlock.recipe () with
  | Ok c -> check_bool "checks" true (Calculus.count_checks c >= 16)
  | Error e -> Alcotest.failf "%a" Failure.pp e

let test_rw_certify_asm () =
  match Object_intf.certify Rwlock.recipe ~focus:[ 1 ] ~use_asm:true () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Failure.pp e

let test_rw_translation () =
  let l4 = Value.int 4 in
  let l =
    log_of
      [ ev ~args:[ l4 ] ~ret:(vi 0) 1 "acq"; ev ~args:[ l4; vi 1 ] 1 "rel";  (* acq_r *)
        ev ~args:[ l4 ] ~ret:(vi 1) 2 "acq"; ev ~args:[ l4; vi 1 ] 2 "rel";  (* failed acq_w *)
        ev ~args:[ l4 ] ~ret:(vi 1) 1 "acq"; ev ~args:[ l4; vi 0 ] 1 "rel";  (* rel_r *)
        ev ~args:[ l4 ] ~ret:(vi 0) 2 "acq"; ev ~args:[ l4; vi (-1) ] 2 "rel" ]  (* acq_w *)
  in
  let t = Sim_rel.apply Rwlock.r_rw l in
  Alcotest.(check (list string))
    "events" [ "acq_r"; "rel_r"; "acq_w" ]
    (List.map (fun (e : Event.t) -> e.tag) (Log.chronological t))

let test_rw_refinement () =
  match Object_intf.certify Rwlock.recipe ~focus:[ 1; 2 ] () with
  | Error e -> Alcotest.failf "%a" Failure.pp e
  | Ok cert -> (
    let client i =
      if i = 1 then Prog.seq_all [ ar 4; rr 4; ar 4; rr 4; Prog.ret (vi 1) ]
      else Prog.seq_all [ aw 4; rw 4; Prog.ret (vi 2) ]
    in
    match
      refine_cert cert ~client ~scheds:(Sched.default_suite ~seeds:6)
    with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "%a" Failure.pp f)

let prop_rw_no_overlap =
  qtc ~count:25 "readers and writers never overlap" QCheck.(int_range 1 3_000)
    (fun seed ->
      let layer = Rwlock.underlay () in
      let m = Rwlock.c_module () in
      let reader = Prog.Module.link m (Prog.seq_all [ ar 4; rr 4 ]) in
      let writer = Prog.Module.link m (Prog.seq_all [ aw 4; rw 4 ]) in
      let o =
        Game.run
          (Game.config ~max_steps:200_000 layer
             [ 1, reader; 2, reader; 3, writer ]
             (Sched.random ~seed))
      in
      Game.successful o
      && Rwlock.no_reader_writer_overlap (Sim_rel.apply Rwlock.r_rw o.Game.log))

(* ---- remaining calculus rules: layer_sim and Wk ---- *)

let test_layer_sim_and_wk () =
  (* weaken the ticket-lock certificate to an interface with a looser
     definite-release bound: Llock(32) |- M : Llock(32), lifted to
     Llock(128) via Wk with an identity-relation layer simulation *)
  let tight = Lock_intf.layer ~bound:32 "Llock" in
  let loose = Lock_intf.layer ~bound:128 "Llock_loose" in
  let envs _ = [ Env_context.empty ] in
  let tests : Calculus.prim_tests =
    [ "acq", [ Calculus.case [ vi 0 ] ];
      "rel", [ Calculus.case ~pre:[ "acq", [ vi 0 ] ] [ vi 0; vi 1 ] ] ]
  in
  match
    Calculus.check_layer_sim ~lower:tight ~upper:loose ~rel:Sim_rel.id
      ~focus:[ 1; 2 ] ~prim_tests:tests ~envs ()
  with
  | Error e -> Alcotest.failf "layer_sim failed: %a" Failure.pp e
  | Ok up_sim -> (
    (* a certificate targeting the tight interface *)
    let cert =
      Object_intf.certify { Ticket_lock.recipe with overlay = tight } ()
      |> Result.get_ok
    in
    let low_sim = Calculus.layer_sim_id (Ticket_lock.l0 ()) [ 1; 2 ] in
    match Calculus.wk low_sim cert up_sim with
    | Ok weakened ->
      check_bool "overlay weakened" true
        (String.equal weakened.Calculus.judgment.Calculus.overlay.Layer.name
           "Llock_loose");
      check_bool "rule is Wk" true (weakened.Calculus.rule = Calculus.Wk)
    | Error e -> Alcotest.failf "wk failed: %a" Failure.pp e)

let test_hcomp_independent_objects () =
  (* two independent counter objects over the same interface compose
     horizontally into one layer *)
  let under = counter_layer () in
  let over_a =
    Layer.make "La"
      [ Layer.event_prim "double_tick" (fun c args log ->
            ignore c;
            match args with
            | [ Value.Vint id ] ->
              Ok (vi (2 * (Log.count (fun (e : Event.t) ->
                   String.equal e.tag "double_tick" && e.args = [ vi id ] && e.src = c) log + 1)))
            | _ -> Error "bad args") ]
  in
  let over_b =
    Layer.make "Lb"
      [ Layer.event_prim "stashed_tick" (fun _ _ _ -> Ok Value.unit) ]
  in
  let m_a =
    Prog.Module.of_bodies
      [ ( "double_tick",
          fun args -> Prog.seq (Prog.call "tick" args) (Prog.call "tick" args) ) ]
  in
  let m_b =
    Prog.Module.of_bodies
      [ ( "stashed_tick",
          fun _ ->
            Prog.seq (Prog.call "stash" [ vi 1 ])
              (Prog.seq (Prog.call "tick" [ vi 9 ]) Prog.ret_unit) ) ]
  in
  let r =
    Sim_rel.of_log_fn "R_h" (fun log ->
        (* per-thread: pair ticks on ids other than 9 into double_tick;
           rename tick(9) to stashed_tick *)
        let step (firsts, out) (e : Event.t) =
          if String.equal e.tag "tick" then
            if e.args = [ vi 9 ] then
              firsts, Event.make e.src "stashed_tick" :: out
            else
              match List.assoc_opt e.src firsts with
              | None -> (e.src, e) :: firsts, out
              | Some _ ->
                List.remove_assoc e.src firsts,
                { e with Event.tag = "double_tick" } :: out
          else firsts, e :: out
        in
        let _, out = List.fold_left step ([], []) (Log.chronological log) in
        Log.append_all (List.rev out) Log.empty)
  in
  let envs _ = [ Env_context.empty ] in
  let certify over m tests =
    Calculus.fun_rule ~underlay:under ~overlay:over ~impl:m ~rel:r
      ~focus:[ 1 ] ~prim_tests:tests ~envs ()
  in
  match
    ( certify over_a m_a [ "double_tick", [ Calculus.case [ vi 0 ] ] ],
      certify over_b m_b [ "stashed_tick", [ Calculus.case [] ] ] )
  with
  | Ok ca, Ok cb -> (
    match Calculus.hcomp ca cb with
    | Ok c ->
      check_bool "merged overlay has both prims" true
        (Layer.has_prim "double_tick" c.Calculus.judgment.Calculus.overlay
        && Layer.has_prim "stashed_tick" c.Calculus.judgment.Calculus.overlay);
      check_bool "merged module has both" true
        (List.length (Prog.Module.names c.Calculus.judgment.Calculus.impl) = 2)
    | Error e -> Alcotest.failf "hcomp failed: %a" Failure.pp e)
  | Error e, _ | _, Error e -> Alcotest.failf "premise failed: %a" Failure.pp e

let suite =
  [
    tc "SB litmus: SC forbids (0,0)" test_sb_sc_forbids_00;
    tc "SB litmus: TSO allows (0,0)" test_sb_tso_allows_00;
    tc "SB litmus: fenced TSO forbids (0,0)" test_sb_tso_fenced_forbids_00;
    tc "TSO store forwarding" test_store_forwarding;
    tc "TSO buffered store invisible" test_buffered_store_invisible;
    tc "TSO rmw drains" test_rmw_drains;
    tc "TSO replay buffer FIFO" test_replay_buffer;
    tc "TSO = SC for locked programs" test_sc_equivalence_locked_program;
    tc "TSO erase-buffering" test_erase_buffering_relation;
    tc "rwlock overlay semantics" test_rw_overlay_semantics;
    tc "rwlock writer exclusion" test_rw_writer_blocks_readers;
    tc "rwlock replay states" test_rw_replay_states;
    tc "rwlock solo roundtrip" test_rw_solo_roundtrip;
    tc "rwlock certify" test_rw_certify;
    tc "rwlock certify (asm)" test_rw_certify_asm;
    tc "rwlock translation" test_rw_translation;
    tc "rwlock refinement" test_rw_refinement;
    prop_rw_no_overlap;
    tc "layer_sim + Wk (interface weakening)" test_layer_sim_and_wk;
    tc "hcomp of independent objects" test_hcomp_independent_objects;
  ]
