(* Crash-safe layers (DESIGN.md S30): the async-disk machine, the
   write-ahead log object, the durable KV edge, the synthesized crash
   pseudo-thread, and the crash-refinement certifier — including the
   deliberately unsynced WAL variant, which must fail with a stable
   named crash point. *)

open Ccal_core
open Ccal_verify
open Ccal_disk
open Util

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)
(* ------------------------------------------------------------------ *)

let d_write p v = Prog.call Disk.write_tag [ vi p; v ]
let d_read p = Prog.call "d_read" [ vi p ]
let d_sync = Prog.call Disk.sync_tag []

let run_game ?(max_steps = 10_000) ?(sched = Sched.round_robin) layer threads =
  Game.run (Game.config ~max_steps layer threads sched)

let disk_state log =
  match Disk.replay_log log with
  | Ok st -> st
  | Error msg -> Alcotest.failf "disk replay: %s" msg

let expect_all_done (o : Game.outcome) =
  match o.Game.status with
  | Game.All_done -> ()
  | s -> Alcotest.failf "game did not finish: %a" Game.pp_status s

(* What a never-written page reads as. *)
let unwritten = vi 0

(* The platter image of [v] written and torn by a crash. *)
let torn v =
  let st = disk_state (run_game (Disk.layer ()) [ 1, d_write 1 v ]).Game.log in
  Option.get (Disk.durable_page (Disk.crash_commit ~keep:1 ~tear:1 st) 1)

(* The WAL edge's log accounting: appended records, acknowledged LSN,
   recovery of a crashed prefix. *)
let wal = Wal.crash_edge ()

(* ------------------------------------------------------------------ *)
(* the async-disk machine                                              *)
(* ------------------------------------------------------------------ *)

let test_disk_write_read_sync () =
  (* an unsynced write is visible to reads but not durable *)
  let o =
    run_game (Disk.layer ())
      [ 1, Prog.seq (d_write 1 (vi 7)) (d_read 1) ]
  in
  expect_all_done o;
  Alcotest.check value_testable "read sees the in-flight write"
    (vi 7)
    (List.assoc 1 o.Game.results);
  let st = disk_state o.Game.log in
  check_int "one write in flight" 1 (List.length (Disk.inflight st));
  check_bool "nothing durable yet" true (Disk.durable_page st 1 = None);
  (* sync group-commits it *)
  let o =
    run_game (Disk.layer ())
      [ 1, Prog.seq (d_write 1 (vi 7)) (Prog.seq d_sync (d_read 1)) ]
  in
  expect_all_done o;
  let st = disk_state o.Game.log in
  check_int "in-flight drained" 0 (List.length (Disk.inflight st));
  Alcotest.check value_testable "page durable after sync"
    (vi 7)
    (Option.value (Disk.durable_page st 1) ~default:unwritten)

let test_disk_unwritten_page () =
  let o = run_game (Disk.layer ()) [ 1, d_read 9 ] in
  expect_all_done o;
  Alcotest.check value_testable "unwritten page reads as Vint 0"
    unwritten
    (List.assoc 1 o.Game.results)

let test_disk_crash_commit_masks () =
  (* two writes in flight; the crash masks pick them off bit by bit *)
  let o =
    run_game (Disk.layer ())
      [ 1, Prog.seq (d_write 1 (vi 10)) (d_write 2 (vi 20)) ]
  in
  expect_all_done o;
  let st = disk_state o.Game.log in
  check_int "two in flight" 2 (List.length (Disk.inflight st));
  (* keep only the older write *)
  let c = Disk.crash_commit ~keep:0b01 ~tear:0 st in
  check_bool "crashed" true c.Disk.crashed;
  Alcotest.check value_testable "bit 0 committed" (vi 10)
    (Option.value (Disk.durable_page c 1) ~default:unwritten);
  check_bool "bit 1 dropped" true (Disk.durable_page c 2 = None);
  check_int "nothing left in flight" 0 (List.length (Disk.inflight c));
  (* keep both, tearing the newer one *)
  let c = Disk.crash_commit ~keep:0b11 ~tear:0b10 st in
  Alcotest.check value_testable "bit 0 intact" (vi 10)
    (Option.value (Disk.durable_page c 1) ~default:unwritten);
  check_bool "bit 1 torn" true
    (Disk.durable_page c 2 = Some (torn (vi 20)));
  check_bool "a torn page is not its value" true (torn (vi 20) <> vi 20);
  (* keep-all without tearing = what a sync would have done *)
  let c = Disk.crash_commit ~keep:(Durability.all_keep 2) ~tear:0 st in
  check_bool "all-keep commits both" true
    (Disk.durable_page c 1 = Some (vi 10) && Disk.durable_page c 2 = Some (vi 20))

let test_disk_crash_halts_real_threads () =
  (* with the crash primitive exported, the crash pseudo-thread's move is
     schedulable: some interleavings lose the unsynced writes, and a
     post-crash machine never completes a real thread's disk call *)
  let layer = Disk.layer ~crashes:true () in
  let threads = [ 1, Prog.seq (d_write 1 (vi 5)) (d_read 1) ] in
  let scheds =
    Explore.exhaustive_scheds ~tids:[ 1; Durability.crash_tid ] ~depth:4
  in
  let outcomes = List.map (fun s -> run_game ~sched:s layer threads) scheds in
  (* the crash thread's move is always eventually schedulable, so every
     play crashes — what varies is whether the real thread got its read
     in first *)
  let cut_short, completed =
    List.partition
      (fun (o : Game.outcome) -> not (List.mem_assoc 1 o.Game.results))
      outcomes
  in
  check_bool "some schedule crashes before the read" true (cut_short <> []);
  check_bool "some schedule lets the thread finish first" true (completed <> []);
  List.iter
    (fun (o : Game.outcome) ->
      let st = disk_state o.Game.log in
      check_bool "machine crashed" true st.Disk.crashed;
      (* the in-game crash keeps nothing: a write still in flight at the
         crash is gone from the platter, never torn *)
      check_bool "post-crash platter holds no torn page" true
        (Disk.durable_page st 1 <> Some (torn (vi 5)));
      (* a post-crash machine never completes a real thread's disk call *)
      match o.Game.status with
      | Game.Deadlock tids -> check_bool "real thread blocked" true (List.mem 1 tids)
      | s -> Alcotest.failf "cut-short game ended oddly: %a" Game.pp_status s)
    cut_short

(* ------------------------------------------------------------------ *)
(* pseudo-thread synthesis (the Game.pseudo_threads satellite)         *)
(* ------------------------------------------------------------------ *)

let test_pseudo_thread_tids_disjoint () =
  let threads = List.init 3 (fun k -> (k + 1, Prog.ret Value.unit)) in
  (* crash-enabled disk layer under SC: exactly the crash thread *)
  let crash_only =
    Game.pseudo_threads ~memory:Memory.Sc (Disk.layer ~crashes:true ()) threads
  in
  Alcotest.(check (list int)) "crash thread at -1"
    [ Durability.crash_tid ] (List.map fst crash_only);
  (* TSO machine layer: one flusher per real thread, none at -1 *)
  let flushers =
    Game.pseudo_threads ~memory:Memory.Tso
      (Ccal_machine.Tso.machine_layer Memory.Tso)
      threads
  in
  let tids = List.map fst flushers in
  check_int "one flusher per cpu" 3 (List.length tids);
  List.iter
    (fun t ->
      check_bool "flusher tid negative" true (t < 0);
      check_bool "flusher tid leaves -1 to the crash thread" true
        (t <> Durability.crash_tid))
    tids;
  check_int "flusher tids distinct" 3
    (List.length (List.sort_uniq compare tids));
  (* crash-free layers synthesize nothing *)
  Alcotest.(check (list int)) "no pseudo-threads without the prims" []
    (List.map fst (Game.pseudo_threads ~memory:Memory.Sc (Disk.layer ()) threads))

let test_pseudo_thread_collision_rejected () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "negative real tid" (fun () ->
      Game.pseudo_threads ~memory:Memory.Sc
        (Disk.layer ~crashes:true ())
        [ (Durability.crash_tid, Prog.ret Value.unit) ])

(* ------------------------------------------------------------------ *)
(* WAL records and recovery                                            *)
(* ------------------------------------------------------------------ *)

let op lsn key value = { Wal.lsn; key; value }

let recover_of pages = Wal.recover (Disk.of_durable pages)

let test_wal_record_roundtrip () =
  let o = op 1 7 42 in
  let page v = recover_of [ 1, v ] in
  check_bool "recovery decodes a record" true (page (Wal.record o) = [ o ]);
  check_bool "garbage rejected" true (page (vi 99) = []);
  check_bool "torn record rejected" true (page (torn (Wal.record o)) = []);
  (* flip the value without fixing the checksum *)
  let forged =
    match Value.to_list (Wal.record o) with
    | [ lsn; key; _; checksum ] -> Value.list [ lsn; key; vi 43; checksum ]
    | _ -> Alcotest.fail "a record is four fields"
  in
  check_bool "checksum mismatch rejected" true (page forged = []);
  check_bool "lsn 0 rejected" true
    (page (Wal.record (op 0 1 2)) = [])

let test_wal_recover_truncates () =
  let r n = Wal.record (op n n (10 * n)) in
  Alcotest.(check int) "clean platter recovers everything" 3
    (List.length (recover_of [ 1, r 1; 2, r 2; 3, r 3 ]));
  (* a torn middle record truncates the scan — the valid tail is dead *)
  check_bool "torn page truncates" true
    (recover_of [ 1, r 1; 2, torn (r 2); 3, r 3 ] = [ op 1 1 10 ]);
  (* a hole truncates *)
  check_bool "missing page truncates" true
    (recover_of [ 1, r 1; 3, r 3 ] = [ op 1 1 10 ]);
  (* an out-of-sequence lsn truncates *)
  check_bool "out-of-sequence lsn truncates" true
    (recover_of [ 1, r 1; 2, Wal.record (op 5 2 20) ] = [ op 1 1 10 ]);
  check_bool "empty platter recovers nothing" true (recover_of [] = [])

let test_wal_append_sync_roundtrip () =
  (* one thread appends around a sync; the replayed platter holds exactly
     the synced prefix, and recovery reads it back *)
  let modul = Wal.module_ () in
  let prog =
    Prog.seq_all
      [ Prog.call Wal.append_tag [ vi 4; vi 44 ];
        Prog.call Wal.sync_tag [];
        Prog.call Wal.append_tag [ vi 5; vi 55 ] ]
  in
  let o = run_game (Wal.underlay ()) [ 1, Prog.Module.link modul prog ] in
  expect_all_done o;
  check_bool "both appends visible in the log" true
    (wal.Crash.appended o.Game.log = [ op 1 4 44; op 2 5 55 ]);
  check_int "sync acknowledged lsn 1" 1 (wal.Crash.acked o.Game.log);
  let st = disk_state o.Game.log in
  check_bool "recovery without the in-flight tail" true
    (Wal.recover st = [ op 1 4 44 ]);
  check_bool "drop-all crash still keeps the synced prefix" true
    (wal.Crash.recover o.Game.log ~keep:0 ~tear:0 = Ok [ op 1 4 44 ]);
  check_bool "keep-all crash recovers both" true
    (wal.Crash.recover o.Game.log ~keep:(Durability.all_keep 1) ~tear:0
     = Ok [ op 1 4 44; op 2 5 55 ])

(* ------------------------------------------------------------------ *)
(* the durable KV edge                                                 *)
(* ------------------------------------------------------------------ *)

let test_durable_kv_solo () =
  let modul = Durable_kv.module_ () in
  let prog =
    Prog.bind (Prog.call Durable_kv.put_tag [ vi 1; vi 5 ]) (fun _ ->
        Prog.call Durable_kv.get_tag [ vi 1 ])
  in
  let o = run_game (Durable_kv.underlay ()) [ 1, Prog.Module.link modul prog ] in
  expect_all_done o;
  Alcotest.check value_testable "get reads the put back" (vi 5)
    (List.assoc 1 o.Game.results);
  (* the put was logged before it was applied: it is in the WAL *)
  check_bool "mutation logged in the WAL" true
    (wal.Crash.appended o.Game.log = [ op 1 1 5 ])

(* Client 1 puts, syncs, then deletes: the delete is a logged tombstone
   record, lost to a crash before the next sync. *)
let test_durable_kv_delete_logs_tombstone () =
  let edge = Durable_kv.crash_edge () in
  let prog = Prog.Module.link (Durable_kv.module_ ()) (Durable_kv.client 1) in
  let o = run_game (Durable_kv.underlay ()) [ 1, prog ] in
  expect_all_done o;
  check_bool "put then tombstone in the WAL" true
    (edge.Crash.appended o.Game.log = [ op 1 1 11; op 2 1 (-1) ]);
  check_int "sync acknowledged the put" 1 (edge.Crash.acked o.Game.log);
  check_bool "drop-all crash keeps the put" true
    (edge.Crash.recover o.Game.log ~keep:0 ~tear:0 = Ok [ op 1 1 11 ]);
  check_bool "keep-all crash recovers the tombstone" true
    (edge.Crash.recover o.Game.log ~keep:(Durability.all_keep 1) ~tear:0
     = Ok [ op 1 1 11; op 2 1 (-1) ])

(* ------------------------------------------------------------------ *)
(* mask enumeration                                                    *)
(* ------------------------------------------------------------------ *)

let test_masks_lattice_and_sample () =
  Alcotest.(check (list (pair int int))) "no in-flight writes: one recovery"
    [ (0, 0) ] (Crash.masks ~bound:4 0);
  (* m = 2 within the bound: every keep subset, plus one tear per kept
     bit — 4 subsets + (0+1+1+2) tears = 8 pairs *)
  let full = Crash.masks ~bound:4 2 in
  check_int "full lattice size at m=2" 8 (List.length full);
  List.iter
    (fun p -> check_bool "lattice member" true (List.mem p full))
    [ (0, 0); (1, 0); (1, 1); (2, 0); (2, 2); (3, 0); (3, 1); (3, 2) ];
  (* past the bound: the deterministic boundary sample *)
  let sample = Crash.masks ~bound:2 3 in
  check_int "boundary sample size at m=3" 6 (List.length sample);
  List.iter
    (fun p -> check_bool "sample member" true (List.mem p sample))
    [ (0, 0); (1, 0); (3, 0); (7, 0); (7, 1); (7, 4) ];
  (* sorted and duplicate-free, for jobs/cache-stable iteration order:
     the lattice as generated, the boundary sample once sorted *)
  for m = 0 to 8 do
    for bound = 0 to 6 do
      let ms = Crash.masks ~bound m in
      check_bool
        (Printf.sprintf "masks ~bound:%d %d sorted and unique" bound m)
        true
        (List.sort_uniq compare ms = ms)
    done
  done

(* ------------------------------------------------------------------ *)
(* the crash-refinement certifier                                      *)
(* ------------------------------------------------------------------ *)

let canonical = function
  | Budget.Complete (Ok r) -> Format.asprintf "%a" (Edges.pp ~millis:false Crash.layout) r.Crash.edges
  | Budget.Complete (Error f) -> Format.asprintf "%a" Failure.pp f
  | Budget.Exhausted _ -> "EXHAUSTED"

let edges () = [ Wal.crash_edge (); Durable_kv.crash_edge () ]

let test_certifier_passes () =
  match Crash.check_ctx ~ctx:Ctx.default (edges ()) with
  | Budget.Complete (Ok r) ->
    check_int "two edges" 2 (List.length r.Crash.edges);
    List.iter
      (fun e ->
        let n = Edges.count e in
        check_bool "schedules ran" true (n "schedules" > 0);
        check_bool "crash points enumerated" true (n "crash_points" > 0);
        check_bool "recoveries checked" true (n "recoveries" > n "crash_points"))
      r.Crash.edges
  | Budget.Complete (Error f) -> Alcotest.failf "%a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unexpected budget exhaustion"

(* A crash negative control: the unsynced edge fails naming a schedule
   and a crash point within the play; jobs 1 and 4 and a re-run give
   the same record; the play of the named schedule, found by name in
   the edge's own suite, fails again at the same point when judged on
   its own; and the printed line is pinned. *)
let crash_control (edge : Crash.edge) ~golden =
  let failing jobs =
    match Crash.check_ctx ~ctx:(Ctx.make ~jobs ()) [ edge ] with
    | Budget.Complete (Error f) -> f
    | Budget.Complete (Ok _) ->
      Alcotest.failf "%s must fail crash refinement" edge.Crash.name
    | Budget.Exhausted _ -> Alcotest.fail "unexpected budget exhaustion"
  in
  let f = failing 1 in
  check_names_run edge.Crash.name f;
  check_string "named edge" edge.Crash.name f.Crash.f_edge;
  check_bool "identical failure at jobs 4" true (failing 4 = f);
  check_bool "identical failure on re-run" true (failing 1 = f);
  let suite =
    Explore.scheds_of_strategy_ctx ~ctx:Ctx.default edge.Crash.layer edge.Crash.threads
  in
  (match List.filter (fun s -> Sched.name s = f.Crash.f_sched) suite with
  | [ sched ] ->
    let o =
      run_game ~max_steps:edge.Crash.max_steps ~sched edge.Crash.layer edge.Crash.threads
    in
    (match (Crash.judge ~bound:4 edge sched o).Crash.so_failure with
    | Some f' ->
      check_int "replay fails at the same crash point" f.Crash.f_index f'.Crash.f_index;
      check_bool "replay gives the same record" true
        ({ f' with f_edge = edge.Crash.name } = f)
    | None -> Alcotest.fail "the named schedule passes on replay")
  | named -> Alcotest.failf "%d schedules named %s" (List.length named) f.Crash.f_sched);
  check_string "printed failure" golden (failure_line f);
  f

let test_unsynced_fails_with_stable_point () =
  let f =
    crash_control (Wal.crash_edge ~unsynced:true ())
      ~golden:"crash-refinement failure: edge wal-unsynced, schedule dpor:[1,1,1,1], \
         crash point 7 (keep=0x0 tear=0x0): acknowledged-synced op lost: sync \
         acknowledged lsn 1 but recovery reads back only 0 ops"
  in
  check_bool "the lost op is the acknowledged one" true
    (String.starts_with ~prefix:"acknowledged-synced op " f.Crash.f_reason);
  (* the durable-kv edge over the unsynced WAL fails too *)
  ignore
    (crash_control (Durable_kv.crash_edge ~unsynced:true ())
       ~golden:"crash-refinement failure: edge durable-kv-unsynced, schedule \
          dpor:[1,1,1,1], crash point 17 (keep=0x0 tear=0x0): acknowledged-synced op \
          lost: sync acknowledged lsn 2 but recovery reads back only 0 ops")

let test_certifier_jobs_identical () =
  let reports =
    List.map
      (fun jobs -> canonical (Crash.check_ctx ~ctx:(Ctx.make ~jobs ()) (edges ())))
      [ 1; 2; 4; 7 ]
  in
  match reports with
  | r1 :: rest ->
    check_bool "no failure" true (String.length r1 > 0 && r1 <> "EXHAUSTED");
    List.iteri
      (fun i r -> check_string (Printf.sprintf "jobs grid entry %d" i) r1 r)
      rest
  | [] -> assert false

let test_certifier_cache_round_trip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-test-crash-cache-%d" (Unix.getpid ()))
  in
  let c1 = Cache.create ~dir () in
  let cold = canonical (Crash.check_ctx ~ctx:(Ctx.make ~cache:c1 ()) (edges ())) in
  let s1 = Cache.session_stats c1 in
  let c2 = Cache.create ~dir () in
  let warm = canonical (Crash.check_ctx ~ctx:(Ctx.make ~cache:c2 ()) (edges ())) in
  let s2 = Cache.session_stats c2 in
  (* the unsynced failure is never served from disk: against the same
     warm cache, the broken variant reproduces live — twice *)
  let unsynced_fails () =
    match
      Crash.check_ctx ~ctx:(Ctx.make ~cache:c2 ()) [ Wal.crash_edge ~unsynced:true () ]
    with
    | Budget.Complete (Error _) -> ()
    | _ -> Alcotest.fail "unsynced must fail even against a warm cache"
  in
  unsynced_fails ();
  unsynced_fails ();
  ignore (Cache.clear c2);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  check_string "cold and warm reports identical" cold warm;
  check_int "cold run stored both edges" 2 s1.Cache.stores;
  check_int "warm run misses nothing" 0 s2.Cache.misses;
  check_int "warm run hits both edges" 2 s2.Cache.hits

let test_certifier_budget_exhaustion () =
  (* A partial report lists completed edges only: at 50 steps the budget
     runs out inside wal's suite, so no edge is reported; at 200 steps
     wal completes (all 4 schedules) and durable-kv, cut short, is
     absent rather than reported as certified. *)
  let partial steps =
    let ctx = Ctx.with_budget (Budget.make ~steps ()) (Ctx.make ()) in
    match Crash.check_ctx ~ctx (edges ()) with
    | Budget.Exhausted { partial = Ok r; _ } ->
      List.map (fun (e : Edges.row) -> e.Edges.name, Edges.count e "schedules")
        r.Crash.edges
    | Budget.Exhausted { partial = Error f; _ } ->
      Alcotest.failf "partial failed: %a" Failure.pp f
    | Budget.Complete _ -> Alcotest.failf "expected exhaustion at %d steps" steps
  in
  Alcotest.(check (list (pair string int))) "no edge at 1 step" [] (partial 1);
  Alcotest.(check (list (pair string int))) "no edge at 50 steps" [] (partial 50);
  Alcotest.(check (list (pair string int)))
    "exactly wal at 200 steps" [ "wal", 4 ] (partial 200)

(* ------------------------------------------------------------------ *)
(* the judge: accounting per crash point, recovery per mask            *)
(* ------------------------------------------------------------------ *)

let judged_edges () =
  [ Wal.crash_edge (); Durable_kv.crash_edge ();
    Wal.crash_edge ~unsynced:true (); Durable_kv.crash_edge ~unsynced:true () ]

(* The certifier's default suite for the edge, plus seeded random plays. *)
let plays (e : Crash.edge) =
  List.map
    (fun sched ->
      let o = run_game ~max_steps:e.Crash.max_steps ~sched e.Crash.layer e.Crash.threads in
      expect_all_done o;
      (sched, o))
    (Explore.scheds_of_strategy_ctx ~ctx:Ctx.default e.Crash.layer e.Crash.threads
    @ random_scheds 6)

let test_judge_matches_per_mask_reference () =
  let failures = ref 0 in
  List.iter
    (fun (e : Crash.edge) ->
      let plays = plays e in
      List.iter
        (fun bound ->
          List.iter
            (fun (sched, o) ->
              let what =
                Printf.sprintf "%s %s bound %d" e.Crash.name (Sched.name sched) bound
              in
              let so = Crash.judge ~bound e sched o in
              let points, recoveries, failure =
                Crash_reference.judge ~bound e sched o
              in
              check_int (what ^ ": points") points so.Crash.so_points;
              check_int (what ^ ": recoveries") recoveries so.Crash.so_recoveries;
              check_bool (what ^ ": failure") true (failure = so.Crash.so_failure);
              if Option.is_some failure then incr failures)
            plays)
        [ 4; 1 ])
    (judged_edges ());
  (* the unsynced edges fail somewhere: the comparison covers failures *)
  check_bool "failures compared" true (!failures > 0)

(* Each closure wrapped with a counter: the accounting runs once per
   crash point, recovery once per mask. *)
let counted (e : Crash.edge) =
  let inflight = Atomic.make 0 and appended = Atomic.make 0
  and acked = Atomic.make 0 and recover = Atomic.make 0 in
  let tick c f x = Atomic.incr c; f x in
  ( {
      e with
      Crash.inflight = tick inflight e.Crash.inflight;
      appended = tick appended e.Crash.appended;
      acked = tick acked e.Crash.acked;
      recover =
        (fun l ~keep ~tear ->
          Atomic.incr recover;
          e.Crash.recover l ~keep ~tear);
    },
    fun () -> List.map Atomic.get [ inflight; appended; acked; recover ] )

let test_accounting_once_per_point () =
  List.iter
    (fun jobs ->
      List.iter
        (fun e ->
          let e, calls = counted e in
          match Crash.check_ctx ~ctx:(Ctx.make ~jobs ()) [ e ] with
          | Budget.Complete (Ok { Crash.edges = [ r ]; _ }) ->
            let what = Printf.sprintf "%s jobs %d" r.Edges.name jobs in
            let points = Edges.count r "crash_points" in
            Alcotest.(check (list int))
              (what ^ ": inflight, appended, acked per point; recover per mask")
              [ points; points; points; Edges.count r "recoveries" ]
              (calls ())
          | other -> Alcotest.failf "expected one certified edge, got %s" (canonical other))
        [ Wal.crash_edge (); Durable_kv.crash_edge () ])
    [ 1; 4 ]

(* A WAL edge whose recovery fails at exactly one chosen (point, keep,
   tear): the certifier must report that failure, in the first schedule
   of the suite whose play reaches it, at every jobs count. *)
let test_synthetic_failure_reported_exactly () =
  let base = Wal.crash_edge () in
  let ctx jobs = Ctx.make ~jobs ~strategy:(Ctx.Engine.dpor ~depth:6) () in
  let point, keep, tear = (5, 0b11, 0b10) in
  let edge =
    {
      base with
      Crash.recover =
        (fun l ~keep:k ~tear:t ->
          if Log.length l = point && k = keep && t = tear then Error "injected"
          else base.Crash.recover l ~keep:k ~tear:t);
    }
  in
  (* the expected report, found by walking the suite's plays in order *)
  let reaches (o : Game.outcome) =
    let events = Log.chronological o.Game.log in
    List.length events >= point
    && base.Crash.is_crash_point (List.nth events (point - 1))
    && List.mem (keep, tear)
         (Crash.masks ~bound:4
            (base.Crash.inflight
               (Log.append_all (List.filteri (fun j _ -> j < point) events) Log.empty)))
  in
  let scheds = Explore.scheds_of_strategy_ctx ~ctx:(ctx 1) base.Crash.layer base.Crash.threads in
  let first =
    List.find_index
      (fun sched ->
        reaches (run_game ~max_steps:base.Crash.max_steps ~sched base.Crash.layer base.Crash.threads))
      scheds
  in
  let first =
    match first with
    | Some k -> k
    | None -> Alcotest.fail "no play of the suite reaches the chosen crash point"
  in
  check_bool "the chosen point is not in the suite's first play" true (first > 0);
  let expected =
    { (Failure.no_run "recovery failed: injected") with
      Crash.f_edge = "wal";
      f_sched = Sched.name (List.nth scheds first);
      f_index = point;
      f_masks = Some (keep, tear) }
  in
  List.iter
    (fun jobs ->
      match Crash.check_ctx ~ctx:(ctx jobs) [ edge ] with
      | Budget.Complete (Error f) ->
        check_string
          (Printf.sprintf "failure at jobs %d" jobs)
          (Format.asprintf "%a" Failure.pp expected)
          (Format.asprintf "%a" Failure.pp f)
      | other -> Alcotest.failf "expected the injected failure, got %s" (canonical other))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* the QCheck property: recovery after a crash at every enumerated     *)
(* point is idempotent and loses nothing past the last acked sync      *)
(* ------------------------------------------------------------------ *)

type wop = Append of int * int | Sync

let wop_gen =
  QCheck.Gen.(
    frequency
      [ 3, map2 (fun k v -> Append (k, v)) (int_bound 3) (int_bound 9);
        2, return Sync ])

let pp_wop = function
  | Append (k, v) -> Printf.sprintf "append %d %d" k v
  | Sync -> "sync"

let wops_arb n =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_wop ops))
    QCheck.Gen.(list_size (int_bound n) wop_gen)

let wal_prog ops =
  Prog.seq_all
    (List.map
       (function
         | Append (k, v) -> Prog.call Wal.append_tag [ vi k; vi v ]
         | Sync -> Prog.call Wal.sync_tag [])
       ops)

let rec is_list_prefix a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x = y && is_list_prefix xs ys

let check_play_prefix prefix =
  match Disk.replay_log prefix with
  | Error _ -> false
  | Ok st ->
    List.for_all
      (fun (keep, tear) ->
        let crashed = Disk.crash_commit ~keep ~tear st in
        let recovered = Wal.recover crashed in
        (* idempotence: rewriting the platter to the recovered prefix and
           recovering again reads back the same operations *)
        recover_of (List.map (fun (o : Wal.op) -> o.lsn, Wal.record o) recovered)
        = recovered
        (* no invented ops *)
        && is_list_prefix recovered (wal.Crash.appended prefix)
        (* nothing lost past the last acknowledged sync *)
        && List.length recovered >= wal.Crash.acked prefix)
      (Crash.masks ~bound:3 (List.length (Disk.inflight st)))

let prop_recovery_idempotent_and_lossless =
  qtc ~count:40
    "WAL recovery: idempotent, no invented ops, nothing acked lost"
    (QCheck.pair (wops_arb 4) (wops_arb 4))
    (fun (ops1, ops2) ->
      let modul = Wal.module_ () in
      let threads =
        [ 1, Prog.Module.link modul (wal_prog ops1);
          2, Prog.Module.link modul (wal_prog ops2) ]
      in
      List.for_all
        (fun sched ->
          let o = run_game ~sched (Wal.underlay ()) threads in
          o.Game.status = Game.All_done
          && begin
               let ok = ref (check_play_prefix Log.empty) in
               ignore
                 (List.fold_left
                    (fun prefix e ->
                      let prefix = Log.append e prefix in
                      if !ok && Disk.changes_disk e then
                        ok := check_play_prefix prefix;
                      prefix)
                    Log.empty
                    (Log.chronological o.Game.log));
               !ok
             end)
        [ Sched.round_robin; Sched.random ~seed:11 ])

(* ------------------------------------------------------------------ *)
(* suite                                                               *)
(* ------------------------------------------------------------------ *)

let suite =
  [
    tc "disk: write visible, durable only after sync" test_disk_write_read_sync;
    tc "disk: unwritten pages read as zero" test_disk_unwritten_page;
    tc "disk: crash_commit keeps, tears and drops per mask"
      test_disk_crash_commit_masks;
    tc "disk: the in-game crash halts real threads"
      test_disk_crash_halts_real_threads;
    tc "game: pseudo-thread tids are disjoint by construction"
      test_pseudo_thread_tids_disjoint;
    tc "game: real threads cannot squat the pseudo-thread namespace"
      test_pseudo_thread_collision_rejected;
    tc "wal: recovery decodes records and rejects bad pages" test_wal_record_roundtrip;
    tc "wal: recovery truncates at the first invalid record"
      test_wal_recover_truncates;
    tc "wal: append/sync/append leaves the synced prefix durable"
      test_wal_append_sync_roundtrip;
    tc "durable-kv: put is logged before it is applied" test_durable_kv_solo;
    tc "durable-kv: a delete logs a tombstone" test_durable_kv_delete_logs_tombstone;
    tc "certifier: mask lattice and boundary sample" test_masks_lattice_and_sample;
    tc "certifier: wal and durable-kv edges pass" test_certifier_passes;
    tc "certifier: the unsynced WAL fails with a stable named crash point"
      test_unsynced_fails_with_stable_point;
    tc "certifier: canonical report identical on jobs {1,2,4,7}"
      test_certifier_jobs_identical;
    tc "certifier: cache round trip never replays failures"
      test_certifier_cache_round_trip;
    tc "certifier: budget exhaustion yields a partial report"
      test_certifier_budget_exhaustion;
    tc "judge: equal to the per-mask reference on every edge"
      test_judge_matches_per_mask_reference;
    tc "judge: accounting once per crash point, recovery once per mask"
      test_accounting_once_per_point;
    tc "judge: a chosen recovery failure is the one reported, jobs 1 and 4"
      test_synthetic_failure_reported_exactly;
    prop_recovery_idempotent_and_lossless;
  ]
