(* The kv serving stack (DESIGN.md S28): the functional map spec, the
   sharded hash table, the block cache, and the composed service —
   certified through [Kv_stack.verify_ctx] and probed directly. *)

open Ccal_core
open Ccal_verify
open Ccal_kv
open Util

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)
(* ------------------------------------------------------------------ *)

let map_layer ?shards () = Map_spec.layer ?shards ()

let get k = Prog.call Map_spec.get_tag [ vi k ]
let put k v = Prog.call Map_spec.put_tag [ vi k; vi v ]
let del k = Prog.call Map_spec.del_tag [ vi k ]
let resize n = Prog.call Map_spec.resize_tag [ vi n ]

let ht_solo ?(shards = 2) prog =
  expect_done (Hashtable.underlay ())
    (Prog.Module.link (Hashtable.module_ ~shards ()) prog)

let cache_solo ?(entries = 2) prog =
  expect_done (Block_cache.underlay ())
    (Prog.Module.link (Block_cache.module_ ~entries ()) prog)

(* A random single-op generator over a small key/value space; [ops_gen]
   makes a short sequence of them. *)
type op = Get of int | Put of int * int | Del of int | Resize of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        3, map (fun k -> Get k) (int_bound 3);
        4, map2 (fun k v -> Put (k, v)) (int_bound 3) (int_bound 9);
        2, map (fun k -> Del k) (int_bound 3);
        1, map (fun n -> Resize (n + 1)) (int_bound 2);
      ])

let ops_gen n = QCheck.Gen.(list_size (int_bound n) op_gen)

let pp_op = function
  | Get k -> Printf.sprintf "get %d" k
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Del k -> Printf.sprintf "del %d" k
  | Resize n -> Printf.sprintf "resize %d" n

let ops_arb n =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    (ops_gen n)

let prog_of_ops ops =
  Prog.seq_all
    (List.map
       (function
         | Get k -> get k
         | Put (k, v) -> put k v
         | Del k -> del k
         | Resize n -> resize n)
       ops)

(* The pure model: fold the ops over an association list, collecting each
   op's expected return value. *)
let model_rets ~shards ops =
  let rec go m sh acc = function
    | [] -> List.rev acc
    | Get k :: rest ->
      let v = Option.value (List.assoc_opt k m) ~default:Map_spec.absent in
      go m sh (v :: acc) rest
    | Put (k, v) :: rest ->
      let old = Option.value (List.assoc_opt k m) ~default:Map_spec.absent in
      go ((k, v) :: List.remove_assoc k m) sh (old :: acc) rest
    | Del k :: rest ->
      let old = Option.value (List.assoc_opt k m) ~default:Map_spec.absent in
      go (List.remove_assoc k m) sh (old :: acc) rest
    | Resize n :: rest -> go m n (sh :: acc) rest
  in
  go [] shards [] ops

(* Collect every op's return by binding each call into a list. *)
let rets_prog ops =
  let rec go acc = function
    | [] -> Prog.ret (Value.Vlist (List.rev acc))
    | op :: rest ->
      Prog.bind
        (match op with
        | Get k -> get k
        | Put (k, v) -> put k v
        | Del k -> del k
        | Resize n -> resize n)
        (fun r -> go (r :: acc) rest)
  in
  go [] ops

(* ------------------------------------------------------------------ *)
(* map spec                                                            *)
(* ------------------------------------------------------------------ *)

let test_map_spec_solo () =
  let v =
    expect_done (map_layer ())
      (rets_prog [ Put (1, 10); Get 1; Del 1; Get 1; Put (1, 11); Put (1, 12) ])
  in
  Alcotest.check value_testable "spec returns"
    (Value.Vlist [ vi Map_spec.absent; vi 10; vi 10; vi Map_spec.absent;
                   vi Map_spec.absent; vi 11 ])
    v

let test_map_spec_resize () =
  let v = expect_done (map_layer ~shards:3 ()) (rets_prog [ Resize 5; Resize 2 ]) in
  Alcotest.check value_testable "resize returns old count"
    (Value.Vlist [ vi 3; vi 5 ]) v

let prop_lookup_matches_replay =
  qtc "lookup agrees with the whole-map replay oracle" (ops_arb 12) (fun ops ->
      let _ = expect_done (map_layer ()) (prog_of_ops ops) in
      (* rebuild the log by running the game solo and replaying *)
      let layer = map_layer () in
      let o =
        Game.run
          (Game.config ~max_steps:10_000 layer [ 1, prog_of_ops ops ]
             Sched.round_robin)
      in
      let m = Result.get_ok (Map_spec.replay_map o.Game.log) in
      let keys = [ 0; 1; 2; 3 ] in
      Value.equal
        (expect_done layer
           (Prog.seq (prog_of_ops ops) (rets_prog (List.map (fun k -> Get k) keys))))
        (Value.list
           (List.map
              (fun k -> vi (Option.value (Map_spec.Imap.find_opt k m) ~default:Map_spec.absent))
              keys)))

(* ------------------------------------------------------------------ *)
(* hash table                                                          *)
(* ------------------------------------------------------------------ *)

let prop_ht_solo_matches_model =
  qtc "hash table matches the pure model on random op sequences"
    (ops_arb 10) (fun ops ->
      let v = ht_solo (rets_prog ops) in
      v = Value.Vlist (List.map vi (model_rets ~shards:2 ops)))

let test_ht_delete_missing () =
  let v = ht_solo (rets_prog [ Del 7; Put (7, 1); Del 7; Del 7 ]) in
  Alcotest.check value_testable "delete of a missing key returns absent"
    (Value.Vlist [ vi Map_spec.absent; vi Map_spec.absent; vi 1;
                   vi Map_spec.absent ])
    v

let test_ht_bucket_contents () =
  let layer = Hashtable.underlay () in
  let m = Hashtable.module_ ~shards:2 () in
  let prog = Prog.Module.link m (prog_of_ops [ Put (0, 5); Put (2, 6); Put (1, 7) ]) in
  let o = Game.run (Game.config ~max_steps:10_000 layer [ 1, prog ] Sched.round_robin) in
  (* keys 0 and 2 share bucket 1 (k mod 2 = 0); key 1 lives in bucket 2 *)
  let b1 = List.sort compare (Hashtable.bucket_contents 1 o.Game.log) in
  let b2 = List.sort compare (Hashtable.bucket_contents 2 o.Game.log) in
  Alcotest.(check (list (pair int int))) "bucket 1" [ 0, 5; 2, 6 ] b1;
  Alcotest.(check (list (pair int int))) "bucket 2" [ 1, 7 ] b2

let test_ht_resize_redistributes () =
  (* after resize 3, key 2 moves from bucket 1 (2 mod 2) to bucket 3 (2 mod 3) *)
  let layer = Hashtable.underlay () in
  let m = Hashtable.module_ ~shards:2 () in
  let prog =
    Prog.Module.link m (prog_of_ops [ Put (0, 5); Put (2, 6); Resize 3 ])
  in
  let o = Game.run (Game.config ~max_steps:10_000 layer [ 1, prog ] Sched.round_robin) in
  let b1 = List.sort compare (Hashtable.bucket_contents 1 o.Game.log) in
  let b3 = List.sort compare (Hashtable.bucket_contents 3 o.Game.log) in
  Alcotest.(check (list (pair int int))) "bucket 1 after resize" [ 0, 5 ] b1;
  Alcotest.(check (list (pair int int))) "bucket 3 after resize" [ 2, 6 ] b3

let test_ht_resize_under_contention () =
  (* one thread resizes mid-workload while two others hammer both buckets;
     every DPOR schedule must refine the atomic map *)
  let client i =
    if i = 3 then prog_of_ops [ Put (2, 30); Resize 3; Get 2 ]
    else prog_of_ops [ Put (i, 10 + i); Get i ]
  in
  match
    Linearizability.check_ctx ~ctx:Ctx.default
      ~underlay:(Hashtable.underlay ())
      ~impl:(Hashtable.module_ ~shards:2 ())
      ~overlay:(map_layer ~shards:2 ()) ~rel:Hashtable.r_kv ~client
      ~tids:[ 1; 2; 3 ] ()
  with
  | Budget.Complete (Ok r) ->
    check_bool "ran schedules" true (r.Linearizability.runs > 0)
  | Budget.Complete (Error f) ->
    Alcotest.failf "resize under contention: %a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unexpected budget exhaustion"

let prop_ht_refines_spec_jobs14 =
  (* the tentpole property: random two-thread workloads refine the map
     spec, with bit-identical reports at jobs 1 and jobs 4 *)
  qtc ~count:12 "random workloads refine Lmap identically at jobs {1,4}"
    (QCheck.pair (ops_arb 4) (ops_arb 4)) (fun (ops1, ops2) ->
      let client i = prog_of_ops (if i = 1 then ops1 else ops2) in
      let check jobs =
        Linearizability.check_ctx ~ctx:(Ctx.make ~jobs ())
          ~underlay:(Hashtable.underlay ())
          ~impl:(Hashtable.module_ ~shards:2 ())
          ~overlay:(map_layer ~shards:2 ()) ~rel:Hashtable.r_kv ~client
          ~tids:[ 1; 2 ] ()
      in
      match check 1, check 4 with
      | Budget.Complete (Ok a), Budget.Complete (Ok b) -> a = b
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* block cache                                                         *)
(* ------------------------------------------------------------------ *)

let cache_game_log prog =
  let layer = Block_cache.underlay () in
  let m = Block_cache.module_ ~entries:2 () in
  let o =
    Game.run
      (Game.config ~max_steps:10_000 layer
         [ 1, Prog.Module.link m prog ]
         Sched.round_robin)
  in
  o.Game.log

let test_cache_miss_then_hit () =
  let v = cache_solo (rets_prog [ Put (1, 10); Get 1; Get 1 ]) in
  Alcotest.check value_testable "miss, fill, then hits"
    (Value.Vlist [ vi Map_spec.absent; vi 10; vi 10 ]) v

let test_cache_entry_replay_available () =
  let log = cache_game_log (rets_prog [ Put (1, 10); Get 1 ]) in
  match Block_cache.replay_entry 1 log with
  | Ok e ->
    check_bool "entry mapped and dirty" true
      (e.Block_cache.flag = Block_cache.Available
      && e.Block_cache.page = 1 && e.Block_cache.value = 10
      && e.Block_cache.dirty)
  | Error msg -> Alcotest.failf "replay_entry: %s" msg

let test_cache_eviction_writeback () =
  (* keys 0 and 2 collide on entry 0 (k mod 2): putting 0 then reading 2
     must write 0 back to the backing store before remapping the entry *)
  let log = cache_game_log (rets_prog [ Put (0, 5); Get 2; Get 0 ]) in
  check_int "write-back persisted key 0" 1
    (Log.count
       (fun e -> e.Event.tag = "disk_write" && e.Event.args = [ vi 0; vi 5 ])
       log);
  let v = cache_solo (rets_prog [ Put (0, 5); Get 2; Get 0 ]) in
  Alcotest.check value_testable "value survives eviction"
    (Value.Vlist [ vi Map_spec.absent; vi Map_spec.absent; vi 5 ])
    v

let test_cache_replay_rejects_garbage () =
  (* an end-read with no preceding open is a protocol violation the
     replay must flag, not absorb *)
  let bad =
    log_of [ ev ~args:[ vi 0; vi 0 ] ~ret:(vi 1) 1 "c_end_read" ]
  in
  match Block_cache.replay_entry 0 bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a protocol violation"

let test_cache_pending_writer_priority () =
  (* two threads on the same entry: a reader and a writer; every DPOR
     schedule (including the ones where the writer waits via the pending
     mark) must still refine the atomic map *)
  let client i =
    if i = 1 then prog_of_ops [ Put (0, 7); Get 0 ]
    else prog_of_ops [ Get 0; Put (0, 9) ]
  in
  match
    Linearizability.check_ctx ~ctx:Ctx.default
      ~underlay:(Block_cache.underlay ())
      ~impl:(Block_cache.module_ ~entries:1 ())
      ~overlay:(Map_spec.cache_overlay ()) ~rel:Block_cache.r_cache ~client
      ~tids:[ 1; 2 ] ()
  with
  | Budget.Complete (Ok r) ->
    check_bool "ran schedules" true (r.Linearizability.runs > 0)
  | Budget.Complete (Error f) ->
    Alcotest.failf "pending-writer game: %a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unexpected budget exhaustion"

let prop_cache_solo_matches_model =
  (* the cache only serves get/put; filter the generator accordingly *)
  let gp_gen =
    QCheck.Gen.(
      list_size (int_bound 8)
        (frequency
           [
             1, map (fun k -> Get k) (int_bound 3);
             2, map2 (fun k v -> Put (k, v)) (int_bound 3) (int_bound 9);
           ]))
  in
  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
      gp_gen
  in
  qtc "block cache matches the pure model on random get/put sequences" arb
    (fun ops ->
      let v = cache_solo (rets_prog ops) in
      v = Value.Vlist (List.map vi (model_rets ~shards:2 ops)))

(* ------------------------------------------------------------------ *)
(* the composed stack                                                  *)
(* ------------------------------------------------------------------ *)

let canonical_report = function
  | Budget.Complete (Ok r) -> Format.asprintf "%a" (Edges.pp ~millis:false Kv_stack.layout) r.Kv_stack.edges
  | Budget.Complete (Error f) -> Format.asprintf "ERROR: %a" Failure.pp f
  | Budget.Exhausted _ -> "EXHAUSTED"

let test_verify_all_edges () =
  match Kv_stack.verify_ctx ~ctx:Ctx.default ~threads:2 () with
  | Budget.Complete (Ok r) ->
    check_int "three edges" 3 (List.length r.Kv_stack.edges);
    check_bool "every edge ran schedules" true
      (List.for_all (fun e -> Edges.count e "checks" > 0) r.Kv_stack.edges)
  | Budget.Complete (Error f) -> Alcotest.failf "kv stack failed: %a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unexpected budget exhaustion"

let test_verify_jobs_identical () =
  let reports =
    List.map
      (fun jobs ->
        canonical_report
          (Kv_stack.verify_ctx ~ctx:(Ctx.make ~jobs ()) ~threads:2 ()))
      [ 1; 2; 4; 7 ]
  in
  match reports with
  | r1 :: rest ->
    check_bool "no failure" false (String.length r1 = 0);
    List.iteri
      (fun i r -> check_string (Printf.sprintf "jobs grid entry %d" i) r1 r)
      rest
  | [] -> assert false

let test_verify_budget_exhaustion () =
  (* a 1-step budget trips before the first edge completes; the partial
     report must still be well-formed *)
  let ctx = Ctx.with_budget (Budget.make ~steps:1 ()) (Ctx.make ()) in
  match Kv_stack.verify_ctx ~ctx ~threads:2 () with
  | Budget.Exhausted { partial = Ok r; _ } ->
    check_bool "partial has at most 2 edges" true
      (List.length r.Kv_stack.edges < 3)
  | Budget.Exhausted { partial = Error f; _ } ->
    Alcotest.failf "partial failed: %a" Failure.pp f
  | Budget.Complete _ -> Alcotest.fail "expected exhaustion"

let test_verify_cache_round_trip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-test-kv-cache-%d" (Unix.getpid ()))
  in
  let c1 = Cache.create ~dir () in
  let cold =
    canonical_report
      (Kv_stack.verify_ctx ~ctx:(Ctx.make ~cache:c1 ()) ~threads:2 ())
  in
  let s1 = Cache.session_stats c1 in
  let c2 = Cache.create ~dir () in
  let warm =
    canonical_report
      (Kv_stack.verify_ctx ~ctx:(Ctx.make ~cache:c2 ()) ~threads:2 ())
  in
  let s2 = Cache.session_stats c2 in
  ignore (Cache.clear c2);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  check_string "cold and warm reports identical" cold warm;
  check_int "warm run hits every edge" 3 s2.Cache.hits;
  check_int "warm run misses nothing" 0 s2.Cache.misses;
  check_bool "cold run stored the edges" true (s1.Cache.stores >= 3)

let test_fingerprints_stable_and_sensitive () =
  let base () = Kv_stack.fingerprints ~threads:2 ~shards:2 ~entries:2 () in
  let fps = base () in
  check_int "three edge keys" 3 (List.length fps);
  (* stable: recomputing gives the same keys *)
  List.iter2
    (fun (n1, f1) (n2, f2) ->
      check_string "edge name stable" n1 n2;
      check_bool "fingerprint stable" true (Fingerprint.equal f1 f2))
    fps (base ());
  let distinct a b =
    List.for_all2 (fun (_, f1) (_, f2) -> not (Fingerprint.equal f1 f2)) a b
  in
  (* shards parameterizes the hash-table and composed edges; the
     standalone cache edge (over the flat disk) takes no part *)
  (match fps, Kv_stack.fingerprints ~threads:2 ~shards:3 ~entries:2 () with
  | [ (_, ht); (_, ca); (_, co) ], [ (_, ht'); (_, ca'); (_, co') ] ->
    check_bool "shards changes the hash-table key" false (Fingerprint.equal ht ht');
    check_bool "shards changes the composed key" false (Fingerprint.equal co co');
    check_bool "shards leaves the standalone cache key" true
      (Fingerprint.equal ca ca')
  | _ -> assert false);
  check_bool "threads changes every key" true
    (distinct fps (Kv_stack.fingerprints ~threads:3 ~shards:2 ~entries:2 ()));
  check_bool "strategy changes every key" true
    (distinct fps
       (Kv_stack.fingerprints ~threads:2 ~shards:2 ~entries:2
          ~strategy:(Ctx.Engine.exhaustive ~depth:3) ()));
  (* entries only parameterizes the cache edges; the hash-table edge key
     must NOT move *)
  let fps' = Kv_stack.fingerprints ~threads:2 ~shards:2 ~entries:3 () in
  (match fps, fps' with
  | (_, ht) :: _, (_, ht') :: _ ->
    check_bool "hash-table key survives an entries change" true
      (Fingerprint.equal ht ht')
  | _ -> assert false);
  match List.tl fps, List.tl fps' with
  | cache_edges, cache_edges' ->
    check_bool "cache keys move with entries" true
      (distinct cache_edges cache_edges')

(* ------------------------------------------------------------------ *)
(* games and the YCSB workload                                         *)
(* ------------------------------------------------------------------ *)

let run_game (layer, threads) =
  Game.run (Game.config ~max_steps:200_000 layer threads Sched.round_robin)

let test_games_complete () =
  List.iter
    (fun (name, g) ->
      let o = run_game g in
      match o.Game.status with
      | Game.All_done -> ()
      | s -> Alcotest.failf "%s: %a" name Game.pp_status s)
    [
      "ht_game", Kv_stack.ht_game ~shards:2 ~threads:3 ();
      "cache_game", Kv_stack.cache_game ~entries:2 ~threads:3 ();
      "composed_game", Kv_stack.composed_game ~shards:2 ~entries:2 ~threads:3 ();
      "ycsb 95/5",
      Kv_stack.ycsb_game ~shards:4 ~threads:2 ~read_pct:95 ~ops:10 ~keyspace:8 ();
      "ycsb 50/50",
      Kv_stack.ycsb_game ~shards:4 ~threads:2 ~read_pct:50 ~ops:10 ~keyspace:8 ();
    ]

let test_ycsb_deterministic () =
  let play seed =
    let o =
      run_game
        (Kv_stack.ycsb_game ~seed ~shards:4 ~threads:2 ~read_pct:50 ~ops:10
           ~keyspace:8 ())
    in
    o.Game.log
  in
  Alcotest.check log_testable "same seed, same log" (play 42) (play 42);
  check_bool "different seed, different log" false
    (Log.equal (play 42) (play 43))

(* Two domains play different YCSB games at once.  Each play's replay
   memos live in its own domain's scope (DESIGN.md S32), so concurrent
   plays must get exactly the outcomes of sequential play: same log,
   status, results and step counts. *)
let test_ycsb_two_domains () =
  let games =
    [
      Kv_stack.ycsb_game ~seed:7 ~shards:4 ~threads:3 ~read_pct:95 ~ops:60
        ~keyspace:64 ();
      Kv_stack.ycsb_game ~seed:8 ~shards:2 ~threads:4 ~read_pct:50 ~ops:50
        ~keyspace:32 ();
    ]
  in
  let play (layer, threads) =
    Game.run
      (Game.config ~max_steps:200_000 layer threads (Sched.random ~seed:5))
  in
  let sequential = List.map play games in
  let concurrent =
    List.map Domain.join (List.map (fun g -> Domain.spawn (fun () -> play g)) games)
  in
  List.iter2
    (fun (s : Game.outcome) (c : Game.outcome) ->
      check_bool "sequential play completes" true (s.Game.status = Game.All_done);
      Alcotest.check log_testable "same log" s.Game.log c.Game.log;
      check_bool "same status" true (s.Game.status = c.Game.status);
      check_bool "same results" true
        (List.equal
           (fun (i, v) (j, w) -> i = j && Value.equal v w)
           s.Game.results c.Game.results);
      check_int "same steps" s.Game.steps c.Game.steps)
    sequential concurrent

let suite =
  [
    tc "map spec: solo op sequence" test_map_spec_solo;
    tc "map spec: resize returns the old shard count" test_map_spec_resize;
    prop_lookup_matches_replay;
    prop_ht_solo_matches_model;
    tc "hash table: delete of a missing key" test_ht_delete_missing;
    tc "hash table: bucket contents oracle" test_ht_bucket_contents;
    tc "hash table: resize redistributes buckets" test_ht_resize_redistributes;
    tc "hash table: resize under contention refines Lmap"
      test_ht_resize_under_contention;
    prop_ht_refines_spec_jobs14;
    tc "block cache: miss, fill, hit" test_cache_miss_then_hit;
    tc "block cache: entry replay reaches Available"
      test_cache_entry_replay_available;
    tc "block cache: eviction writes back" test_cache_eviction_writeback;
    tc "block cache: replay rejects protocol violations"
      test_cache_replay_rejects_garbage;
    tc "block cache: pending writer vs reader refines Lmap"
      test_cache_pending_writer_priority;
    prop_cache_solo_matches_model;
    tc "kv stack: all three edges certify" test_verify_all_edges;
    tc "kv stack: canonical report identical on jobs {1,2,4,7}"
      test_verify_jobs_identical;
    tc "kv stack: budget exhaustion yields a partial report"
      test_verify_budget_exhaustion;
    tc "kv stack: cache cold/warm round trip" test_verify_cache_round_trip;
    tc "kv stack: fingerprints stable and configuration-sensitive"
      test_fingerprints_stable_and_sensitive;
    tc "kv games: every corpus game completes" test_games_complete;
    tc "ycsb: op streams are seed-deterministic" test_ycsb_deterministic;
    tc "ycsb: two domains play as sequential play does" test_ycsb_two_domains;
  ]
