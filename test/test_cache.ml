(* The certificate cache (DESIGN.md S26): fingerprint stability, the
   on-disk store's hit/miss/corruption behaviour, the one cache level
   (only whole edges are stored), the per-edge invalidation contract of
   the stack keys, and the warm-run-equals-cold-run acceptance gate. *)
open Ccal_core
open Ccal_objects
open Util
module V = Ccal_verify

(* ---- scratch cache directories ---- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ccal-test-cache-%d-%d" (Unix.getpid ()) !dir_counter)

let cleanup c =
  ignore (V.Cache.clear c);
  try Unix.rmdir (V.Cache.dir c) with Unix.Unix_error _ -> ()

let with_cache f =
  let c = V.Cache.create ~dir:(fresh_dir ()) () in
  Fun.protect ~finally:(fun () -> cleanup c) (fun () -> f c)

(* Entry files in the store (same filter as [Cache.disk_stats]). *)
let entry_files c =
  Sys.readdir (V.Cache.dir c)
  |> Array.to_list
  |> List.filter (fun f -> not (String.starts_with ~prefix:".tmp-" f))
  |> List.map (Filename.concat (V.Cache.dir c))

(* ---- fingerprints ---- *)

let fp_of_string s = Fingerprint.finish (Fingerprint.string Fingerprint.empty s)

let test_fingerprint_stable () =
  (* same structure, same fingerprint — across separately-built values *)
  check_bool "strings" true
    (Fingerprint.equal (fp_of_string "abc") (fp_of_string "abc"));
  let fp_layer () =
    Fingerprint.finish (Fingerprint.layer Fingerprint.empty (Ticket_lock.l0 ()))
  in
  check_bool "layers" true (Fingerprint.equal (fp_layer ()) (fp_layer ()));
  let prog i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
        Prog.seq (Prog.call "rel" [ vi 0; v ]) (Prog.ret (vi i)))
  in
  let fp_prog p = Fingerprint.finish (Fingerprint.prog Fingerprint.empty p) in
  check_bool "progs equal" true (Fingerprint.equal (fp_prog (prog 1)) (fp_prog (prog 1)));
  check_bool "progs differ" false
    (Fingerprint.equal (fp_prog (prog 1)) (fp_prog (prog 2)));
  check_int "hex width" 16 (String.length (Fingerprint.to_hex (fp_of_string "x")))

let test_fingerprint_sensitive () =
  check_bool "different strings" false
    (Fingerprint.equal (fp_of_string "abc") (fp_of_string "abd"));
  (* suites are identified by their engine descriptor: random suites of
     different sizes, depths of one engine, engines of one depth, and the
     sym flag must all differ *)
  let fp_engine s =
    match V.Ctx.Engine.of_string s with
    | Ok e -> Fingerprint.finish (Fingerprint.engine Fingerprint.empty e)
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (a, b) ->
      check_bool (a ^ " vs " ^ b) false (Fingerprint.equal (fp_engine a) (fp_engine b)))
    [ "random:4", "random:5"; "exhaustive:2", "exhaustive:3"; "dpor:9", "dpor:10";
      "dpor:10", "dpor:10,sym"; "dpor:4", "random:4"; "dpor:4", "exhaustive:4" ];
  check_bool "one descriptor, one key" true
    (Fingerprint.equal (fp_engine "default") (fp_engine "dpor:4"));
  (* the C sources are fingerprinted structurally: the two lock
     implementations must not collide *)
  let fp_fn f =
    Fingerprint.finish (Ccal_clight.Csyntax.fp_fn Fingerprint.empty f)
  in
  check_bool "ticket vs mcs acq" false
    (Fingerprint.equal (fp_fn Ticket_lock.acq_fn) (fp_fn Mcs_lock.acq_fn))

(* ---- the store ---- *)

let test_roundtrip () =
  with_cache (fun c ->
      let key = fp_of_string "roundtrip-key" in
      check_bool "absent is a miss" true (V.Cache.find c ~kind:"edge" key = None);
      V.Cache.store c ~kind:"edge" key (42, "payload");
      check_bool "hit returns the value" true
        (V.Cache.find c ~kind:"edge" key = Some (42, "payload"));
      let s = V.Cache.session_stats c in
      check_int "hits" 1 s.hits;
      check_int "misses" 1 s.misses;
      check_int "stores" 1 s.stores;
      let d = V.Cache.disk_stats c in
      check_int "entries" 1 d.entries;
      check_bool "bytes" true (d.bytes > 0))

let test_kind_separates_payloads () =
  with_cache (fun c ->
      let key = fp_of_string "same-key" in
      V.Cache.store c ~kind:"edge" key 1;
      (* same fingerprint, different payload kind: no type confusion *)
      check_bool "other kind misses" true (V.Cache.find c ~kind:"kvedge" key = None);
      check_bool "own kind hits" true (V.Cache.find c ~kind:"edge" key = Some 1))

let test_corrupt_entry_recovered () =
  with_cache (fun c ->
      let key = fp_of_string "corrupt-me" in
      V.Cache.store c ~kind:"edge" key (List.init 64 Fun.id);
      (match entry_files c with
      | [ path ] ->
        let oc = open_out path in
        output_string oc "not a cache entry at all";
        close_out oc
      | files -> Alcotest.failf "expected 1 entry, found %d" (List.length files));
      check_bool "corrupt is a miss" true
        (V.Cache.find c ~kind:"edge" (key : Fingerprint.t) = (None : int list option));
      let s = V.Cache.session_stats c in
      check_int "invalidation counted" 1 s.invalidations;
      check_int "entry deleted" 0 (V.Cache.disk_stats c).entries)

let test_truncated_entry_recovered () =
  with_cache (fun c ->
      let key = fp_of_string "truncate-me" in
      V.Cache.store c ~kind:"edge" key (String.make 4096 'x');
      (match entry_files c with
      | [ path ] ->
        (* keep the magic header, cut the payload short *)
        let ic = open_in_bin path in
        let keep = min (in_channel_length ic) 40 in
        let prefix = really_input_string ic keep in
        close_in ic;
        let oc = open_out_bin path in
        output_string oc prefix;
        close_out oc
      | files -> Alcotest.failf "expected 1 entry, found %d" (List.length files));
      check_bool "truncated is a miss" true
        (V.Cache.find c ~kind:"edge" (key : Fingerprint.t) = (None : string option));
      check_int "invalidation counted" 1 (V.Cache.session_stats c).invalidations;
      check_int "entry deleted" 0 (V.Cache.disk_stats c).entries)

let test_crash_kind_corrupt_rechecks () =
  (* Fault.corrupt_cache x the "crash" kind (DESIGN.md S30): a corrupted
     crash-certificate entry must read as a miss and force a live
     recheck — never a stale verdict — and the recheck re-stores the
     same report. *)
  with_cache (fun c ->
      let module D = Ccal_disk in
      let report cache =
        match
          V.Crash.check_ctx ~ctx:(V.Ctx.make ~cache ()) [ D.Wal.crash_edge () ]
        with
        | V.Budget.Complete (Ok { V.Crash.edges = [ e ]; _ }) ->
          { e with V.Edges.millis = 0. }
        | V.Budget.Complete (Ok _) -> Alcotest.fail "expected one edge report"
        | V.Budget.Complete (Error f) -> Alcotest.failf "%a" Failure.pp f
        | V.Budget.Exhausted _ -> Alcotest.fail "unexpected budget exhaustion"
      in
      let cold = report c in
      (* corrupt every stored entry in place: the crash edge's report is
         the only one *)
      let files = entry_files c in
      check_bool "cold run stored entries" true (files <> []);
      List.iter
        (fun path ->
          let oc = open_out path in
          output_string oc "not a certificate";
          close_out oc)
        files;
      let c2 = V.Cache.create ~dir:(V.Cache.dir c) () in
      let rechecked = report c2 in
      let s = V.Cache.session_stats c2 in
      check_bool "corrupt crash entry invalidated, not served" true
        (s.invalidations >= 1);
      check_int "no hits off the corrupted store" 0 s.hits;
      check_bool "recheck re-stored the report" true (s.stores >= 1);
      check_bool "rechecked verdict identical to the cold one" true
        (rechecked = cold);
      (* and the freshly re-stored entry serves the third run *)
      let c3 = V.Cache.create ~dir:(V.Cache.dir c) () in
      let warm = report c3 in
      check_bool "warm verdict identical" true (warm = cold);
      check_bool "third run hits" true ((V.Cache.session_stats c3).hits >= 1))

let test_clear () =
  with_cache (fun c ->
      V.Cache.store c ~kind:"edge" (fp_of_string "k1") 1;
      V.Cache.store c ~kind:"kvedge" (fp_of_string "k2") 2;
      check_int "clear reports count" 2 (V.Cache.clear c);
      check_int "store empty" 0 (V.Cache.disk_stats c).entries)

(* ---- one cache level: only whole edges are stored ---- *)

(* The kind of every stored entry, sorted: file names up to their '-'. *)
let kinds c =
  List.sort compare
    (List.map
       (fun f ->
         let f = Filename.basename f in
         String.sub f 0 (String.index f '-'))
       (entry_files c))

let test_one_cache_level () =
  let module D = Ccal_disk in
  let cold name n expected run =
    with_cache (fun c ->
        run (V.Ctx.make ~cache:c ());
        check_int "no hits on a fresh store" 0 (V.Cache.session_stats c).hits;
        Alcotest.(check (list string))
          name (List.init n (Fun.const expected)) (kinds c))
  in
  cold "stack: 10 edge entries, nothing else" 10 "edge" (fun ctx ->
      ignore (V.Stack.verify_all_ctx ~ctx ()));
  cold "kv --threads 4: 3 kvedge entries, nothing else" 3 "kvedge" (fun ctx ->
      ignore (Ccal_kv.Kv_stack.verify_ctx ~ctx ~threads:4 ()));
  cold "crash: 2 crash entries, nothing else" 2 "crash" (fun ctx ->
      ignore
        (V.Crash.check_ctx ~ctx
           [ D.Wal.crash_edge (); D.Durable_kv.crash_edge () ]))

(* A store written by a build one cache format older (its payloads were
   other record types) must only miss: [Marshal] would read an old
   payload back unchecked, so such an entry is never even opened — no
   hit, and no invalidation either. *)
let test_older_format_never_read () =
  with_cache (fun c ->
      ignore (V.Stack.verify_all_ctx ~ctx:(V.Ctx.make ~cache:c ()) ());
      List.iter
        (fun f ->
          let i = String.rindex f 'v' in
          let v = int_of_string (String.sub f (i + 1) (String.length f - i - 1)) in
          Sys.rename f (Printf.sprintf "%sv%d" (String.sub f 0 i) (v - 1)))
        (entry_files c);
      let old = V.Cache.create ~dir:(V.Cache.dir c) () in
      ignore (V.Stack.verify_all_ctx ~ctx:(V.Ctx.make ~cache:old ()) ());
      let s = V.Cache.session_stats old in
      check_int "no hit on an older format" 0 s.hits;
      check_int "every edge misses" 10 s.misses;
      check_int "no older entry opened" 0 s.invalidations)

(* ---- the checkers below an edge run live with a store attached ---- *)

(* [run] with a store attached gives what it gives without one, and the
   store sees no lookup, no store and no file. *)
let live_with_store name run =
  with_cache (fun c ->
      let uncached = run V.Ctx.default in
      let cached = run (V.Ctx.make ~cache:c ()) in
      check_bool (name ^ ": same result with a store") true (cached = uncached);
      let s = V.Cache.session_stats c in
      check_int (name ^ ": no lookup") 0 (s.hits + s.misses);
      check_int (name ^ ": no store") 0 s.stores;
      check_int (name ^ ": no entry on disk") 0 (List.length (entry_files c)))

let lock_threads () =
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2 ]

let racy_layer () =
  Layer.make "Lracy"
    [ Layer.shared_prim "collide" (fun c _ _ ->
          Layer.Race (Printf.sprintf "CPU %d collided" c)) ]

let test_races_live () =
  let races layer threads ctx =
    match
      V.Races.check_ctx ~ctx ~scheds:(Sched.default_suite ~seeds:4) layer threads
    with
    | V.Races.Race f -> `Race (f.Failure.f_sched, f.Failure.f_reason)
    | V.Races.Race_free { runs } -> `Race_free runs
    | V.Races.Other_failure msg -> Alcotest.fail msg
    | V.Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"
  in
  live_with_store "racing verdict"
    (races (racy_layer ()) [ 1, Prog.call "collide" [] ]);
  live_with_store "race-free verdict" (races (Ticket_lock.l0 ()) (lock_threads ()))

let test_dpor_live () =
  live_with_store "DPOR walk and replay" (fun ctx ->
      let r =
        V.Budget.value
          (V.Dpor.explore_ctx ~ctx ~depth:4 (Ticket_lock.l0 ()) (lock_threads ()))
      in
      ( r.V.Dpor.prefixes,
        r.V.Dpor.stats,
        List.map (fun (o : Game.outcome) -> o.Game.status) r.V.Dpor.outcomes ))

let test_run_all_live () =
  live_with_store "run_all" (fun ctx ->
      List.map
        (fun (o : Game.outcome) -> o.Game.status, o.Game.steps)
        (V.Budget.value
           (V.Explore.run_all_ctx ~ctx (Ticket_lock.l0 ()) (lock_threads ())
              (Sched.default_suite ~seeds:3))))

let test_refine_live () =
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
        Prog.seq (Prog.call "rel" [ vi 0; v ]) (Prog.ret (vi i)))
  in
  live_with_store "refinement" (fun ctx ->
      match
        V.Budget.value
          (V.Linearizability.refine_ctx ~ctx ~underlay:(Ticket_lock.l0 ())
             ~impl:(Ticket_lock.c_module ()) ~overlay:(Lock_intf.layer "Llock")
             ~rel:Ticket_lock.r_ticket ~client ~tids:[ 1; 2 ]
             ~scheds:(Sched.default_suite ~seeds:4) ())
      with
      | Ok (r : V.Linearizability.report) ->
        r.V.Linearizability.runs, r.V.Linearizability.distinct_logs,
        r.V.Linearizability.events
      | Error _ -> Alcotest.fail "refinement failed")

(* ---- a budget-cut run stores its completed edges; the rerun resumes ---- *)

let canonical_of = function
  | V.Budget.Complete (Ok (p : V.Stack.progress)) ->
    Format.asprintf "%a" (V.Edges.pp ~millis:false V.Stack.layout)
      p.V.Stack.completed.V.Stack.edges
  | V.Budget.Complete (Error f) -> Alcotest.failf "stack failed: %a" Failure.pp f
  | V.Budget.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_budget_cut_run_resumes_at_frontier () =
  with_cache (fun c ->
      let ctx = V.Ctx.with_budget (V.Budget.make ~steps:100 ()) (V.Ctx.make ~cache:c ()) in
      let completed =
        match V.Stack.verify_all_ctx ~ctx () with
        | V.Budget.Exhausted { partial = Ok p; _ } ->
          check_bool "the run stopped at a frontier" true (p.V.Stack.next_edge <> None);
          List.length p.V.Stack.completed.V.Stack.edges
        | V.Budget.Exhausted { partial = Error f; _ } -> Alcotest.failf "%a" Failure.pp f
        | V.Budget.Complete _ -> Alcotest.fail "100 steps did not trip"
      in
      check_bool "some but not all edges completed" true
        (completed >= 1 && completed < 10);
      check_int "each completed edge stored" completed
        (List.length (entry_files c));
      let warm = V.Cache.create ~dir:(V.Cache.dir c) () in
      let resumed =
        canonical_of (V.Stack.verify_all_ctx ~ctx:(V.Ctx.make ~cache:warm ()) ())
      in
      let s = V.Cache.session_stats warm in
      check_int "the completed edges are served from the store" completed s.hits;
      check_int "the rest run live" (10 - completed) s.misses;
      check_string "resumed report = uncached report"
        (canonical_of (V.Stack.verify_all_ctx ~ctx:V.Ctx.default ()))
        resumed)

(* ---- stack edge keys: the invalidation contract ---- *)

(* Names present in both listings whose fingerprints changed. *)
let changed_edges a b =
  List.filter_map
    (fun (n, fp) ->
      match List.assoc_opt n b with
      | Some fp' when not (Fingerprint.equal fp fp') -> Some n
      | _ -> None)
    a

let game_driving_edges =
  [
    "Mx86 refines Lx86[D] (Thm 3.1)";
    "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)";
    "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)";
    "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)";
    "[[producer|consumer]] refines Lipc (blocking paths)";
  ]

let test_edge_keys_deterministic () =
  let a = V.Stack.edge_fingerprints () and b = V.Stack.edge_fingerprints () in
  check_int "ten edges" 10 (List.length a);
  check_bool "same keys across calls" true
    (List.for_all2
       (fun (n, fp) (n', fp') -> n = n' && Fingerprint.equal fp fp')
       a b)

let test_suite_size_invalidates_exactly_game_edges () =
  let base = V.Stack.edge_fingerprints () in
  let changed =
    changed_edges base
      (V.Stack.edge_fingerprints ~strategy:(V.Ctx.Engine.random ~count:5) ())
  in
  Alcotest.(check (list string))
    "exactly the suite-driven edges" game_driving_edges changed

let test_strategy_invalidates_exactly_game_edges () =
  let base = V.Stack.edge_fingerprints () in
  let changed =
    changed_edges base (V.Stack.edge_fingerprints ~strategy:(V.Ctx.Engine.dpor ~depth:4) ())
  in
  Alcotest.(check (list string))
    "exactly the suite-driven edges" game_driving_edges changed

let test_lock_swap_invalidates_exactly_lock_edges () =
  let base = V.Stack.edge_fingerprints () in
  let mcs = V.Stack.edge_fingerprints ~lock:`Mcs () in
  (* the lock's own certification edge is renamed outright *)
  check_bool "ticket edge named" true
    (List.mem_assoc "L0 |- M_ticket : Llock (Fun)" base);
  check_bool "mcs edge named" true
    (List.mem_assoc "L0 |- M_mcs : Llock (Fun)" mcs);
  (* of the edges shared by name, only the lock Pcomp corpus changes: the
     queue stack above is pinned to the ticket lock and the upper layers
     never see the implementation *)
  Alcotest.(check (list string))
    "exactly the Pcomp edge"
    [ "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)" ]
    (changed_edges base mcs)

(* ---- golden keys: a refactor that moves a key orphans every cache ---- *)

(* The hex of every stack, kv and crash edge key, pinned.  These must only
   change on purpose (a [Fingerprint.version] bump or a real change to an
   edge's inputs); a refactor that reorders a key fold silently turns
   every user's store into misses, and only this test notices. *)
let check_golden name expected actual =
  Alcotest.(check (list (pair string string)))
    name expected
    (List.map (fun (n, fp) -> n, Fingerprint.to_hex fp) actual)

let test_stack_keys_golden_ticket_sc () =
  check_golden "ticket/SC edge keys"
    [
      "Mx86 refines Lx86[D] (Thm 3.1)", "2b36505f7fe3476f";
      "L0 |- M_ticket : Llock (Fun)", "2cfa61d4464a6bd2";
      "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)", "0a7ad1901b41d27f";
      "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)", "2f5bddbad2faf624";
      "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)", "22b9478cf373596c";
      "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)", "12fb0735aa6b048a";
      "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)", "3bb9d8403a5441ce";
      "Lmt(spin+cv) |- M_ipc : Lipc (Fun)", "1f2d61eab412e079";
      "[[producer|consumer]] refines Lipc (blocking paths)", "08ae199c469bdd28";
      "Llock |- M_rwlock : Lrwlock (Fun, extension)", "03cdb86fa79920d2";
    ]
    (V.Stack.edge_fingerprints ())

let test_stack_keys_golden_mcs_tso () =
  check_golden "mcs/TSO edge keys"
    [
      "Mx86 refines Lx86[D] (Thm 3.1)", "251cae3bb02228ad";
      "L0 |- M_mcs : Llock (Fun)", "3377fcfcdc1e2b48";
      "Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)", "0f540356b4baf98a";
      "L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)", "1b900b27bf737d64";
      "[[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)", "235deccec7c82e68";
      "Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)", "2f49689fe9f2fd2e";
      "Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)", "238b85afbd3f5fe0";
      "Lmt(spin+cv) |- M_ipc : Lipc (Fun)", "272cd482bc979687";
      "[[producer|consumer]] refines Lipc (blocking paths)", "16d204602cad3af9";
      "Llock |- M_rwlock : Lrwlock (Fun, extension)", "2038219344786998";
    ]
    (V.Stack.edge_fingerprints ~lock:`Mcs ~memory:Memory.Tso ())

let test_kv_keys_golden () =
  check_golden "kv edge keys"
    [
      "Llock |- M_kv(shards=2) : Lmap", "248e233da0e867d8";
      "Lcache_disk |- M_cache(entries=2) : Lmap[get,put]", "2d2c44a702af94b7";
      "Llock+cache |- M_cache(entries=2) . M_kv(shards=2) : Lmap[get,put]", "356396782bfdd809";
    ]
    (Ccal_kv.Kv_stack.fingerprints ())

(* The key of each crash edge, read off the store a cold run of that
   edge alone fills (["crash-<key>.v<format>"]). *)
let crash_keys ?(jobs = 1) ?strategy ~threads () =
  List.map
    (fun (e : V.Crash.edge) ->
      with_cache (fun c ->
          (match
             V.Crash.check_ctx ~ctx:(V.Ctx.make ~jobs ~cache:c ?strategy ()) [ e ]
           with
          | V.Budget.Complete (Ok _) -> ()
          | _ -> Alcotest.failf "crash edge %s did not certify" e.V.Crash.name);
          match entry_files c with
          | [ f ] -> e.V.Crash.name, String.sub (Filename.basename f) 6 16
          | fs -> Alcotest.failf "%d entries for one edge" (List.length fs)))
    [ Ccal_disk.Wal.crash_edge ~threads (); Ccal_disk.Durable_kv.crash_edge ~threads () ]

let test_crash_keys_golden () =
  let dpor depth = V.Ctx.Engine.dpor ~depth in
  let check name expected actual =
    Alcotest.(check (list (pair string string))) name expected actual
  in
  check "crash edge keys, default"
    [ "wal", "244a11e3387e4fba"; "durable-kv", "0dabda0b9114b012" ]
    (crash_keys ~threads:2 ());
  let t3 = crash_keys ~strategy:(dpor 10) ~threads:3 () in
  check "crash edge keys, 3 threads, dpor:10"
    [ "wal", "30f38ea9f2259314"; "durable-kv", "3b594088fd3b2dbc" ]
    t3;
  check "jobs take no part" t3 (crash_keys ~jobs:4 ~strategy:(dpor 10) ~threads:3 ());
  List.iter
    (fun (what, strategy) ->
      List.iter2
        (fun (n, k) (_, k') -> check_bool (n ^ ": " ^ what) true (k <> k'))
        t3 (crash_keys ~strategy ~threads:3 ()))
    [ "dpor:9 moves the key", dpor 9;
      "dpor:10,sym moves the key", { (dpor 10) with V.Ctx.Engine.sym = true } ]

(* ---- warm stack run: bit-identical report, every jobs count ---- *)

let canonical = function
  | Ok r -> Format.asprintf "%a" (V.Edges.pp ~millis:false V.Stack.layout) r.V.Stack.edges
  | Error f -> Alcotest.failf "stack failed: %a" Failure.pp f

let test_stack_warm_equals_cold () =
  let dir = fresh_dir () in
  let cold_cache = V.Cache.create ~dir () in
  Fun.protect ~finally:(fun () -> cleanup cold_cache) (fun () ->
      let cold =
        canonical
          (Result.map
             (fun (p : V.Stack.progress) -> p.V.Stack.completed)
             (V.Budget.value
                (V.Stack.verify_all_ctx ~ctx:(V.Ctx.make ~cache:cold_cache ())
                   ~strategy:(V.Ctx.Engine.random ~count:2) ())))
      in
      let s = V.Cache.session_stats cold_cache in
      check_int "cold run has no hits" 0 s.hits;
      check_bool "cold run populates the store" true (s.stores > 0);
      List.iter
        (fun jobs ->
          let warm_cache = V.Cache.create ~dir () in
          let warm =
            canonical
              (Result.map
                 (fun (p : V.Stack.progress) -> p.V.Stack.completed)
                 (V.Budget.value
                    (V.Stack.verify_all_ctx
                       ~ctx:(V.Ctx.make ~jobs ~cache:warm_cache ())
                       ~strategy:(V.Ctx.Engine.random ~count:2) ())))
          in
          check_string (Printf.sprintf "warm report identical (j=%d)" jobs)
            cold warm;
          let w = V.Cache.session_stats warm_cache in
          check_int "every edge served from the store" 10 w.hits;
          check_int "no warm misses" 0 w.misses)
        [ 1; 2 ])

(* ---- a hit did no work: it carries no counters ----

   A row is stored without its telemetry counters and a hit reports
   none, so a warm run prints the same whichever way the store was
   filled: a store filled under telemetry never lends a later run its
   stale [schedules_run], and a warm run under telemetry never shows
   counters for work it did not do. *)

(* The kv stack's canonical report, over [cache] if any, under telemetry when
   [stats]. *)
let kv_report ?cache ~stats () =
  let run () =
    match Ccal_kv.Kv_stack.verify_ctx ~ctx:(V.Ctx.make ?cache ()) ~threads:4 () with
    | V.Budget.Complete (Ok r) ->
      Format.asprintf "%a" (V.Edges.pp ~millis:false Ccal_kv.Kv_stack.layout)
        r.Ccal_kv.Kv_stack.edges
    | _ -> Alcotest.fail "kv stack did not certify"
  in
  if not stats then run ()
  else begin
    V.Telemetry.reset ();
    V.Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        V.Telemetry.disable ();
        V.Telemetry.reset ())
      run
  end

(* The warm report of a store filled with or without telemetry. *)
let warm_kv_report ~filled_with_stats ~stats =
  with_cache (fun c ->
      ignore (kv_report ~cache:c ~stats:filled_with_stats ());
      kv_report ~cache:(V.Cache.create ~dir:(V.Cache.dir c) ()) ~stats ())

let test_hit_without_stats_has_no_counters () =
  let uncached = kv_report ~stats:false () in
  check_string "store filled under telemetry: a plain warm run prints no counters"
    uncached (warm_kv_report ~filled_with_stats:true ~stats:false)

let test_hit_under_stats_has_no_counters () =
  let plain = kv_report ~stats:false () in
  check_bool "an uncached run under telemetry prints counters" true
    (kv_report ~stats:true () <> plain);
  List.iter
    (fun filled_with_stats ->
      check_string
        (Printf.sprintf "store filled %s telemetry: a warm run under it prints no counters"
           (if filled_with_stats then "under" else "without"))
        plain
        (warm_kv_report ~filled_with_stats ~stats:true))
    [ false; true ]

let suite =
  [
    tc "fingerprints are stable" test_fingerprint_stable;
    tc "fingerprints are sensitive" test_fingerprint_sensitive;
    tc "store roundtrip and counters" test_roundtrip;
    tc "kinds keep payload types apart" test_kind_separates_payloads;
    tc "corrupt entry is a miss, then gone" test_corrupt_entry_recovered;
    tc "truncated entry is a miss, then gone" test_truncated_entry_recovered;
    tc "corrupt crash-kind entry rechecks live, never stale"
      test_crash_kind_corrupt_rechecks;
    tc "clear empties the store" test_clear;
    tc "a cold run stores whole edges only" test_one_cache_level;
    tc "an older cache format is never read" test_older_format_never_read;
    tc "race checks run live with a store attached" test_races_live;
    tc "DPOR explores live with a store attached" test_dpor_live;
    tc "run_all runs live with a store attached" test_run_all_live;
    tc "refinement runs live with a store attached" test_refine_live;
    tc "a budget-cut run resumes at its first unfinished edge"
      test_budget_cut_run_resumes_at_frontier;
    tc "edge keys deterministic" test_edge_keys_deterministic;
    tc "suite size invalidates exactly the game edges"
      test_suite_size_invalidates_exactly_game_edges;
    tc "strategy invalidates exactly the game edges" test_strategy_invalidates_exactly_game_edges;
    tc "lock swap invalidates exactly the lock edges" test_lock_swap_invalidates_exactly_lock_edges;
    tc "stack edge keys pinned (ticket, SC)" test_stack_keys_golden_ticket_sc;
    tc "stack edge keys pinned (mcs, TSO)" test_stack_keys_golden_mcs_tso;
    tc "kv edge keys pinned" test_kv_keys_golden;
    tc "crash edge keys pinned; they move with the descriptor, not jobs"
      test_crash_keys_golden;
    tc "warm stack run equals cold (jobs 1, 2)" test_stack_warm_equals_cold;
    tc "a hit from a store filled under telemetry has no counters"
      test_hit_without_stats_has_no_counters;
    tc "a hit under telemetry has no counters, however the store was filled"
      test_hit_under_stats_has_no_counters;
  ]
