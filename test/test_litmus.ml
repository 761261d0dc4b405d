(* The memory-model test matrix (DESIGN.md S29): the litmus conformance
   suite pinning the x86-TSO outcome tables per mode, the erased-buffering
   projection, the DRF guarantee as a QCheck property, the deliberately
   unfenced negative controls, and the SC/TSO edge-key separation. *)
open Ccal_core
open Ccal_objects
open Util
module A = Ccal_machine.Atomic
module P = Ccal_machine.Pushpull
module T = Ccal_machine.Tso
module L = Ccal_machine.Litmus
module V = Ccal_verify

(* The report of [t] under [memory]: each test runs under both modes. *)
let run ?(ctx = V.Ctx.default) memory t =
  let sc, tso = List.hd (V.Litmus.run_both ~tests:[ t ] ~ctx ()) in
  if Memory.equal memory Memory.Sc then sc else tso

(* The whole corpus under both modes, run once for every conformance case. *)
let corpus = lazy (V.Litmus.run_both ~ctx:V.Ctx.default ())

let outcomes_testable : int list list Alcotest.testable =
  Alcotest.(list (list int))

(* ---- corpus sanity: the hand-derived tables have the x86-TSO shape ---- *)

let test_corpus_shape () =
  check_int "nine tests" 9 (List.length L.tests);
  List.iter
    (fun (t : L.test) ->
      check_bool
        (t.L.name ^ ": fenced flag matches name")
        t.L.fenced
        (String.length t.L.name > 7
        && String.sub t.L.name (String.length t.L.name - 7) 7 = "+mfence");
      check_bool
        (t.L.name ^ ": sc is a subset of tso")
        true
        (List.for_all (fun o -> List.mem o t.L.tso) t.L.sc))
    L.tests;
  (* store->load is the only TSO reordering: exactly SB and R gain an
     outcome, and each gains exactly one *)
  let gains (t : L.test) =
    List.filter (fun o -> not (List.mem o t.L.sc)) t.L.tso
  in
  List.iter
    (fun (t : L.test) ->
      match t.L.name with
      | "SB" -> Alcotest.check outcomes_testable "SB gains (0,0)" [ [ 0; 0 ] ] (gains t)
      | "R" -> Alcotest.check outcomes_testable "R gains (0,2)" [ [ 0; 2 ] ] (gains t)
      | _ ->
        Alcotest.check outcomes_testable
          (t.L.name ^ " coincides with SC")
          [] (gains t))
    L.tests

let test_corpus_find () =
  check_bool "find SB" true (L.find "SB" <> None);
  check_bool "find IRIW" true (L.find "IRIW" <> None);
  check_bool "find nonsense" true (L.find "WRC" = None);
  let sb = Option.get (L.find "SB") in
  Alcotest.check outcomes_testable "expected Sc = sc table" sb.L.sc
    (L.expected Memory.Sc sb);
  Alcotest.check outcomes_testable "expected Tso = tso table" sb.L.tso
    (L.expected Memory.Tso sb)

let test_iriw_table () =
  (* IRIW pins multi-copy atomicity: all 16 register tuples except the
     one where the two readers disagree on the store order *)
  let iriw = Option.get (L.find "IRIW") in
  check_int "15 outcomes" 15 (List.length iriw.L.tso);
  check_bool "forbidden tuple absent" false (List.mem [ 1; 0; 1; 0 ] iriw.L.tso);
  Alcotest.check outcomes_testable "SC = TSO for IRIW" iriw.L.sc iriw.L.tso

(* ---- conformance: reachable outcomes = expected tables, both modes ---- *)

let conformance_case (t : L.test) memory () =
  let sc, tso =
    List.find (fun ((sc : V.Litmus.report), _) -> sc.V.Litmus.name = t.L.name)
      (Lazy.force corpus)
  in
  let r = if Memory.equal memory Memory.Sc then sc else tso in
  Alcotest.check Alcotest.(list string) (t.L.name ^ ": no errors") [] r.V.Litmus.errors;
  Alcotest.check outcomes_testable
    (t.L.name ^ ": reachable outcomes are the allowed ones")
    r.V.Litmus.expected r.V.Litmus.observed;
  check_bool (t.L.name ^ ": exact conformance") true (V.Litmus.ok r)

let conformance_cases =
  List.concat_map
    (fun (t : L.test) ->
      [
        tc (t.L.name ^ " conforms under SC") (conformance_case t Memory.Sc);
        tc (t.L.name ^ " conforms under TSO") (conformance_case t Memory.Tso);
      ])
    L.tests

let test_fenced_reconverges () =
  (* the +mfence variants pin that the fence removes exactly the
     TSO-only outcome: their TSO set is the unfenced SC set *)
  List.iter
    (fun name ->
      let fenced = Option.get (L.find (name ^ "+mfence")) in
      let plain = Option.get (L.find name) in
      let r = run Memory.Tso fenced in
      check_bool (name ^ "+mfence ok") true (V.Litmus.ok r);
      Alcotest.check outcomes_testable
        (name ^ "+mfence under TSO = " ^ name ^ " under SC")
        plain.L.sc r.V.Litmus.observed)
    [ "SB"; "R" ]

let test_run_both_table () =
  let pairs = Lazy.force corpus in
  check_int "one pair per test" (List.length L.tests) (List.length pairs);
  List.iter
    (fun ((sc_r : V.Litmus.report), (tso_r : V.Litmus.report)) ->
      check_bool (sc_r.V.Litmus.name ^ " sc mode") true
        (Memory.equal sc_r.V.Litmus.memory Memory.Sc);
      check_bool (tso_r.V.Litmus.name ^ " tso mode") true
        (Memory.equal tso_r.V.Litmus.memory Memory.Tso);
      check_bool "both conform" true (V.Litmus.ok sc_r && V.Litmus.ok tso_r))
    pairs;
  (* the CI artifact renders and mentions the TSO-only SB outcome *)
  let table = Format.asprintf "%a" V.Litmus.pp_table pairs in
  check_bool "table nonempty" true (String.length table > 0)

(* ---- jobs-identity: the TSO report is the same at jobs 1 and 4 ---- *)

let test_jobs_identity () =
  List.iter
    (fun name ->
      let t = Option.get (L.find name) in
      let run jobs =
        run ~ctx:(V.Ctx.make ~jobs ()) Memory.Tso t
      in
      check_bool (name ^ ": report identical at jobs 1 and 4") true
        (run 1 = run 4))
    [ "SB"; "MP"; "IRIW" ]

(* ---- erase_buffering: the projection litmus outcome extraction reuses ---- *)

let test_erase_drops_buffering () =
  let l =
    log_of
      [
        ev ~args:[ vi 1; vi 5 ] 1 T.buf_store_tag;
        ev ~args:[ vi 9 ] 2 "noise";
        ev ~args:[ vi 1; vi 5; vi 1 ] (Memory.flusher_tid 1) T.commit_tag;
        ev ~args:[] 1 T.mfence_tag;
      ]
  in
  let erased = Log.chronological (T.erase_buffering l) in
  check_int "two events survive" 2 (List.length erased);
  (match erased with
  | [ noise; store ] ->
    check_string "noise preserved" "noise" noise.Event.tag;
    check_string "commit becomes astore" A.astore_tag store.Event.tag;
    check_int "astore attributed to the cpu, not the flusher" 1
      store.Event.src;
    Alcotest.check
      Alcotest.(list value_testable)
      "astore args are (cell, value)"
      [ vi 1; vi 5 ]
      store.Event.args
  | _ -> Alcotest.fail "unexpected erased shape");
  (* the erased log replays like an SC log *)
  (match A.replay_cell 1 (T.erase_buffering l) with
  | Ok v -> check_int "cell 1 holds 5 after erasure" 5 v
  | Error e -> Alcotest.failf "replay failed: %s" e)

let test_erase_positions_store_at_commit () =
  (* the store becomes visible at the commit position: a load between
     issue and commit still reads the old value after erasure *)
  let l =
    log_of
      [
        ev ~args:[ vi 1; vi 5 ] 1 T.buf_store_tag;
        ev ~args:[ vi 1 ] ~ret:(vi 0) 2 A.aload_tag;
        ev ~args:[ vi 1; vi 5; vi 1 ] (Memory.flusher_tid 1) T.commit_tag;
      ]
  in
  match Log.chronological (T.erase_buffering l) with
  | [ load; store ] ->
    check_string "load first" A.aload_tag load.Event.tag;
    check_string "store second" A.astore_tag store.Event.tag
  | _ -> Alcotest.fail "unexpected erased shape"

let test_erase_identity_on_sc_logs () =
  let l =
    log_of
      [
        ev ~args:[ vi 1; vi 5 ] 1 A.astore_tag;
        ev ~args:[ vi 1 ] ~ret:(vi 5) 2 A.aload_tag;
        ev ~args:[ vi 3 ] 1 "tick";
      ]
  in
  Alcotest.check log_testable "no buffering tags: erasure is the identity" l
    (T.erase_buffering l)

(* An object relation adapted to a memory mode: under TSO the buffering
   events vanish outright, under SC the relation is untouched. *)
let test_under_memory_erases_buffering () =
  let l =
    log_of
      [
        ev ~args:[ vi 2; vi 7 ] 1 T.buf_store_tag;
        ev ~args:[ vi 3 ] 2 "tick";
        ev ~args:[ vi 2; vi 7; vi 1 ] 1 T.commit_tag;
        ev 1 T.mfence_tag;
      ]
  in
  Alcotest.check log_testable "tso keeps only the object event"
    (log_of [ ev ~args:[ vi 3 ] 2 "tick" ])
    (Sim_rel.apply (T.under_memory Memory.Tso Sim_rel.id) l);
  Alcotest.check log_testable "sc is the relation itself" l
    (Sim_rel.apply (T.under_memory Memory.Sc Sim_rel.id) l)

(* ---- the DRF guarantee as a property: race-free push/pull programs
   behave identically on the SC and TSO machines ---- *)

(* Race-free by construction: thread [tid] owns shared location [4 + tid]
   (push/pull-disciplined) and private cells [100 + 10*tid + k] (astore).
   Every op either runs a critical section on its own location or hits a
   private cell; no location is touched by two threads, so the program is
   DRF and the x86-TSO theorem promises SC behaviour. *)
let prog_of_ops tid ops =
  let loc = 4 + tid in
  let cell k = 100 + (10 * tid) + (k mod 3) in
  let op_prog i op =
    match op mod 3 with
    | 0 ->
      (* critical section: pull, bump, push *)
      Prog.bind
        (Prog.call P.pull_tag [ vi loc ])
        (fun v ->
          let n = match v with Value.Vint n -> n | _ -> 0 in
          Prog.call P.push_tag [ vi loc; vi (n + 1) ])
    | 1 -> Prog.call A.astore_tag [ vi (cell i); vi (tid + i) ]
    | _ -> Prog.call A.aload_tag [ vi (cell i) ]
  in
  Prog.seq
    (Prog.seq_all (List.mapi op_prog ops))
    (* return the last value of our first private cell: forwarding from
       the store buffer must agree with SC *)
    (Prog.bind (Prog.call A.aload_tag [ vi (cell 0) ]) Prog.ret)

let qcheck_drf =
  qtc ~count:60 "DRF programs: TSO behaviour = SC behaviour"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5) (int_bound 20))
        (list_of_size Gen.(1 -- 5) (int_bound 20)))
    (fun (ops1, ops2) ->
      let threads = [ 1, prog_of_ops 1 ops1; 2, prog_of_ops 2 ops2 ] in
      let scheds =
        [ Sched.round_robin; Sched.random ~seed:7; Sched.random ~seed:23 ]
      in
      match
        judge_all ~memory:Memory.Tso (T.layer ()) threads
          (T.judge_sc_equivalence threads) scheds
      with
      | Ok n -> n > 0
      | Error f -> QCheck.Test.fail_reportf "not SC-equivalent: %a" Failure.pp f)

(* ---- negative controls: the unfenced variants break under TSO ---- *)

let negative_ctx memory = V.Ctx.make ~memory ~strategy:(V.Ctx.Engine.dpor ~depth:10) ()

let verdict_str = function
  | V.Races.Race_free { runs } -> Printf.sprintf "race-free (%d runs)" runs
  | V.Races.Race f -> "race on " ^ f.Failure.f_sched
  | V.Races.Other_failure m -> "failure: " ^ m
  | V.Races.Exhausted _ -> "exhausted"

let races memory ~fenced variant =
  V.Races.check_ctx ~ctx:(negative_ctx memory) (Unfenced.layer memory)
    (Unfenced.threads ~fenced variant)

let test_unfenced_race_free_under_sc () =
  List.iter
    (fun variant ->
      match races Memory.Sc ~fenced:false variant with
      | V.Races.Race_free { runs } ->
        check_bool (Unfenced.variant_name variant ^ ": ran schedules") true
          (runs > 0)
      | v ->
        Alcotest.failf "%s under SC: expected race-free, got %s"
          (Unfenced.variant_name variant) (verdict_str v))
    Unfenced.variants

let test_unfenced_races_under_tso () =
  List.iter
    (fun variant ->
      match races Memory.Tso ~fenced:false variant with
      | V.Races.Race f ->
        check_bool
          (Unfenced.variant_name variant ^ ": violation names a schedule")
          true
          (String.length f.Failure.f_sched > 0);
        check_bool
          (Unfenced.variant_name variant ^ ": violation is a data race")
          true
          (String.length f.Failure.f_reason > 0)
      | v ->
        Alcotest.failf "%s under TSO: expected a race, got %s"
          (Unfenced.variant_name variant) (verdict_str v))
    Unfenced.variants

let test_fenced_race_free_both_modes () =
  List.iter
    (fun variant ->
      List.iter
        (fun memory ->
          match races memory ~fenced:true variant with
          | V.Races.Race_free _ -> ()
          | v ->
            Alcotest.failf "%s fenced under %s: expected race-free, got %s"
              (Unfenced.variant_name variant)
              (Memory.to_string memory)
              (verdict_str v))
        [ Memory.Sc; Memory.Tso ])
    Unfenced.variants

(* ---- failures replay deterministically: the same racing schedule
   across jobs counts, and the same crash point cold and warm, because a
   failing edge is never cached ---- *)

let scratch_counter = ref 0

let with_cache f =
  incr scratch_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-litmus-cache-%d-%d" (Unix.getpid ())
         !scratch_counter)
  in
  let c = V.Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      ignore (V.Cache.clear c);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f c)

let race_name ~jobs =
  let ctx =
    V.Ctx.make ~memory:Memory.Tso ~strategy:(V.Ctx.Engine.dpor ~depth:10) ~jobs ()
  in
  match
    V.Races.check_ctx ~ctx (Unfenced.layer Memory.Tso)
      (Unfenced.threads Unfenced.Trylock)
  with
  | V.Races.Race f -> f.Failure.f_sched
  | v -> Alcotest.failf "expected a race, got %s" (verdict_str v)

let test_race_deterministic_across_jobs () =
  let s1 = race_name ~jobs:1 in
  let s4 = race_name ~jobs:4 in
  check_string "same failing schedule at jobs 1 and 4" s1 s4

(* The unsynced WAL edge fails; its crash point, as the failure names
   it. *)
let unsynced_failure cache =
  match
    V.Crash.check_ctx ~ctx:(V.Ctx.make ~cache ())
      [ Ccal_disk.Wal.crash_edge ~unsynced:true () ]
  with
  | V.Budget.Complete (Error f) -> V.Crash.(f.f_edge, f.f_index, f.f_sched)
  | _ -> Alcotest.fail "the unsynced WAL edge must fail"

let test_race_never_cached () =
  with_cache (fun cache ->
      let cold = unsynced_failure cache in
      check_int "no entry stored for the failing edge" 0
        (V.Cache.disk_stats cache).entries;
      let warm = unsynced_failure cache in
      check_bool "cold and warm runs replay the same failure" true (cold = warm))

(* ---- SC/TSO edge-key separation: the memory mode enters every key ---- *)

let test_stack_keys_separate_modes () =
  let sc = V.Stack.edge_fingerprints ~memory:Memory.Sc () in
  let tso = V.Stack.edge_fingerprints ~memory:Memory.Tso () in
  check_int "same edges" (List.length sc) (List.length tso);
  List.iter2
    (fun (name_sc, fp_sc) (name_tso, fp_tso) ->
      check_string "same edge order" name_sc name_tso;
      check_bool (name_sc ^ ": SC and TSO keys differ") false
        (Fingerprint.equal fp_sc fp_tso))
    sc tso

let test_shared_cache_keeps_modes_apart () =
  (* one store, both modes: the TSO stack run finds none of the edges
     the SC run stored, and the SC run still finds all of its own *)
  with_cache (fun cache ->
      let stack memory =
        let c = V.Cache.create ~dir:(V.Cache.dir cache) () in
        match
          V.Stack.verify_all_ctx ~ctx:(V.Ctx.make ~memory ~cache:c ()) ()
        with
        | V.Budget.Complete (Ok _) -> V.Cache.session_stats c
        | _ -> Alcotest.failf "%s stack failed" (Memory.to_string memory)
      in
      check_int "sc stores every edge" 10 (stack Memory.Sc).V.Cache.stores;
      let tso = stack Memory.Tso in
      check_int "tso hits nothing the sc run stored" 0 tso.V.Cache.hits;
      check_int "tso stores its own edges" 10 tso.V.Cache.stores;
      check_int "sc warm hits every edge" 10 (stack Memory.Sc).V.Cache.hits)

(* ---- flusher pseudo-threads ---- *)

let test_flusher_tids () =
  check_int "flusher of cpu 1" (-2) (Memory.flusher_tid 1);
  check_bool "is_flusher" true (Memory.is_flusher (Memory.flusher_tid 3));
  check_bool "real tids are not flushers" false (Memory.is_flusher 3)

let test_flusher_threads_synthesis () =
  let threads = Unfenced.threads Unfenced.Trylock in
  let tso_layer = T.machine_layer Memory.Tso in
  let fl = Game.pseudo_threads ~memory:Memory.Tso tso_layer threads in
  check_int "one flusher per thread" (List.length threads) (List.length fl);
  List.iter
    (fun (tid, _) -> check_bool "flusher tid negative" true (tid < 0))
    fl;
  check_int "none under SC" 0
    (List.length
       (Game.pseudo_threads ~memory:Memory.Sc tso_layer threads));
  check_int "none for an unbuffered layer" 0
    (List.length
       (Game.pseudo_threads ~memory:Memory.Tso
          (T.machine_layer Memory.Sc) threads))

let suite =
  [
    tc "litmus corpus has the x86-TSO shape" test_corpus_shape;
    tc "litmus find/expected" test_corpus_find;
    tc "IRIW pins multi-copy atomicity" test_iriw_table;
  ]
  @ conformance_cases
  @ [
      tc "mfence re-converges SB and R onto SC" test_fenced_reconverges;
      tc "run_both produces the per-mode table" test_run_both_table;
      tc "TSO litmus reports identical at jobs 1 and 4" test_jobs_identity;
      tc "erase_buffering drops buffering, keeps the rest"
        test_erase_drops_buffering;
      tc "erase_buffering places stores at their commit"
        test_erase_positions_store_at_commit;
      tc "erase_buffering is the identity on SC logs"
        test_erase_identity_on_sc_logs;
      tc "under_memory erases buffering only under TSO"
        test_under_memory_erases_buffering;
      qcheck_drf;
      tc "unfenced variants are race-free under SC"
        test_unfenced_race_free_under_sc;
      tc "unfenced variants race under TSO" test_unfenced_races_under_tso;
      tc "fenced variants are race-free under both modes"
        test_fenced_race_free_both_modes;
      tc "failing schedule is stable across jobs counts"
        test_race_deterministic_across_jobs;
      tc "failures are never cached and replay warm"
        test_race_never_cached;
      tc "stack edge keys separate SC from TSO"
        test_stack_keys_separate_modes;
      tc "a shared cache never crosses memory modes"
        test_shared_cache_keeps_modes_apart;
      tc "flusher tid arithmetic" test_flusher_tids;
      tc "flusher synthesis is gated on mode and layer"
        test_flusher_threads_synthesis;
    ]
