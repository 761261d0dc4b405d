(* Tests for the robustness layer (S27): step and deadline budgets,
   partial results, and deterministic fault injection —
   the [Ctx]-threaded API.

   The contract under test: a budget never changes a completed verdict
   (it only truncates how much gets established), a {e step} budget
   truncates at the same schedule prefix for every jobs count, and an
   armed fault plan (worker crashes, cache corruption, clock skew,
   oversized entries) leaves every verdict bit-identical to the
   fault-free run. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util

let jobs_grid = [ 1; 2; 4; 7 ]

(* The race-free workhorse game: two ticket-lock clients over L0. *)
let game () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  ( layer,
    [ 1, Prog.Module.link m (client 1); 2, Prog.Module.link m (client 2) ] )

let suite () = Sched.default_suite ~seeds:4

let races_check ctx =
  let layer, threads = game () in
  Races.check_ctx ~ctx ~scheds:(suite ()) layer threads

(* The step cost of the suite's first schedule, measured on the real
   game: a budget of [first + 1] lets exactly one schedule through the
   deterministic re-truncation (the second overshoots the allowance). *)
let first_sched_steps () =
  let layer, threads = game () in
  let o = Game.run (Game.config layer threads (List.hd (suite ()))) in
  o.Game.steps

let fresh_ctx budget = Ctx.with_budget budget Ctx.default

(* ---- Budget plumbing ---- *)

let test_budget_outcome_helpers () =
  let spent =
    { Budget.elapsed_ms = 1.0; steps_used = 9; reason = `Steps }
  in
  check_int "value of Complete" 3 (Budget.value (Budget.Complete 3));
  check_int "value of Exhausted" 4
    (Budget.value (Budget.Exhausted { spent; partial = 4 }));
  check_int "map reaches the partial" 8
    (Budget.value (Budget.map (( * ) 2) (Budget.Exhausted { spent; partial = 4 })));
  check_bool "make () is unlimited" true (Budget.make () = Budget.unlimited);
  check_bool "negative steps clamp to instantly exhausted" true
    (Budget.poll (Budget.start (Budget.make ~steps:(-1) ())));
  check_bool "the shared no_token never trips" false (Budget.poll Budget.no_token)

let test_fault_parse () =
  (match Fault.parse "crash:0.1,corrupt-cache:0.05,seed:7" with
  | Ok p ->
    check_int "seed" 7 p.Fault.seed;
    check_bool "crash rate" true (p.Fault.crash = 0.1);
    check_bool "corrupt rate" true (p.Fault.corrupt = 0.05);
    check_bool "not none" false (Fault.is_none p)
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  check_bool "unknown kind rejected" true
    (Result.is_error (Fault.parse "explode:0.5"));
  check_bool "bad rate rejected" true (Result.is_error (Fault.parse "crash:lots"));
  check_bool "none is none" true (Fault.is_none Fault.none)

(* Faults and budgets are attached by their builders only. *)
let test_ctx_make_is_unarmed () =
  let ctx = Ctx.make ~jobs:2 () in
  check_bool "no faults" true (Fault.is_none ctx.Ctx.faults);
  check_bool "unlimited budget" true (ctx.Ctx.budget = Budget.unlimited);
  check_bool "with_faults arms the plan" false
    (Fault.is_none
       (Ctx.with_faults (Result.get_ok (Fault.parse "crash:0.5,seed:3")) ctx).Ctx.faults)

(* ---- a spent deadline ---- *)

let test_deadline_preempts_scan () =
  match races_check (fresh_ctx (Budget.make ~ms:0. ())) with
  | Races.Exhausted { spent; partial } ->
    check_bool "reason is the deadline" true (spent.Budget.reason = `Deadline);
    check_int "nothing scanned" 0 partial.Races.scanned
  | _ -> Alcotest.fail "a spent deadline still produced a full verdict"

(* ---- step-budget determinism ---- *)

let test_step_budget_truncates_deterministically () =
  (* budget = exactly the first schedule's cost: the scan admits games
     until the cumulative cost reaches the allowance, so the second
     schedule is cut before it runs *)
  let b = Budget.make ~steps:(first_sched_steps ()) () in
  let partial_at jobs =
    match races_check (Ctx.with_jobs jobs (fresh_ctx b)) with
    | Races.Exhausted { spent; partial } ->
      check_bool "reason is the step budget" true (spent.Budget.reason = `Steps);
      partial
    | _ -> Alcotest.fail "step budget did not trip"
  in
  let oracle = partial_at 1 in
  check_int "exactly the first schedule fits" 1 oracle.Races.scanned;
  check_int "and it was clean" 1 oracle.Races.clean;
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "partial at jobs=%d = sequential" jobs) true
        (partial_at jobs = oracle))
    jobs_grid

(* ---- a temporary edge store ---- *)

let with_cache f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-test-robust-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  let c = Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Cache.clear c);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f c)

(* ---- fault injection: verdicts bit-identical to the fault-free run ---- *)

let fault_free () = races_check Ctx.default

let test_crash_faults_keep_verdict () =
  let plan = Result.get_ok (Fault.parse "crash:0.5,seed:3") in
  let oracle = fault_free () in
  List.iter
    (fun jobs ->
      let v = races_check (Ctx.with_faults plan (Ctx.with_jobs jobs Ctx.default)) in
      check_bool
        (Printf.sprintf "crash-injected verdict at jobs=%d = fault-free" jobs)
        true (v = oracle))
    jobs_grid

(* The suite is uncut (the ticket lock is race-free), so every schedule
   is played exactly once on every jobs count: the pool's workers must
   walk the same attempt chains as the sequential scan, crash for
   crash. *)
let test_crash_faults_reach_the_pool () =
  let plan = Result.get_ok (Fault.parse "crash:0.5,seed:3") in
  let oracle = fault_free () in
  check_bool "the suite is uncut" true
    (match oracle with Races.Race_free _ -> true | _ -> false);
  let crashes jobs =
    Fault.reset_stats ();
    let v = races_check (Ctx.with_faults plan (Ctx.with_jobs jobs Ctx.default)) in
    check_bool
      (Printf.sprintf "crash-injected verdict at jobs=%d = fault-free" jobs)
      true (v = oracle);
    (Fault.stats ()).Fault.crashes
  in
  let sequential = crashes 1 in
  check_bool "crashes fired at jobs=1" true (sequential > 0);
  check_int "jobs=4 crashes = jobs=1 crashes" sequential (crashes 4)

let test_skew_faults_keep_verdict () =
  let plan = Result.get_ok (Fault.parse "skew:0.5,seed:5") in
  let oracle = fault_free () in
  let v = races_check (Ctx.with_faults plan Ctx.default) in
  check_bool "skewed-clock verdict = fault-free" true (v = oracle)

(* The cache faults strike the one level that stores: the crash edge of
   the WAL.  Its canonical report must match the fault-free one. *)
let crash_report ctx =
  match Crash.check_ctx ~ctx [ Ccal_disk.Wal.crash_edge () ] with
  | Budget.Complete (Ok r) -> Format.asprintf "%a" (Edges.pp ~millis:false Crash.layout) r.Crash.edges
  | Budget.Complete (Error f) -> Alcotest.failf "%a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_corrupt_cache_faults_keep_verdict () =
  with_cache (fun c ->
      let plan = Result.get_ok (Fault.parse "corrupt-cache:1.0,seed:11") in
      let oracle = crash_report Ctx.default in
      let ctx = Ctx.with_faults plan (Ctx.with_cache c Ctx.default) in
      (* first run stores a corrupted entry; the second finds it
         undeserializable, invalidates and re-runs live *)
      check_string "cold corrupted run = fault-free" oracle (crash_report ctx);
      check_string "warm-over-corruption run = fault-free" oracle
        (crash_report ctx);
      check_int "the corrupted entry was invalidated" 1
        (Cache.session_stats c).invalidations)

let test_oversize_cache_faults_keep_verdict () =
  with_cache (fun c ->
      let plan = Result.get_ok (Fault.parse "oversize:1.0,seed:13") in
      let oracle = crash_report Ctx.default in
      let ctx = Ctx.with_faults plan (Ctx.with_cache c Ctx.default) in
      check_string "cold oversized run = fault-free" oracle (crash_report ctx);
      (* oversized payloads still deserialize: the warm run hits *)
      check_string "warm oversized run = fault-free" oracle (crash_report ctx);
      check_int "the oversized entry served the warm run" 1
        (Cache.session_stats c).hits)

(* ---- the other budgeted checkers ---- *)

let test_linearizability_budget_exhausts () =
  match Object_intf.certify Ticket_lock.recipe () with
  | Error e ->
    Alcotest.failf "certify failed: %s" (Format.asprintf "%a" Failure.pp e)
  | Ok cert -> (
    let client i =
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
    in
    let ctx =
      Ctx.with_strategy (Ctx.Engine.random ~count:2)
        (fresh_ctx (Budget.make ~steps:1 ()))
    in
    match Linearizability.refine_cert_ctx ~ctx cert ~client with
    | Budget.Exhausted { spent; partial = Ok r } ->
      check_bool "reason is the step budget" true (spent.Budget.reason = `Steps);
      check_int "no schedule fit the one-step budget" 0
        r.Linearizability.runs
    | Budget.Exhausted { partial = Error _; _ } ->
      Alcotest.fail "an exhausted prefix is Ok-shaped by construction"
    | Budget.Complete _ -> Alcotest.fail "one-step budget did not trip")

let test_stack_zero_budget_reports_first_edge () =
  let ctx = fresh_ctx (Budget.make ~steps:0 ()) in
  match Stack.verify_all_ctx ~ctx ~strategy:(Ctx.Engine.random ~count:1) () with
  | Budget.Exhausted { partial = Ok p; _ } ->
    check_int "no edge completed" 0 (List.length p.Stack.completed.Stack.edges);
    check_bool "the frontier names the first edge" true
      (p.Stack.next_edge <> None)
  | Budget.Exhausted { partial = Error f; _ } ->
    Alcotest.failf "partial progress is Ok-shaped: %a" Failure.pp f
  | Budget.Complete _ -> Alcotest.fail "zero budget did not trip"

(* The linking edges run on the one budgeted scan: each Thm 3.1 game is
   charged its steps, so 100 steps cannot cover the 64 games of
   exhaustive:6 and the frontier is the first edge, at the same
   deterministic step total on every jobs count. *)
let test_stack_step_budget_stops_in_linking_edge () =
  let run jobs =
    let ctx = Ctx.with_budget (Budget.make ~steps:100 ()) (Ctx.make ~jobs ()) in
    match
      Stack.verify_all_ctx ~ctx ~strategy:(Ctx.Engine.exhaustive ~depth:6) ()
    with
    | Budget.Exhausted { spent; partial = Ok p } ->
      check_bool
        (Printf.sprintf "jobs=%d: the frontier is the Thm 3.1 edge" jobs)
        true
        (p.Stack.next_edge = Some "Mx86 refines Lx86[D] (Thm 3.1)");
      spent.Budget.steps_used
    | Budget.Exhausted { partial = Error f; _ } ->
      Alcotest.failf "partial progress is Ok-shaped: %a" Failure.pp f
    | Budget.Complete _ -> Alcotest.fail "100 steps did not trip"
  in
  check_int "steps used at jobs=4 = jobs=1" (run 1) (run 4)

(* The ISSUE acceptance criterion: the deliberately livelocking rwlock
   edge — the spinning C loops phase-lock with the trace-prefix
   schedulers and burn the whole fuel allowance — must come back as an
   [Exhausted] report well under 5 s once a deadline budget is set. *)
let test_stack_livelock_bounded_by_budget () =
  let ctx = fresh_ctx (Budget.make ~ms:1500. ()) in
  let outcome, ms =
    Verify_clock.timed (fun () ->
        Stack.verify_all_ctx ~ctx ~strategy:(Ctx.Engine.random ~count:2)
          ~adversarial:true ())
  in
  check_bool
    (Printf.sprintf "budgeted livelock run returned in %.0f ms (< 5000)" ms)
    true (ms < 5000.);
  match outcome with
  | Budget.Exhausted { spent; partial = Ok p } ->
    check_bool "reason is the deadline" true (spent.Budget.reason = `Deadline);
    check_bool "the completed edges made progress" true
      (List.length p.Stack.completed.Stack.edges >= 1);
    check_bool "the frontier is the adversarial edge" true
      (p.Stack.next_edge
       = Some "Lrwlock spin suite under adversarial schedules (livelock)")
  | Budget.Exhausted { partial = Error f; _ } ->
    Alcotest.failf "partial progress is Ok-shaped: %a" Failure.pp f
  | Budget.Complete _ ->
    Alcotest.fail "the livelocking edge completed under a 1.5 s budget?"

let suite =
  [
    tc "budget: outcome helpers and clamping" test_budget_outcome_helpers;
    tc "fault: --inject spec parsing" test_fault_parse;
    tc "ctx: make arms no faults and no budget" test_ctx_make_is_unarmed;
    tc "a spent deadline preempts the scan" test_deadline_preempts_scan;
    tc "step budget truncates identically on the jobs grid"
      test_step_budget_truncates_deterministically;
    tc "crash injection keeps the verdict (jobs grid)"
      test_crash_faults_keep_verdict;
    tc "crash injection reaches the pool's workers"
      test_crash_faults_reach_the_pool;
    tc "clock-skew injection keeps the verdict" test_skew_faults_keep_verdict;
    tc "cache-corruption injection keeps the verdict"
      test_corrupt_cache_faults_keep_verdict;
    tc "oversized-entry injection keeps the verdict"
      test_oversize_cache_faults_keep_verdict;
    tc "linearizability budget exhausts Ok-shaped"
      test_linearizability_budget_exhausts;
    tc "stack: zero budget reports the first edge"
      test_stack_zero_budget_reports_first_edge;
    tc "stack: rwlock livelock bounded by --budget-ms"
      test_stack_livelock_bounded_by_budget;
    tc "stack: step budget stops inside the Thm 3.1 edge"
      test_stack_step_budget_stops_in_linking_edge;
  ]
