(* Tests for the robustness layer (S27): step and deadline budgets and
   partial results — the [Ctx]-threaded API.

   The contract under test: budgets, jobs counts and cache state never
   change a verdict (a budget only truncates how much gets established),
   and a {e step} budget truncates at the same schedule prefix for every
   jobs count. *)
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
  check_bool "make () is unlimited" true
    (Budget.make () = { Budget.ms = None; steps = None });
  check_bool "negative steps clamp to instantly exhausted" true
    (Budget.poll (Budget.start (Budget.make ~steps:(-1) ())));
  check_bool "the shared no_token never trips" false (Budget.poll Budget.no_token)

(* A budget is attached by its builder only. *)
let test_ctx_make_is_unarmed () =
  let ctx = Ctx.make ~jobs:2 () in
  check_bool "unlimited budget" true (ctx.Ctx.token == Budget.no_token)

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

(* ---- jobs counts never change a verdict ---- *)

let test_verdict_jobs_invariant () =
  let oracle = races_check Ctx.default in
  check_bool "the ticket clients are race-free" true
    (match oracle with Races.Race_free _ -> true | _ -> false);
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "verdict at jobs=%d = sequential" jobs) true
        (races_check (Ctx.with_jobs jobs Ctx.default) = oracle))
    jobs_grid

(* Nothing in the scan retries a game: every schedule of an uncut suite
   is played and judged exactly once, on every jobs count. *)
let test_each_schedule_judged_once () =
  let layer, threads = game () in
  let judged jobs =
    let calls = Atomic.make 0 in
    let steps =
      Budget.value
        (Parallel.games ~ctx:(Ctx.make ~jobs ()) layer threads
           (fun _ o ->
             Atomic.incr calls;
             o.Game.steps)
           (suite ()))
    in
    Atomic.get calls, steps
  in
  let calls, steps = judged 1 in
  check_int "one judgment per schedule at jobs=1" (List.length (suite ())) calls;
  List.iter
    (fun jobs ->
      let calls', steps' = judged jobs in
      check_int (Printf.sprintf "one judgment per schedule at jobs=%d" jobs)
        calls calls';
      check_bool (Printf.sprintf "same plays at jobs=%d" jobs) true
        (steps' = steps))
    jobs_grid

(* ---- the clock ---- *)

(* Verifier timings are differences of monotonic readings, taken as they
   are: successive readings never go backwards. *)
let test_clock_monotonic () =
  let readings = List.init 1_000 (fun _ -> Verify_clock.now_ns ()) in
  check_bool "readings never go backwards" true
    (List.for_all2 (fun a b -> Int64.compare a b <= 0)
       (List.filteri (fun i _ -> i < 999) readings)
       (List.tl readings));
  let (), ms = Verify_clock.timed ignore in
  check_bool "a timed no-op takes no negative time" true (ms >= 0.)

(* ---- the token is the one budget of a context ---- *)

let test_ctx_builders_keep_the_token () =
  let ctx = fresh_ctx (Budget.make ~steps:0 ()) in
  check_bool "with_budget attaches a running token" true (Budget.poll ctx.Ctx.token);
  List.iter
    (fun (what, ctx') ->
      check_bool (what ^ " keeps the token") true (ctx'.Ctx.token == ctx.Ctx.token))
    [
      "with_jobs", Ctx.with_jobs 4 ctx;
      "with_strategy", Ctx.with_strategy (Ctx.Engine.random ~count:2) ctx;
      "with_memory", Ctx.with_memory Memory.Tso ctx;
    ];
  check_bool "a later with_budget restarts it" false
    (Budget.poll (Ctx.with_budget (Budget.make ()) ctx).Ctx.token)

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

let stack_report ctx =
  match Stack.verify_all_ctx ~ctx ~strategy:(Ctx.Engine.random ~count:2) () with
  | Budget.Complete (Ok p) ->
    Format.asprintf "%a" (Edges.pp ~millis:false Stack.layout)
      p.Stack.completed.Stack.edges
  | Budget.Complete (Error f) -> Alcotest.failf "%a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

(* A corrupted store is a store of misses: with every entry of a filled
   store overwritten with junk, a jobs 4 run invalidates all ten,
   rechecks them live and reports what a clean jobs 1 run reports. *)
let test_corrupted_store_rechecks_live () =
  with_cache (fun c ->
      let clean = stack_report Ctx.default in
      ignore (stack_report (Ctx.make ~jobs:4 ~cache:c ()));
      Array.iter
        (fun f ->
          let oc = open_out (Filename.concat (Cache.dir c) f) in
          output_string oc "not a certificate";
          close_out oc)
        (Sys.readdir (Cache.dir c));
      let c' = Cache.create ~dir:(Cache.dir c) () in
      check_string "report over the corrupted store = clean jobs 1 report" clean
        (stack_report (Ctx.make ~jobs:4 ~cache:c' ()));
      let s = Cache.session_stats c' in
      check_int "no hits" 0 s.hits;
      check_int "every edge a miss" 10 s.misses;
      check_int "every entry invalidated" 10 s.invalidations)

(* The store writes a payload as it is: a warm crash run is served whole
   from it, at every jobs count, and equals the live report. *)
let crash_report ctx =
  match Crash.check_ctx ~ctx [ Ccal_disk.Wal.crash_edge () ] with
  | Budget.Complete (Ok r) ->
    Format.asprintf "%a" (Edges.pp ~millis:false Crash.layout) r.Crash.edges
  | Budget.Complete (Error f) -> Alcotest.failf "%a" Failure.pp f
  | Budget.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_warm_crash_run_served_whole () =
  with_cache (fun c ->
      let live = crash_report Ctx.default in
      check_string "cold run = live" live (crash_report (Ctx.with_cache c Ctx.default));
      List.iter
        (fun jobs ->
          let c' = Cache.create ~dir:(Cache.dir c) () in
          check_string (Printf.sprintf "warm run at jobs=%d = live" jobs) live
            (crash_report (Ctx.make ~jobs ~cache:c' ()));
          let s = Cache.session_stats c' in
          check_int "the edge is a hit" 1 s.hits;
          check_int "no misses" 0 s.misses)
        [ 1; 4 ])

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
    tc "ctx: make arms no budget" test_ctx_make_is_unarmed;
    tc "a spent deadline preempts the scan" test_deadline_preempts_scan;
    tc "step budget truncates identically on the jobs grid"
      test_step_budget_truncates_deterministically;
    tc "jobs counts never change a verdict" test_verdict_jobs_invariant;
    tc "each schedule is judged once on the jobs grid"
      test_each_schedule_judged_once;
    tc "verifier clock readings never go backwards" test_clock_monotonic;
    tc "ctx: builders keep the token, with_budget restarts it"
      test_ctx_builders_keep_the_token;
    tc "a corrupted store rechecks live, report = clean run"
      test_corrupted_store_rechecks_live;
    tc "a warm crash run is served whole from the store"
      test_warm_crash_run_served_whole;
    tc "linearizability budget exhausts Ok-shaped"
      test_linearizability_budget_exhausts;
    tc "stack: zero budget reports the first edge"
      test_stack_zero_budget_reports_first_edge;
    tc "stack: rwlock livelock bounded by --budget-ms"
      test_stack_livelock_bounded_by_budget;
    tc "stack: step budget stops inside the Thm 3.1 edge"
      test_stack_step_budget_stops_in_linking_edge;
  ]
