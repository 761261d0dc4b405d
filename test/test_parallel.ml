(* Tests for the multicore checking subsystem (S24): the domain-pool
   executor itself, and — the property the whole design hangs on — that
   every checker verdict is structurally identical for every jobs count,
   including failing verdicts on seeded buggy layers.  The jobs grid
   {1, 2, 4, 7} deliberately oversubscribes small hosts: determinism must
   not depend on the core count. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util
module C = Ccal_clight.Csyntax

let jobs_grid = [ 1; 2; 4; 7 ]

(* Structural equality across the grid: [run jobs] must return the same
   value for every entry as for the sequential oracle [run 1]. *)
let check_jobs_invariant name run =
  let oracle = run 1 in
  List.iter
    (fun jobs ->
      check_bool (Printf.sprintf "%s: jobs=%d = sequential" name jobs) true
        (run jobs = oracle))
    jobs_grid

(* ---- the executor ---- *)

let seq_scan ~cut f xs =
  let rec go = function
    | [] -> []
    | x :: r ->
      let y = f x in
      if cut y then [ y ] else y :: go r
  in
  go xs

let prop_unbudgeted_scan_is_seq_scan =
  qtc "Parallel.games, unbudgeted = sequential early-exit scan"
    QCheck.(pair (oneofl [ 1; 2; 4; 7 ]) (small_list small_int))
    (fun (jobs, xs) ->
      let cut y = y mod 5 = 0 in
      let f x = x * 3 in
      scan ~jobs ~cut f xs = seq_scan ~cut f xs)

(* the scan with no cut evaluates every job *)
let prop_uncut_scan_is_list_map =
  qtc "Parallel.games with no cut = List.map (any jobs)"
    QCheck.(pair (oneofl [ 1; 2; 4; 7 ]) (small_list small_int))
    (fun (jobs, xs) ->
      scan ~jobs (fun x -> (x * 2) + 1) xs
      = List.map (fun x -> (x * 2) + 1) xs)

exception Boom of int

let test_exception_lowest_index () =
  (* several jobs raise; whatever domain finishes first, the exception
     surfaced must be the lowest-indexed one, as List.map's would be *)
  let xs = List.init 40 Fun.id in
  let f x = if x mod 7 = 3 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match scan ~jobs f xs with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        check_int (Printf.sprintf "jobs=%d raises at 3" jobs) 3 i)
    jobs_grid

let test_oversubscribed_pool () =
  (* more domains than jobs, and more jobs than domains, both fine *)
  check_bool "jobs > length" true
    (scan ~jobs:16 succ [ 1; 2; 3 ] = [ 2; 3; 4 ]);
  let xs = List.init 500 Fun.id in
  check_bool "length >> jobs" true (scan ~jobs:2 succ xs = List.map succ xs)

let test_stats_monotone () =
  let before = (Parallel.stats ()).Parallel.jobs_run in
  ignore (scan ~jobs:2 succ (List.init 64 Fun.id));
  let after = (Parallel.stats ()).Parallel.jobs_run in
  check_bool "jobs_run grew" true (after >= before + 64)

(* ---- races: collection semantics and cross-jobs determinism ---- *)

(* A layer where thread 1 fails for an ordinary (non-race) reason and
   threads 2/3 race through push/pull: the checker must keep scanning past
   the non-race failure and report the race. *)
let mixed_layer () =
  Layer.make "Lmixed"
    (Ccal_machine.Pushpull.prims
    @ [
        Layer.shared_prim "trap" (fun _ _ _ ->
            Layer.Stuck "ordinary failure, not a race");
      ])

let mixed_threads () =
  let grab i = Prog.seq (Prog.call "pull" [ vi 7 ]) (Prog.ret (vi i)) in
  [ 1, Prog.call "trap" []; 2, grab 2; 3, grab 3 ]

let mixed_scheds () =
  [ Sched.of_trace ~tag:"other-first" [ 1 ]; Sched.of_trace ~tag:"racy" [ 2; 3 ] ]

let test_race_found_after_other_failure () =
  match
    Races.check_ctx ~ctx:Ctx.default ~scheds:(mixed_scheds ()) (mixed_layer ())
      (mixed_threads ())
  with
  | Races.Race f -> check_string "the later schedule" "racy:[2,3]" f.Failure.f_sched
  | Races.Other_failure msg ->
    Alcotest.failf "non-race failure aborted the scan: %s" msg
  | Races.Race_free _ -> Alcotest.fail "race missed"
  | Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_other_failures_collected () =
  (* no race anywhere: the first failure is reported, annotated with the
     rest of the evidence *)
  let scheds =
    [ Sched.of_trace ~tag:"trap-a" [ 1 ]; Sched.of_trace ~tag:"trap-b" [ 1 ] ]
  in
  let layer = mixed_layer () in
  match
    Races.check_ctx ~ctx:Ctx.default ~scheds layer [ 1, Prog.call "trap" [] ]
  with
  | Races.Other_failure msg ->
    check_bool "mentions the further failure" true
      (String.length msg > 0
      && String.length msg > String.length "ordinary failure")
  | Races.Race _ -> Alcotest.fail "misclassified as race"
  | Races.Race_free _ -> Alcotest.fail "failures dropped"
  | Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_races_verdict_jobs_invariant () =
  check_jobs_invariant "races mixed" (fun jobs ->
      Races.check_ctx ~ctx:(Ctx.make ~jobs ()) ~scheds:(mixed_scheds ())
        (mixed_layer ()) (mixed_threads ()))

let test_races_clean_jobs_invariant () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  let threads = List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2 ] in
  check_jobs_invariant "races clean ticket" (fun jobs ->
      (* trace/random schedulers are single-use: regenerate per run *)
      Races.check_ctx ~ctx:(Ctx.make ~jobs ())
        ~scheds:(Sched.default_suite ~seeds:6) layer threads)

(* ---- progress ---- *)

let test_progress_jobs_invariant_ok () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ])
  in
  let threads = List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2; 3 ] in
  check_jobs_invariant "progress ok" (fun jobs ->
      Budget.value
        (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs ())
           ~scheds:(Sched.default_suite ~seeds:8) ~bound:2_000 layer threads))

let test_progress_jobs_invariant_failing () =
  (* every schedule starves the spinner; the reported failure must name
     the lowest-indexed schedule for every jobs count *)
  let layer = Ccal_machine.Mx86.layer () in
  let rec spin () =
    Prog.bind (Prog.call "aload" [ vi 0 ]) (fun v ->
        if Value.to_int v = 1 then Prog.ret_unit else spin ())
  in
  let result =
    check_jobs_invariant "progress starvation" (fun jobs ->
        Budget.value
          (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs ())
             ~scheds:(Sched.default_suite ~seeds:5) ~bound:200 layer
             [ 1, spin () ]))
  in
  (match
     Budget.value
       (Progress.completes_within_ctx ~ctx:(Ctx.make ~jobs:4 ())
          ~scheds:(Sched.default_suite ~seeds:5) ~bound:200 layer
          [ 1, spin () ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "starvation not detected");
  result

let test_default_jobs () =
  (* an empty value counts as unset, so putting back "" undoes the test
     when the variable was not set *)
  let saved = Option.value (Sys.getenv_opt "CCAL_JOBS") ~default:"" in
  let with_env v =
    Unix.putenv "CCAL_JOBS" v;
    Parallel.default_jobs ()
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "CCAL_JOBS" saved)
    (fun () ->
      check_bool "CCAL_JOBS=3" true (with_env "3" = Ok 3);
      check_bool "CCAL_JOBS=' 4 '" true (with_env " 4 " = Ok 4);
      check_bool "empty CCAL_JOBS = unset" true
        (with_env "" = Ok (Domain.recommended_domain_count ()));
      List.iter
        (fun bad ->
          match with_env bad with
          | Ok n -> Alcotest.failf "CCAL_JOBS=%s accepted as %d" bad n
          | Error msg ->
            check_string "error names the value"
              (Printf.sprintf "CCAL_JOBS=%s: expected a positive integer" bad)
              msg)
        [ "abc"; "0"; "-2"; "1.5" ])

(* ---- linearizability / refinement ---- *)

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let test_linearizability_jobs_invariant_ok () =
  match Object_intf.certify Ticket_lock.recipe () with
  | Error e -> Alcotest.failf "%a" Failure.pp e
  | Ok cert ->
    check_jobs_invariant "linearizability ok" (fun jobs ->
        Budget.value
          (check_cert ~ctx:(Ctx.make ~jobs ())
             ~scheds:(full_suite ~tids:[ 1; 2 ] ~depth:3 ~random:4)
             cert ~client:lock_client))

(* The seeded bug of test_verify_injection: rel forgets inc_n, so a second
   acquire starves.  The refinement failure must be identical (same
   schedule, same reason, same logs) for every jobs count. *)
let broken_rel_no_inc =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body = C.seq [ C.call_ "push" [ C.v "b"; C.v "v" ]; C.return_unit ];
  }

let test_refinement_failure_jobs_invariant () =
  (* the ticket lock's recipe with only the focused implementation
     replaced: the rivals keep running the correct lock *)
  let c_module () =
    Ccal_clight.Csem.module_of_fns [ Ticket_lock.acq_fn; broken_rel_no_inc ]
  in
  match
    Object_intf.certify { Ticket_lock.recipe with c_module } ~focus:[ 1 ] ()
  with
  | Error _ -> () (* caught even earlier; nothing to parallelise *)
  | Ok cert ->
    let client i =
      Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.call "acq" [ vi 0 ]))
    in
    let run jobs =
      refine_cert ~ctx:(Ctx.make ~jobs ()) ~max_steps:5_000 cert ~client
        ~scheds:(Sched.default_suite ~seeds:3)
    in
    check_jobs_invariant "broken-lock refinement failure" run;
    (match run 4 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "missing inc_n not caught in parallel")

(* ---- dpor / explore ---- *)

let ticket_game () =
  let m = Ticket_lock.c_module () in
  Ticket_lock.l0 (),
  List.map (fun i -> i, Prog.Module.link m (lock_client i)) [ 1; 2 ]

let test_dpor_explore_jobs_invariant () =
  let layer, threads = ticket_game () in
  check_jobs_invariant "dpor explore (outcomes and stats)" (fun jobs ->
      let r =
        Budget.value
          (Dpor.explore_ctx ~ctx:(Ctx.make ~jobs ()) ~depth:4 layer threads)
      in
      r.Dpor.prefixes, List.map (fun o -> o.Game.log) r.Dpor.outcomes, r.Dpor.stats)

let test_explore_run_all_jobs_invariant () =
  let layer, threads = ticket_game () in
  check_jobs_invariant "run_all logs" (fun jobs ->
      List.map
        (fun o -> o.Game.status, o.Game.log, o.Game.results)
        (Budget.value
           (Explore.run_all_ctx ~ctx:(Ctx.make ~jobs ()) layer threads
              (Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth:4))))

(* ---- the whole stack ---- *)

let test_stack_report_jobs_invariant () =
  (* timing fields differ by construction; everything else must not *)
  let strip (r : Stack.report) =
    List.map (fun (e : Edges.row) -> e.Edges.name, e.Edges.label, e.Edges.counts)
      r.Stack.edges,
    r.Stack.total_checks
  in
  check_jobs_invariant "stack verify_all" (fun jobs ->
      match
        Result.map
          (fun (p : Stack.progress) -> p.Stack.completed)
          (Budget.value
             (Stack.verify_all_ctx ~ctx:(Ctx.make ~jobs ())
                ~strategy:(Ctx.Engine.random ~count:2) ()))
      with
      | Ok r -> Ok (strip r)
      | Error _ as e -> e)

(* ---- the game loop ([Game.run]) ----

   The one play loop under every checker, tested directly: a golden
   digest of a fixed corpus of outcomes, truncation by the stop closure,
   and the protocol for threads found blocked. *)

let replay_game kind n =
  match kind with
  | 0 ->
    (* event-emitting counters: every move appends to the log *)
    let tick i =
      Prog.seq
        (Prog.call "tick" [ vi 1 ])
        (Prog.bind (Prog.call "read" [ vi 1 ]) (fun _ -> Prog.ret (vi i)))
    in
    counter_layer (), List.init n (fun k -> k + 1, tick (k + 1))
  | 1 ->
    (* blocking: contending threads hit [Layer.Block], deadlock possible *)
    Lock_intf.layer "Llock", List.init n (fun k -> k + 1, lock_client (k + 1))
  | _ ->
    (* racing: concurrent pulls of one location get structurally stuck *)
    let grab i = Prog.seq (Prog.call "pull" [ vi 7 ]) (Prog.ret (vi i)) in
    ( Layer.make "Lpp" Ccal_machine.Pushpull.prims,
      List.init n (fun k -> k + 1, grab (k + 1)) )

(* Build a fresh config per play: trace schedulers and stop closures are
   single-use state.  The stop closure trips on its [k+1]-th poll. *)
let replay_config ?stop_after ?log_switches ~max_steps ~check_guar kind n
    trace =
  let layer, threads = replay_game kind n in
  let stop =
    Option.map
      (fun k ->
        let polls = ref 0 in
        fun () ->
          incr polls;
          !polls > k)
      stop_after
  in
  Game.config ~max_steps ?log_switches ~check_guar ?stop layer threads
    (Sched.of_trace trace)

let gen_replay_case =
  QCheck.(
    quad (int_range 0 2) (int_range 1 4)
      (list_of_size Gen.(0 -- 12) (int_range 0 5))
      (int_range 1 40))

(* Everything an outcome carries, as text. *)
let render_outcome (o : Game.outcome) =
  let results =
    List.map
      (fun (i, v) -> Printf.sprintf "%d=%s" i (Value.to_string v))
      o.Game.results
  in
  let violations =
    List.map
      (fun (i, l) -> Printf.sprintf "%d@%s" i (log_string l))
      o.Game.guar_violations
  in
  Format.asprintf "%a | %a | %s | %d | %d | %s" Game.pp_status o.Game.status
    Log.pp o.Game.log (String.concat "," results) o.Game.steps
    o.Game.silent_steps (String.concat ";" violations)

(* A fixed corpus of 300 plays over the three families.  A linear
   congruential stream (not [Random], whose sequence may change between
   compiler releases) draws each play's family, trace, fuel, guarantee
   checking, switch logging and stop point; the thread count changes
   between consecutive plays. *)
let golden_corpus () =
  let state = ref 2018 in
  let draw bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
    (!state lsr 12) mod bound
  in
  let n = ref 1 in
  List.init 300 (fun _ ->
      n := 1 + ((!n + draw 3) mod 4);
      let n = !n in
      let kind = draw 3 in
      let trace = List.init (draw 13) (fun _ -> draw 6) in
      let max_steps = 1 + draw 40 in
      let check_guar = draw 2 = 0 in
      let log_switches = draw 4 = 0 in
      let stop_after = if draw 4 = 0 then Some (draw 21) else None in
      fun () ->
        replay_config ?stop_after ~log_switches ~max_steps ~check_guar kind n
          trace)

(* Recorded when this corpus was played by both the list-based loop and
   the array-based loop of the earlier game module, which agreed on
   every outcome.  A change here is a change of game semantics. *)
let golden_digest = "b9806b13b09267ff575702179e0d98d1"

let test_golden_outcomes () =
  let rendered =
    List.map (fun mk -> render_outcome (Game.run (mk ()))) (golden_corpus ())
  in
  check_string "digest of 300 outcomes" golden_digest
    (Digest.to_hex (Digest.string (String.concat "\n" rendered)))

(* A second corpus, through ClightX: 200 plays of the ticket, MCS and
   queue C modules linked over their L0 layers (L0_ticket lists twelve
   primitives, so every move looks one up), at 1-4 threads with short
   traces and fuel.  Drawn from the same kind of LCG stream. *)
let clight_corpus () =
  let state = ref 2019 in
  let draw bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
    (!state lsr 12) mod bound
  in
  let queue_client i =
    Prog.bind (Prog.call "enQ_s" [ vi 0; vi (10 * i) ]) (fun _ ->
        Prog.call "deQ_s" [ vi 0 ])
  in
  List.init 200 (fun _ ->
      let kind = draw 3 in
      let n = 1 + draw 4 in
      let trace = List.init (draw 13) (fun _ -> draw 5) in
      let max_steps = 1 + draw 60 in
      fun () ->
        let layer, m, client =
          match kind with
          | 0 -> Ticket_lock.l0 (), Ticket_lock.c_module (), lock_client
          | 1 -> Mcs_lock.l0 (), Mcs_lock.c_module (), lock_client
          | _ -> Queue_shared.underlay (), Queue_shared.c_module (), queue_client
        in
        let threads =
          List.init n (fun k -> k + 1, Prog.Module.link m (client (k + 1)))
        in
        Game.config ~max_steps layer threads (Sched.of_trace trace))

(* Recorded on the AST-walking ClightX interpreter, before the C bodies
   were compiled to closures.  A change here is a change of ClightX
   semantics. *)
let clight_digest = "d45616648f5fa4f32c4f5af0aca75fd0"

let test_clight_golden_outcomes () =
  let rendered =
    List.map (fun mk -> render_outcome (Game.run (mk ()))) (clight_corpus ())
  in
  check_string "digest of 200 ClightX outcomes" clight_digest
    (Digest.to_hex (Digest.string (String.concat "\n" rendered)))

(* Cache keys of edges certified from C code fold [Fingerprint.prog] of
   the module bodies: pin it over every object's C module, on arguments
   of each arity up to three. *)
let c_modules () =
  [
    Ticket_lock.c_module ();
    Mcs_lock.c_module ();
    Queue_shared.c_module ();
    Queue_local.c_module ();
    Qlock.c_module ();
    Rwlock.c_module ();
    Condvar.c_module ();
    Barrier.c_module ();
  ]

let fingerprint_args = [ []; [ vi 0 ]; [ vi 1; vi 2 ]; [ vi 0; vi 1; vi 2 ] ]

let c_module_fingerprints () =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun name ->
          let body = Option.get (Prog.Module.find name m) in
          List.map
            (fun args ->
              match body args with
              | p ->
                Fingerprint.to_hex
                  (Fingerprint.finish (Fingerprint.prog Fingerprint.empty p))
              | exception e -> Printexc.to_string e)
            fingerprint_args)
        (Prog.Module.names m))
    (c_modules ())

let fingerprint_digest = "c2ae8c7fc4894ae0fb137df47b10045a"

let test_c_module_fingerprints () =
  check_string "digest of C module fingerprints" fingerprint_digest
    (Digest.to_hex (Digest.string (String.concat "\n" (c_module_fingerprints ()))))

let rec is_prefix xs ys =
  match xs, ys with
  | [], _ -> true
  | x :: xs, y :: ys -> Event.equal x y && is_prefix xs ys
  | _ :: _, [] -> false

let prop_truncation_is_prefix =
  (* the stop closure trips on poll k+1, i.e. before move k, if the full
     play polls that often: only a play that ends by finishing or by
     fuel makes its last move without a poll after it *)
  qtc "Game.run: a stop after k polls is the full play cut at move k"
    QCheck.(pair gen_replay_case (int_range 0 20))
    (fun ((kind, n, trace, max_steps), k) ->
      let full = Game.run (replay_config ~max_steps ~check_guar:true kind n trace) in
      let cut =
        Game.run
          (replay_config ~stop_after:k ~max_steps ~check_guar:true kind n trace)
      in
      let polls_after_k =
        k < full.Game.steps
        || k = full.Game.steps
           && match full.Game.status with
              | Game.Deadlock _ | Game.Stuck _ -> true
              | Game.All_done | Game.Out_of_fuel | Game.Cancelled -> false
      in
      if polls_after_k then
        cut.Game.status = Game.Cancelled
        && cut.Game.steps = k
        && is_prefix (Log.chronological cut.Game.log)
             (Log.chronological full.Game.log)
      else cut = full)

(* A scheduler that records every offer as [(step, runnable, chosen)],
   choosing like [inner]. *)
let recording inner =
  let offers = ref [] in
  let inner = Sched_oracle.pick inner in
  let pick ~step log ~runnable =
    let chosen =
      match inner ~step log ~runnable with
      | Some i when List.mem i runnable -> i
      | Some _ | None -> List.hd runnable
    in
    offers := (step, runnable, chosen) :: !offers;
    Some chosen
  in
  Sched.Custom { name = "recording"; pick }, fun () -> List.rev !offers

(* The offers of one play, grouped by move: [(runnable, chosen) list]
   per step, in order. *)
let offers_by_step offers =
  let rec go = function
    | [] -> []
    | (s, _, _) :: _ as all ->
      let here, rest = List.partition (fun (s', _, _) -> s' = s) all in
      List.map (fun (_, r, c) -> r, c) here :: go rest
  in
  go offers

let test_blocked_protocol () =
  (* Within a move, a pick that blocked leaves the next offer and nothing
     else does; at the next move every thread blocked in this one is
     offered again — only the mover itself may have finished. *)
  let blocked_picks = ref 0 in
  List.iter
    (fun (n, seed) ->
      let sched, offers = recording (Sched.random ~seed) in
      let threads = List.init n (fun k -> k + 1, lock_client (k + 1)) in
      let o = Game.run (Game.config (Lock_intf.layer "Llock") threads sched) in
      check_bool "play finishes" true (o.Game.status = Game.All_done);
      let moves = offers_by_step (offers ()) in
      check_int "one group of offers per move" o.Game.steps (List.length moves);
      let rec check = function
        | [] -> ()
        | move :: later ->
          let rec within = function
            | (r, c) :: ((r', _) :: _ as rest) ->
              incr blocked_picks;
              check_bool "a blocked pick leaves the offer" true
                (r' = List.filter (( <> ) c) r);
              within rest
            | [ _ ] | [] -> ()
          in
          within move;
          (match later with
          | ((next, _) :: _) :: _ ->
            let first, _ = List.hd move in
            let _, mover = List.hd (List.rev move) in
            check_bool "blocked threads are offered again" true
              (next = first || next = List.filter (( <> ) mover) first)
          | _ -> ());
          check later
      in
      check moves)
    (List.concat_map (fun n -> List.init 10 (fun seed -> n, seed)) [ 2; 3; 4 ]);
  check_bool "some picks blocked" true (!blocked_picks > 0)

let test_deadlock_lists_pending_in_thread_order () =
  (* each thread takes the lock and finishes holding it: thread 1 moves
     first, and the rest, listed out of id order, all block; after 1 the
     scheduler takes the first thread offered *)
  let hold i = Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.ret (vi i)) in
  let threads = List.map (fun i -> i, hold i) [ 4; 1; 3; 2 ] in
  let first_1 =
    Sched.Custom { name = "1 first";
      pick = (fun ~step:_ _ ~runnable -> if List.mem 1 runnable then Some 1 else None) }
  in
  let sched, offers = recording first_1 in
  let o = Game.run (Game.config (Lock_intf.layer "Llock") threads sched) in
  check_bool "deadlock of the pending threads in thread order" true
    (o.Game.status = Game.Deadlock [ 4; 3; 2 ]);
  check_bool "the finished holder's result is kept" true
    (o.Game.results = [ 1, vi 1 ]);
  match List.rev (offers_by_step (offers ())) with
  | last :: _ ->
    check_bool "the last move offers each pending thread once" true
      (last = [ [ 4; 3; 2 ], 4; [ 3; 2 ], 3; [ 2 ], 2 ])
  | [] -> Alcotest.fail "no offers recorded"

let test_budgeted_races_exhausted_jobs_invariant () =
  (* a step budget that trips mid-scan: the Exhausted partial (scanned
     count, clean count, failure list) and the deterministic spent fields
     must be identical for every jobs count; elapsed_ms is wall-clock and
     excluded by construction *)
  let layer = Lock_intf.layer "Llock" in
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  check_jobs_invariant "races Exhausted partial" (fun jobs ->
      let ctx = Ctx.with_budget (Budget.make ~steps:400 ()) (Ctx.make ~jobs ()) in
      match
        Races.check_ctx ~ctx
          ~scheds:(Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:4)
          layer threads
      with
      | Races.Exhausted { spent; partial } ->
        `Exhausted (spent.Budget.reason, spent.Budget.steps_used, partial)
      | v -> `Verdict v)

let suite =
  [
    prop_uncut_scan_is_list_map;
    prop_unbudgeted_scan_is_seq_scan;
    tc "exceptions surface at the lowest index" test_exception_lowest_index;
    tc "oversubscribed pools" test_oversubscribed_pool;
    tc "stats are monotone" test_stats_monotone;
    tc "default_jobs: CCAL_JOBS must be a positive integer" test_default_jobs;
    tc "races: race found past a non-race failure" test_race_found_after_other_failure;
    tc "races: non-race failures collected" test_other_failures_collected;
    tc "races: mixed verdict jobs-invariant" test_races_verdict_jobs_invariant;
    tc "races: clean verdict jobs-invariant" test_races_clean_jobs_invariant;
    tc "progress: report jobs-invariant" test_progress_jobs_invariant_ok;
    tc "progress: starvation jobs-invariant" test_progress_jobs_invariant_failing;
    tc "linearizability: report jobs-invariant" test_linearizability_jobs_invariant_ok;
    tc "refinement: failure jobs-invariant" test_refinement_failure_jobs_invariant;
    tc "dpor: explore jobs-invariant" test_dpor_explore_jobs_invariant;
    tc "explore: run_all jobs-invariant" test_explore_run_all_jobs_invariant;
    tc "stack: report jobs-invariant" test_stack_report_jobs_invariant;
    tc "game: golden outcomes of a fixed corpus" test_golden_outcomes;
    tc "game: golden outcomes of a ClightX corpus" test_clight_golden_outcomes;
    tc "fingerprint: C module bodies pinned" test_c_module_fingerprints;
    prop_truncation_is_prefix;
    tc "game: blocked threads leave the move, not the game"
      test_blocked_protocol;
    tc "game: deadlock lists pending threads in thread order"
      test_deadlock_lists_pending_in_thread_order;
    tc "races: Exhausted partial jobs-invariant"
      test_budgeted_races_exhausted_jobs_invariant;
  ]
