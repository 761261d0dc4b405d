(* The edge reports of DESIGN.md S26/S27, pinned byte for byte.

   The canonical (timing-free) report is the text [--report] writes and
   the CI cache and jobs legs compare with [cmp]; those legs only check
   that two runs agree.  These goldens fix the text itself: the column
   layout of each checker, the totals line, and what a budget-cut run
   lists. *)

open Ccal_core
open Ccal_verify

let canonical layout rows = Format.asprintf "%a" (Edges.pp ~millis:false layout) rows

let stack_canonical = function
  | Budget.Complete (Ok (p : Stack.progress))
  | Budget.Exhausted { partial = Ok p; _ } ->
    canonical Stack.layout p.Stack.completed.Stack.edges
  | Budget.Complete (Error e) | Budget.Exhausted { partial = Error e; _ } ->
    Alcotest.failf "stack failed: %a" Failure.pp e

let kv_canonical = function
  | Budget.Complete (Ok r) | Budget.Exhausted { partial = Ok r; _ } ->
    canonical Ccal_kv.Kv_stack.layout r.Ccal_kv.Kv_stack.edges
  | Budget.Complete (Error e) | Budget.Exhausted { partial = Error e; _ } ->
    Alcotest.failf "kv failed: %a" Failure.pp e

let crash_canonical = function
  | Budget.Complete (Ok r) | Budget.Exhausted { partial = Ok r; _ } ->
    canonical Crash.layout r.Crash.edges
  | Budget.Complete (Error f) | Budget.Exhausted { partial = Error f; _ } ->
    Alcotest.failf "%a" Failure.pp f

let crash_edges threads =
  [ Ccal_disk.Wal.crash_edge ~threads (); Ccal_disk.Durable_kv.crash_edge ~threads () ]

let stack_rows lock =
  String.concat "\n"
    [
      "  [Link ] Mx86 refines Lx86[D] (Thm 3.1)                             5 checks";
      Printf.sprintf "  [Fun  ] %-55s    6 checks"
        (Printf.sprintf "L0 |- M_%s : Llock (Fun)" lock);
      "  [Pcomp] Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)                8 checks";
      "  [Vcomp] L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)              17 checks";
      "  [Sound] [[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)               5 checks";
      "  [Link ] Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)                            5 checks";
      "  [Fun  ] Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)              6 checks";
      "  [Fun  ] Lmt(spin+cv) |- M_ipc : Lipc (Fun)                        12 checks";
      "  [Sound] [[producer|consumer]] refines Lipc (blocking paths)        5 checks";
      "  [Fun  ] Llock |- M_rwlock : Lrwlock (Fun, extension)              16 checks";
      "  total: 85 checks\n";
    ]

let test_stack_golden () =
  Alcotest.(check string) "stack, SC, ticket" (stack_rows "ticket")
    (stack_canonical (Stack.verify_all_ctx ~ctx:Ctx.default ()));
  Alcotest.(check string) "stack, TSO, mcs" (stack_rows "mcs")
    (stack_canonical
       (Stack.verify_all_ctx
          ~ctx:(Ctx.with_memory Ccal_core.Memory.Tso Ctx.default)
          ~lock:`Mcs ()))

(* [random:5] is the suite the removed [~seeds:5] named: this is the
   report the seeded stack printed, byte for byte. *)
let test_stack_random5_golden () =
  Alcotest.(check string) "stack, random:5"
    "  [Link ] Mx86 refines Lx86[D] (Thm 3.1)                             6 checks\n\
    \  [Fun  ] L0 |- M_ticket : Llock (Fun)                               6 checks\n\
    \  [Pcomp] Llock[1] x Llock[2] => Llock[{1,2}] (Pcomp)                8 checks\n\
    \  [Vcomp] L0 |- M_lock + M_q : Lq_high (Vcomp, Fig. 5)              17 checks\n\
    \  [Sound] [[P + M]]_L0 refines [[P]]_Lq_high (Thm 2.2)               6 checks\n\
    \  [Link ] Lbtd[c] = Lhtd[c][Tc] (Thm 5.1)                            6 checks\n\
    \  [Fun  ] Lmt(Llock) |- M_qlock : Lqlock (Fun, Fig. 11)              6 checks\n\
    \  [Fun  ] Lmt(spin+cv) |- M_ipc : Lipc (Fun)                        12 checks\n\
    \  [Sound] [[producer|consumer]] refines Lipc (blocking paths)        6 checks\n\
    \  [Fun  ] Llock |- M_rwlock : Lrwlock (Fun, extension)              16 checks\n\
    \  total: 89 checks\n"
    (stack_canonical
       (Stack.verify_all_ctx ~ctx:Ctx.default ~strategy:(Ctx.Engine.random ~count:5) ()))

let test_stack_partial_golden () =
  let ctx = Ctx.with_budget (Budget.make ~steps:100 ()) (Ctx.make ()) in
  Alcotest.(check string) "stack exhaustive:6, 100 steps" "  total: 0 checks\n"
    (stack_canonical
       (Stack.verify_all_ctx ~ctx ~strategy:(Ctx.Engine.exhaustive ~depth:6) ()))

let test_kv_golden () =
  Alcotest.(check string) "kv, 4 threads"
    "kv stack: 3 edges, 112 checks\n\
    \  Llock |- M_kv(shards=2) : Lmap                                       ok     \
     16 schedules   16 logs\n\
    \  Lcache_disk |- M_cache(entries=2) : Lmap[get,put]                    ok     \
     60 schedules   60 logs\n\
    \  Llock+cache |- M_cache(entries=2) . M_kv(shards=2) : Lmap[get,put]   ok     \
     36 schedules   36 logs\n"
    (kv_canonical (Ccal_kv.Kv_stack.verify_ctx ~ctx:Ctx.default ~threads:4 ()))

let wal_row =
  "  wal                                          ok     4 schedules     28 crash \
   points      90 recoveries    4 logs\n"

let test_crash_golden () =
  Alcotest.(check string) "crash, default"
    ("crash refinement: 2 edges, 175 recoveries\n" ^ wal_row
   ^ "  durable-kv                                   ok     4 schedules     28 \
      crash points      85 recoveries    4 logs\n")
    (crash_canonical (Crash.check_ctx ~ctx:Ctx.default (crash_edges 2)));
  Alcotest.(check string) "crash, 3 threads, dpor:10"
    "crash refinement: 2 edges, 42524 recoveries\n\
    \  wal                                          ok    81 schedules    810 \
     crash points    3411 recoveries   78 logs\n\
    \  durable-kv                                   ok   813 schedules   8130 \
     crash points   39113 recoveries  813 logs\n"
    (crash_canonical
       (Crash.check_ctx
          ~ctx:(Ctx.make ~strategy:(Ctx.Engine.dpor ~depth:10) ())
          (crash_edges 3)))

let test_crash_partial_golden () =
  let ctx = Ctx.with_budget (Budget.make ~steps:200 ()) (Ctx.make ()) in
  Alcotest.(check string) "crash, 200 steps"
    ("crash refinement: 1 edges, 90 recoveries\n" ^ wal_row)
    (crash_canonical (Crash.check_ctx ~ctx (crash_edges 2)))

(* [Edges.run] names a failing edge's failure with the edge, whatever
   its checker filled in, and stops there; each failure shape prints as
   one line. *)
let test_failure_named_by_edge () =
  let edge name run = { Edges.name; key = None; setup = ignore; run } in
  let found =
    Failure.overlay ~sched:"rr" ~lower:(Util.log_of [ Util.ev 1 "a"; Util.ev 1 "b" ])
      (Util.log_of [ Util.ev 1 "a" ]) "overlay stuck"
  in
  let ran_after = ref false in
  match
    Edges.run ~ctx:Ctx.default ~kind:"test" ~layout:Stack.layout
      [ edge "passes" (fun () -> Ok ("Fun", [ "checks", 1 ]));
        edge "fails" (fun () -> Error { found with f_edge = "ignored" });
        edge "never" (fun () -> ran_after := true; Ok ("Fun", [ "checks", 1 ])) ]
  with
  | Budget.Complete (Error f) ->
    Alcotest.(check bool) "the scan stops at the failure" false !ran_after;
    Alcotest.(check string) "run and index printed"
      "failure: edge fails, run rr, event 1: overlay stuck"
      (Util.failure_line f);
    Alcotest.(check string) "a structural failure has no run"
      "failure: no run: Vcomp rule: focused thread sets differ"
      (Util.failure_line (Failure.no_run "Vcomp rule: focused thread sets differ"));
    Alcotest.(check string) "a crash failure names its point and masks"
      "crash-refinement failure: edge fails, schedule rr, crash point 2 (keep=0x1 \
       tear=0x0): lost"
      (Util.failure_line
         { (Failure.underlay ~sched:"rr" f.Failure.f_lower "lost") with
           f_edge = "fails"; f_masks = Some (1, 0) })
  | _ -> Alcotest.fail "the failing edge must end the run with its failure"

(* Every row is measured by [Edges.run], so kv and crash rows carry
   their per-edge telemetry counters under telemetry, as stack rows do:
   printed under each row in the canonical report, and identical for
   every jobs count. *)
let test_counters_jobs_invariant () =
  let under_telemetry jobs run =
    Telemetry.reset ();
    Telemetry.enable ();
    Fun.protect
      ~finally:(fun () ->
        Telemetry.disable ();
        Telemetry.reset ())
      (fun () -> run (Ctx.make ~jobs ()))
  in
  let lines s = List.length (String.split_on_char '\n' s) in
  let check name ~rows run =
    let j1 = under_telemetry 1 run in
    Alcotest.(check int)
      (name ^ ": a counters line under every row")
      (lines (run (Ctx.make ())) + rows)
      (lines j1);
    Alcotest.(check string) (name ^ ": jobs 4 = jobs 1") j1 (under_telemetry 4 run)
  in
  check "kv, 4 threads" ~rows:3 (fun ctx ->
      kv_canonical (Ccal_kv.Kv_stack.verify_ctx ~ctx ~threads:4 ()));
  check "crash, 3 threads, dpor:10" ~rows:2 (fun ctx ->
      crash_canonical
        (Crash.check_ctx
           ~ctx:(Ctx.with_strategy (Ctx.Engine.dpor ~depth:10) ctx)
           (crash_edges 3)))

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    tc "golden stack reports (SC ticket, TSO mcs)" test_stack_golden;
    tc "golden stack report under random:5 (the seeded suite's)" test_stack_random5_golden;
    tc "golden partial stack report (exhaustive:6, 100 steps)"
      test_stack_partial_golden;
    tc "golden kv report (4 threads)" test_kv_golden;
    tc "golden crash reports (default; 3 threads dpor:10)" test_crash_golden;
    tc "golden partial crash report (200 steps)" test_crash_partial_golden;
    tc "a failing edge names its failure" test_failure_named_by_edge;
    tc "kv and crash rows carry counters, identical at jobs 1 and 4"
      test_counters_jobs_invariant;
  ]
