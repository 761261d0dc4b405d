(* Shared helpers for the test-suite. *)
open Ccal_core

let vi = Value.int
let ev ?args ?ret src tag = Event.make ?args ?ret src tag

let log_of events = Log.append_all events Log.empty

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let value_testable = Alcotest.testable Value.pp Value.equal
let log_testable = Alcotest.testable Log.pp Log.equal
let log_string l = Format.asprintf "%a" Log.pp l
let failure_line f = Format.asprintf "%a" Failure.pp f

(* What every negative control's failure must carry: the run it names
   and an event index within one of its logs, the one the failure was
   found in. *)
let check_names_run what (f : Failure.t) =
  check_bool (what ^ ": names a run") true (f.Failure.f_sched <> "");
  check_bool (what ^ ": index within its log") true
    (f.f_index = Log.length f.f_upper || f.f_index = Log.length f.f_lower)
let event_testable = Alcotest.testable Event.pp Event.equal

let tc name f = Alcotest.test_case name `Quick f

let qtc ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Suites played through the one game scan, [Parallel.games], under the
   default context in the given memory mode. *)
let games ?(memory = Memory.default) ?max_steps ?log_switches ?cut layer
    threads judge scheds =
  Ccal_verify.(
    Budget.value
      (Parallel.games
         ~ctx:(Ctx.with_memory memory Ctx.default)
         ?max_steps ?log_switches ?cut layer threads judge scheds))

(* The one game scan as an early-exit map over plain inputs: a threadless
   game under a suite that carries each input as a [Random] seed, judged
   by [f]. *)
let scan ~jobs ?cut f xs =
  Ccal_verify.(
    Budget.value
      (Parallel.games ~ctx:(Ctx.make ~jobs ()) ?cut (Layer.make "Lnone" []) []
         (fun s _ -> match s with Sched.Random k -> f k | _ -> assert false)
         (List.map (fun k -> Sched.Random k) xs)))

(* Every play of the suite, in suite order. *)
let behaviors ?memory ?max_steps ?log_switches layer threads scheds =
  games ?memory ?max_steps ?log_switches layer threads (fun _ o -> o) scheds

(* A pass/fail judge over the suite: the number of schedules judged, or
   the first failure (which ends the scan). *)
let judge_all ?memory ?max_steps ?log_switches layer threads judge scheds =
  let rec count n = function
    | [] -> Ok n
    | Ok () :: rest -> count (n + 1) rest
    | Error e :: _ -> Error e
  in
  count 0
    (games ?memory ?max_steps ?log_switches ~cut:Result.is_error layer threads
       judge scheds)

(* Thm 2.2 on the one game scan: [Linearizability.refine_ctx] and its
   certificate form, under the default context unless [ctx] is given. *)
let refine ?(ctx = Ccal_verify.Ctx.default) ?max_steps ?expect_all_done ~underlay
    ~impl ~overlay ~rel ~client ~tids ~scheds () =
  Ccal_verify.(
    Budget.value
      (Linearizability.refine_ctx ~ctx ?max_steps ?expect_all_done ~underlay ~impl
         ~overlay ~rel ~client ~tids ~scheds ()))

let refine_cert ?ctx ?max_steps (cert : Calculus.cert) ~client ~scheds =
  let j = cert.Calculus.judgment in
  refine ?ctx ?max_steps ~underlay:j.Calculus.underlay ~impl:j.Calculus.impl
    ~overlay:j.Calculus.overlay ~rel:j.Calculus.rel ~client
    ~tids:j.Calculus.focus ~scheds ()

(* The linearizability report of a certificate's components. *)
let check_cert ~ctx ~scheds (cert : Calculus.cert) ~client =
  let j = cert.Calculus.judgment in
  Ccal_verify.Linearizability.check_ctx ~ctx ~scheds ~underlay:j.Calculus.underlay
    ~impl:j.Calculus.impl ~overlay:j.Calculus.overlay ~rel:j.Calculus.rel ~client
    ~tids:j.Calculus.focus ()

(* [count] seeded random schedulers. *)
let random_scheds count = List.init count (fun k -> Sched.random ~seed:(k + 1))

(* Round-robin, every prefix up to [depth], then [random] seeded random
   schedulers. *)
let full_suite ~tids ~depth ~random =
  (Sched.round_robin :: Ccal_verify.Explore.exhaustive_scheds ~tids ~depth)
  @ random_scheds random

(* Run a single-threaded program over a layer with a silent environment. *)
let run_solo ?(tid = 1) layer prog =
  Machine.run_local layer tid ~env:Env_context.empty prog

let expect_done ?(tid = 1) layer prog =
  match (run_solo ~tid layer prog).Machine.outcome with
  | Machine.Done v -> v
  | Machine.Stuck_run msg -> Alcotest.failf "stuck: %s" msg
  | Machine.No_progress msg -> Alcotest.failf "no progress: %s" msg
  | Machine.Out_of_fuel -> Alcotest.fail "out of fuel"

let expect_stuck ?(tid = 1) layer prog =
  match (run_solo ~tid layer prog).Machine.outcome with
  | Machine.Stuck_run msg -> msg
  | Machine.Done v -> Alcotest.failf "expected stuck, got %s" (Value.to_string v)
  | Machine.No_progress msg -> Alcotest.failf "expected stuck, blocked: %s" msg
  | Machine.Out_of_fuel -> Alcotest.fail "expected stuck, ran out of fuel"

(* A tiny "counter" layer used by many core tests: one shared atomic
   counter per id replayed from its own events, plus a private accumulator. *)
let counter_layer () =
  let count_of id log =
    Log.count
      (fun (e : Event.t) ->
        String.equal e.tag "tick" && e.args = [ Value.int id ])
      log
  in
  Layer.make "Lcounter"
    [
      Layer.event_prim "tick" (fun _ args log ->
          match args with
          | [ Value.Vint id ] -> Ok (Value.int (count_of id log + 1))
          | _ -> Error "tick: bad args");
      Layer.event_prim "read" (fun _ args log ->
          match args with
          | [ Value.Vint id ] -> Ok (Value.int (count_of id log))
          | _ -> Error "read: bad args");
      Layer.private_prim "stash" (fun _ args abs ->
          match args with
          | [ v ] -> Ok (Abs.set "stash" v abs, Value.unit)
          | _ -> Error "stash: bad args");
      Layer.private_prim "unstash" (fun _ _ abs -> Ok (abs, Abs.get "stash" abs));
    ]
