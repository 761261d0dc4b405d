(* Tests for the telemetry subsystem (S25): counters must be
   bit-identical across jobs counts (clean and failing runs alike — the
   capture/commit protocol of [Parallel.games] at work), spans
   must nest, the Chrome-trace export must be valid JSON, and everything
   must be inert when disabled.

   Every test runs with [with_telemetry], which guarantees the global
   switch is off again afterwards whatever happens — the rest of the
   suite must never observe telemetry half-enabled. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util

let jobs_grid = [ 1; 2; 4; 7 ]

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* ---- counters across the jobs grid ---- *)

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

(* Counter totals after [run jobs], starting from zero each time. *)
let counters_of run jobs =
  Telemetry.reset ();
  run jobs;
  Telemetry.counters ()

let check_counters_jobs_invariant name run =
  with_telemetry (fun () ->
      let oracle = counters_of run 1 in
      check_bool (name ^ ": sequential run counted something") true
        (oracle <> []);
      List.iter
        (fun jobs ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s: counters jobs=%d = sequential" name jobs)
            oracle (counters_of run jobs))
        jobs_grid)

let test_dpor_counters_jobs_invariant () =
  let layer = Lock_intf.layer "Llock" in
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  check_counters_jobs_invariant "dpor llock" (fun jobs ->
      ignore
        (Budget.value
           (Dpor.explore_ctx ~ctx:(Ctx.make ~jobs ()) ~depth:4 layer threads)))

let test_races_counters_jobs_invariant () =
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let threads =
    List.map (fun i -> i, Prog.Module.link m (lock_client i)) [ 1; 2 ]
  in
  check_counters_jobs_invariant "races ticket" (fun jobs ->
      ignore
        (Races.check_ctx ~ctx:(Ctx.make ~jobs ())
           ~scheds:(Sched.default_suite ~seeds:6) layer threads))

(* The early-exit path: thread 1 fails for an ordinary reason and threads
   2/3 race.  Under [jobs > 1] workers evaluate schedules beyond the cut;
   their counts must be discarded, not committed — the totals must equal
   the sequential scan's, which stops at the race. *)
let test_failing_scan_counters_jobs_invariant () =
  let layer =
    Layer.make "Lmixed"
      (Ccal_machine.Pushpull.prims
      @ [
          Layer.shared_prim "trap" (fun _ _ _ ->
              Layer.Stuck "ordinary failure, not a race");
        ])
  in
  let grab i = Prog.seq (Prog.call "pull" [ vi 7 ]) (Prog.ret (vi i)) in
  let threads = [ 1, Prog.call "trap" []; 2, grab 2; 3, grab 3 ] in
  let scheds () =
    (* many clean schedules after the racy one: parallel workers will run
       some of them; the counters must not show it *)
    Sched.of_trace ~tag:"other-first" [ 1 ]
    :: Sched.of_trace ~tag:"racy" [ 2; 3 ]
    :: List.init 30 (fun k -> Sched.random ~seed:(k + 1))
  in
  check_counters_jobs_invariant "mixed failing races" (fun jobs ->
      match
        Races.check_ctx ~ctx:(Ctx.make ~jobs ()) ~scheds:(scheds ()) layer
          threads
      with
      | Races.Race _ -> ()
      | _ -> Alcotest.fail "expected the race verdict")

let test_chunk_counters_jobs_invariant () =
  (* workers claim the suite in fixed-size chunks (S24); chunk geometry
     must stay invisible to the committed counters — only the pool.chunk
     spans (wall-clock trace material) may differ across jobs.  The
     suite (243 schedules) splits into many chunks, 15 schedules each
     at jobs 4. *)
  let layer = Lock_intf.layer "Llock" in
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  let run jobs =
    let scheds = Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:5 in
    match Races.check_ctx ~ctx:(Ctx.make ~jobs ()) ~scheds layer threads with
    | Races.Race_free { runs } -> check_int "covered the suite" 243 runs
    | _ -> Alcotest.fail "expected race-free"
  in
  check_counters_jobs_invariant "chunked races llock" (fun jobs ->
      run jobs);
  with_telemetry (fun () ->
      run 4;
      check_bool "claimed chunks appear as pool.chunk spans" true
        (List.exists
           (fun (s : Telemetry.span_ev) -> s.Telemetry.name = "pool.chunk")
           (Telemetry.spans ())))

let test_stack_edge_counters_jobs_invariant () =
  (* the per-edge counter column of the stack report: nonempty under
     telemetry, and — like the check counts — identical across jobs *)
  let edges jobs =
    Telemetry.reset ();
    match
      Result.map
        (fun (p : Stack.progress) -> p.Stack.completed)
        (Budget.value
           (Stack.verify_all_ctx ~ctx:(Ctx.make ~jobs ())
              ~strategy:(Ctx.Engine.random ~count:2) ()))
    with
    | Ok r ->
      List.map (fun (e : Edges.row) -> e.Edges.name, e.Edges.counters) r.Stack.edges
    | Error f -> Alcotest.failf "stack failed: %a" Failure.pp f
  in
  with_telemetry (fun () ->
      let oracle = edges 1 in
      check_bool "some edge counted something" true
        (List.exists (fun (_, cs) -> cs <> []) oracle);
      check_bool "edge counters jobs=4 = sequential" true (edges 4 = oracle))

let test_one_exhausted_run_counts_once () =
  (* The edge loop reuses the [spent] of the edge that ran out instead of
     snapshotting the token again: one exhausted stack, kv or crash run
     raises [budget.exhaustions] by exactly one. *)
  let exhaustions run =
    Telemetry.reset ();
    (match run (Ctx.with_budget (Budget.make ~steps:2000 ()) (Ctx.make ())) with
    | Budget.Exhausted _ -> ()
    | Budget.Complete _ -> Alcotest.fail "expected exhaustion");
    Option.value ~default:0
      (List.assoc_opt "budget.exhaustions" (Telemetry.counters ()))
  in
  let drop o = Budget.map ignore o in
  with_telemetry (fun () ->
      (* dpor:8 runs out inside the Pcomp edge's compat corpus *)
      check_int "stack" 1
        (exhaustions (fun ctx ->
             drop
               (Stack.verify_all_ctx ~ctx ~strategy:(Ctx.Engine.dpor ~depth:8) ())));
      check_int "kv" 1
        (exhaustions (fun ctx ->
             drop (Ccal_kv.Kv_stack.verify_ctx ~ctx ~threads:4 ())));
      check_int "crash" 1
        (exhaustions (fun ctx ->
             drop
               (Crash.check_ctx ~ctx:(Ctx.with_budget (Budget.make ~steps:50 ()) ctx)
                  [ Ccal_disk.Wal.crash_edge (); Ccal_disk.Durable_kv.crash_edge () ]))))

(* ---- the capture/commit protocol itself ---- *)

let test_captured_counts_follow_the_cut () =
  (* a scan that cuts at index 5: whatever the workers ran ahead of the
     cut, the committed total must be the sequential prefix's 0..5 *)
  let c = Telemetry.counter "test_scan_probe" in
  with_telemetry (fun () ->
      List.iter
        (fun jobs ->
          Telemetry.reset ();
          ignore
            (scan ~jobs
               ~cut:(fun y -> y = 5)
               (fun x ->
                 Telemetry.incr c;
                 x)
               (List.init 40 Fun.id));
          check_int
            (Printf.sprintf "jobs=%d commits exactly the merged prefix" jobs)
            6
            (Telemetry.get "test_scan_probe"))
        jobs_grid)

let test_captured_passthrough_when_disabled () =
  Telemetry.disable ();
  let hits = ref 0 in
  let d = Telemetry.captured (fun () -> incr hits) in
  check_bool "body ran" true (!hits = 1);
  check_bool "no delta when disabled" true (d = None);
  Telemetry.commit d (* must be a no-op *)

let test_disabled_is_inert () =
  Telemetry.reset ();
  let c = Telemetry.counter "test_inert" in
  Telemetry.add c 7;
  Telemetry.span "test_inert_span" (fun () -> ());
  check_int "counter untouched" 0 (Telemetry.get "test_inert");
  check_bool "no span recorded" true
    (not
       (List.exists
          (fun (s : Telemetry.span_ev) -> s.Telemetry.name = "test_inert_span")
          (Telemetry.spans ())))

let test_diff_counters () =
  let d =
    Telemetry.diff_counters
      [ "a", 1; "b", 5; "d", 2 ]
      [ "a", 4; "b", 5; "c", 7 ]
  in
  Alcotest.(check (list (pair string int))) "merge walk" [ "a", 3; "c", 7 ] d

(* ---- spans ---- *)

let test_spans_nest () =
  with_telemetry (fun () ->
      let r =
        Telemetry.span "outer" (fun () ->
            Telemetry.span "inner" (fun () -> 42))
      in
      check_int "value through" 42 r;
      let find n =
        List.find
          (fun (s : Telemetry.span_ev) -> s.Telemetry.name = n)
          (Telemetry.spans ())
      in
      let outer = find "outer" and inner = find "inner" in
      check_int "outer at depth 0" 0 outer.Telemetry.depth;
      check_int "inner at depth 1" 1 inner.Telemetry.depth;
      check_bool "same domain" true (outer.Telemetry.dom = inner.Telemetry.dom);
      check_bool "inner starts inside outer" true
        (Int64.compare inner.Telemetry.ts_ns outer.Telemetry.ts_ns >= 0);
      let ends (s : Telemetry.span_ev) =
        Int64.add s.Telemetry.ts_ns s.Telemetry.dur_ns
      in
      check_bool "inner ends inside outer" true
        (Int64.compare (ends inner) (ends outer) <= 0))

let test_span_restores_depth_on_raise () =
  with_telemetry (fun () ->
      (try Telemetry.span "raiser" (fun () -> failwith "boom")
       with Failure _ -> ());
      Telemetry.span "after" (fun () -> ());
      let after =
        List.find
          (fun (s : Telemetry.span_ev) -> s.Telemetry.name = "after")
          (Telemetry.spans ())
      in
      check_int "depth back to 0" 0 after.Telemetry.depth)

(* ---- Chrome-trace export: round-trip through a JSON parser ---- *)

(* A tiny recursive-descent JSON reader — the container has no JSON
   library, and hand-rolling the reader here keeps the writer honest. *)
type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_lit lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          (* enough for the escapes our writer emits: decode as a byte *)
          advance ();
          let hex = String.sub s !pos 3 in
          pos := !pos + 3;
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex) land 0xff))
        | c -> Buffer.add_char b c);
        advance ();
        go ()
      | '\000' -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while num_char (peek ()) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> JNum f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (
        advance ();
        JObj [])
      else
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            fields ((k, v) :: acc)
          | '}' ->
            advance ();
            JObj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        fields []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (
        advance ();
        JList [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            items (v :: acc)
          | ']' ->
            advance ();
            JList (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        items []
    | '"' -> JStr (parse_string ())
    | 't' -> parse_lit "true" (JBool true)
    | 'f' -> parse_lit "false" (JBool false)
    | 'n' -> parse_lit "null" JNull
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let test_chrome_trace_round_trips () =
  with_telemetry (fun () ->
      (* record spans on several domains through a parallel scan *)
      ignore
        (scan ~jobs:4
           (fun x -> Telemetry.span "work\"quoted\"" (fun () -> x * 2))
           (List.init 16 Fun.id));
      Telemetry.span "top" (fun () -> ());
      let trace =
        let path = Filename.temp_file "ccal-trace" ".json" in
        Telemetry.write_chrome_trace path;
        let s = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        s
      in
      match parse_json trace with
      | JObj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (JList evs) ->
          check_bool "some events" true (List.length evs > 0);
          let complete =
            List.filter
              (function
                | JObj f -> List.assoc_opt "ph" f = Some (JStr "X")
                | _ -> false)
              evs
          in
          check_bool "some complete events" true (List.length complete > 0);
          List.iter
            (fun ev ->
              match ev with
              | JObj f ->
                List.iter
                  (fun k ->
                    check_bool (Printf.sprintf "event has %s" k) true
                      (List.assoc_opt k f <> None))
                  [ "name"; "ts"; "dur"; "pid"; "tid" ];
                (match List.assoc_opt "ts" f with
                | Some (JNum ts) ->
                  check_bool "relative timestamp" true (ts >= 0.)
                | _ -> Alcotest.fail "ts not a number")
              | _ -> Alcotest.fail "event not an object")
            complete;
          let quoted =
            List.exists
              (function
                | JObj f -> List.assoc_opt "name" f = Some (JStr "work\"quoted\"")
                | _ -> false)
              complete
          in
          check_bool "escaped name survives the round trip" true quoted
        | _ -> Alcotest.fail "no traceEvents array")
      | _ -> Alcotest.fail "trace is not a JSON object")

let test_write_chrome_trace_file () =
  with_telemetry (fun () ->
      Telemetry.span "file-span" (fun () -> ());
      let path = Filename.temp_file "ccal_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Telemetry.write_chrome_trace path;
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let contents = really_input_string ic n in
          close_in ic;
          match parse_json contents with
          | JObj _ -> ()
          | _ -> Alcotest.fail "written trace is not a JSON object"))

(* ---- the stats table ---- *)

let test_pp_stats_mentions_counters_and_spans () =
  with_telemetry (fun () ->
      Telemetry.add (Telemetry.counter "test_visible_counter") 3;
      Telemetry.span "test_visible_span" (fun () -> ());
      let s = Format.asprintf "%a" Telemetry.pp_stats () in
      let has sub =
        let n = String.length s and m = String.length sub in
        let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
        at 0
      in
      check_bool "counter named" true (has "test_visible_counter");
      check_bool "span named" true (has "test_visible_span"))

let suite =
  [
    tc "dpor counters identical across jobs" test_dpor_counters_jobs_invariant;
    tc "races counters identical across jobs"
      test_races_counters_jobs_invariant;
    tc "failing-scan counters identical across jobs"
      test_failing_scan_counters_jobs_invariant;
    tc "chunk claiming invisible to counters"
      test_chunk_counters_jobs_invariant;
    tc "stack per-edge counters identical across jobs"
      test_stack_edge_counters_jobs_invariant;
    tc "one exhausted run counts one exhaustion"
      test_one_exhausted_run_counts_once;
    tc "scan commits exactly the merged prefix"
      test_captured_counts_follow_the_cut;
    tc "captured is passthrough when disabled"
      test_captured_passthrough_when_disabled;
    tc "disabled telemetry is inert" test_disabled_is_inert;
    tc "diff_counters merge walk" test_diff_counters;
    tc "spans nest with depth and containment" test_spans_nest;
    tc "span depth restored on raise" test_span_restores_depth_on_raise;
    tc "chrome trace round-trips through JSON parser"
      test_chrome_trace_round_trips;
    tc "write_chrome_trace produces a parseable file"
      test_write_chrome_trace_file;
    tc "pp_stats names counters and spans"
      test_pp_stats_mentions_counters_and_spans;
  ]
