(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6), as indexed in DESIGN.md and recorded in
   EXPERIMENTS.md.

   - tab1: Table 1 (lines of proof per toolkit component) — our analogue
     counts the OCaml lines of the corresponding components and times the
     toolkit self-check (the certification work the proofs stand for).
   - tab2: Table 2 (per-object statistics) — source/spec sizes and
     verification effort per implemented object, with a Bechamel timing of
     each object's certification.
   - perf_lock: the performance evaluation — ticket-lock latency with
     ghost "logical primitive" calls left in vs. erased (the paper's
     87 -> 35 cycles story), plus a contention sweep (the natural figure
     behind the single-core number).
   - fig1_stack / fig5_pipeline: end-to-end stack verification and the
     Fig. 5 pipeline as macro-benchmarks.

   Then the eight measured sections (parallel, telemetry, cache, robust,
   kv, tso, crash, moves), each of which returns rows of one schema, printed as
   a table and written to BENCH_<section>.json in the working directory.

   Run with:  dune exec bench/main.exe [-- --only SECTION[,SECTION...]]
   [--only] runs just the named measured sections, without the paper
   tables and the Bechamel sweep. *)

open Bechamel
open Toolkit
open Ccal_core
open Ccal_objects
module C = Ccal_clight.Csyntax
module V = Ccal_verify

let vi = Value.int

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  try
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  with Sys_error _ -> 0

let starts_with p f =
  String.length f >= String.length p && String.sub f 0 (String.length p) = p

let dir_lines dir prefixes =
  try
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           (Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
           && (prefixes = [] || List.exists (fun p -> starts_with p f) prefixes))
    |> List.map (fun f -> count_lines (Filename.concat dir f))
    |> List.fold_left ( + ) 0
  with Sys_error _ -> 0

(* Ctx shims: the bench drives everything through the [*_ctx] checker
   entry points (the pre-Ctx signatures are deprecated) with an unlimited
   budget, so [Budget.value] never loses a partial result. *)
let vctx ?jobs ?cache ?strategy () = V.Ctx.make ?jobs ?cache ?strategy ()

let run_all_scheds ?jobs layer threads scheds =
  V.Budget.value (V.Explore.run_all_ctx ~ctx:(vctx ?jobs ()) layer threads scheds)

let dpor_explore ?jobs ~depth layer threads =
  V.Budget.value (V.Dpor.explore_ctx ~ctx:(vctx ?jobs ()) ~depth layer threads)

let stack_verify ?cache ~random () =
  Result.map
    (fun (p : V.Stack.progress) -> p.V.Stack.completed)
    (V.Budget.value
       (V.Stack.verify_all_ctx ~ctx:(vctx ?cache ())
          ~strategy:(V.Ctx.Engine.random ~count:random) ()))

(* The clients the games run: threads [1..n], each applying [client] to
   its own id. *)
let threads n client = List.init n (fun k -> k + 1, client (k + 1))

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let queue_client i =
  Prog.bind (Prog.call "enQ_s" [ vi 0; vi (10 * i) ]) (fun _ ->
      Prog.call "deQ_s" [ vi 0 ])

let shared_queue_module () =
  Ccal_clight.Csem.module_of_fns [ Queue_shared.deq_fn; Queue_shared.enq_fn ]

(* Sleep-set DPOR, events independence, on the ticket lock over L0 with
   4 C clients: the game of perfbench's dpor-ticket4 workload (depth 6)
   and of the engines table (depth 8). *)
let explore_ticket4 =
  let m = Ticket_lock.c_module () in
  let layer = Ticket_lock.l0 () in
  let threads = threads 4 (fun i -> Prog.Module.link m (lock_client i)) in
  fun ?jobs ~engine ~depth () ->
    V.Budget.value
      (V.Dpor.explore_ctx ~ctx:(vctx ?jobs ())
         ~independence:V.Dpor.Commuting_events ~engine ~depth layer threads)

(* ------------------------------------------------------------------ *)
(* tab1 — Table 1: toolkit components                                   *)
(* ------------------------------------------------------------------ *)

let tab1_rows () =
  [
    "Auxiliary library", 6_200,
      dir_lines "lib/core" [ "value"; "event"; "log"; "replay"; "abs"; "rely" ];
    "C verifier", 2_200, dir_lines "lib/clight" [];
    "Asm verifier", 800, dir_lines "lib/machine" [ "asm" ];
    "Simulation library", 1_800,
      dir_lines "lib/core" [ "strategy"; "simulation"; "sim_rel" ];
    "Multilayer linking", 17_000,
      dir_lines "lib/core"
        [ "layer"; "calculus"; "refinement"; "machine"; "game"; "sched"; "env"; "prog" ];
    "Multithread linking", 10_000, dir_lines "lib/objects" [ "thread_sched"; "qlock" ];
    "Multicore linking", 7_000, dir_lines "lib/machine" [ "mx86"; "pushpull"; "atomic" ];
    "Thread-safe CompCertX", 7_500, dir_lines "lib/compcertx" [];
  ]

let print_tab1 () =
  Format.printf
    "@.== tab1: Table 1 — toolkit components (paper: Coq proof lines; ours: OCaml lines) ==@.@.";
  Format.printf "  %-24s %12s %12s@." "Component" "paper (Coq)" "ours (OCaml)";
  List.iter
    (fun (name, paper, ours) ->
      Format.printf "  %-24s %12d %12s@." name paper
        (if ours = 0 then "n/a" else string_of_int ours))
    (tab1_rows ());
  let total = List.fold_left (fun a (_, _, o) -> a + o) 0 (tab1_rows ()) in
  Format.printf "  %-24s %12d %12d@." "total" 52_500 total;
  Format.printf
    "@.  shape check: the two heaviest components are the linking libraries in both@."

(* ------------------------------------------------------------------ *)
(* tab2 — Table 2: per-object statistics                                *)
(* ------------------------------------------------------------------ *)

type tab2_row = {
  obj : string;
  paper_src : int;  (** paper's "C & Asm source" column *)
  src : int;  (** our C statement count + compiled instructions *)
  spec : int;  (** overlay primitives + replay/relation definitions (fns) *)
  checks : int;  (** Fun-rule obligations discharged *)
  ms : float;
}

let asm_size fns =
  List.fold_left
    (fun n f -> n + Ccal_machine.Asm.size (Ccal_compcertx.Compile.compile_fn f))
    0 fns

let c_size fns = List.fold_left (fun n f -> n + C.fn_size f) 0 fns

let tab2_row obj paper_src fns spec certify =
  let result, t = V.Verify_clock.measure ~repeats:1 certify in
  let checks =
    match result with
    | Ok cert -> Calculus.count_checks cert
    | Error _ -> -1
  in
  { obj; paper_src; src = c_size fns + asm_size fns; spec; checks; ms = t.median_ms }

let tab2_rows () =
  [
    tab2_row "Ticket lock" 74 [ Ticket_lock.acq_fn; Ticket_lock.rel_fn ] 5
      (fun () -> Object_intf.certify Ticket_lock.recipe ());
    tab2_row "MCS lock" 287 [ Mcs_lock.acq_fn; Mcs_lock.rel_fn ] 5
      (fun () -> Object_intf.certify Mcs_lock.recipe ());
    tab2_row "Local queue" 377
      [ Queue_local.enq_fn; Queue_local.deq_fn; Queue_local.qlen_fn ] 3
      (fun () -> Object_intf.certify Queue_local.recipe ());
    tab2_row "Shared queue" 20 [ Queue_shared.deq_fn; Queue_shared.enq_fn ] 4
      (fun () -> Object_intf.certify Queue_shared.recipe ());
    tab2_row "Scheduler" 62 [] 6
      (fun () ->
        (* the scheduler is a layer transformer; its verification is the
           multithreaded linking check *)
        let placement = [ 1, 0; 2, 0; 3, 1 ] in
        let layer = Thread_sched.mt_layer placement (Lock_intf.layer "Llock") in
        let prog i =
          Prog.seq_all
            [ Prog.call "acq" [ vi 0 ]; Prog.call "rel" [ vi 0; vi i ];
              Prog.call "yield" []; Prog.call "texit" [] ]
        in
        let threads = threads 3 prog in
        let verdicts =
          V.Budget.value
            (V.Parallel.games ~ctx:V.Ctx.default ~cut:Result.is_error
               layer threads
               (Thread_sched.judge_linking ~placement layer threads)
               (Sched.default_suite ~seeds:4))
        in
        match List.find_map (function Error m -> Some m | Ok () -> None) verdicts with
        | Some msg -> Error msg
        | None ->
          Ok
            (Calculus.empty_rule layer
               (List.init (List.length verdicts) (fun i -> i))));
    tab2_row "Queuing lock" 112 [ Qlock.acq_q_fn; Qlock.rel_q_fn ] 4
      (fun () ->
        Result.map_error (Format.asprintf "%a" Failure.pp)
          (Object_intf.certify Qlock.recipe ()));
    tab2_row "RW lock (ext)" 0
      [ Rwlock.acq_r_fn; Rwlock.rel_r_fn; Rwlock.acq_w_fn; Rwlock.rel_w_fn ] 4
      (fun () -> Object_intf.certify Rwlock.recipe ());
  ]

let print_tab2 rows =
  Format.printf "@.== tab2: Table 2 — implemented components ==@.@.";
  Format.printf "  %-14s %10s %10s %6s %8s %9s@." "Object" "paper src" "our src"
    "spec" "checks" "verify ms";
  List.iter
    (fun r ->
      Format.printf "  %-14s %10d %10d %6d %8d %9.1f@." r.obj r.paper_src r.src
        r.spec r.checks r.ms)
    rows;
  Format.printf
    "@.  shape check: MCS is the largest lock source in both; wrapping the queue@.  with a verified lock is cheap in both (paper: 20 loc; ours: smallest source)@."

(* ------------------------------------------------------------------ *)
(* perf_lock — Sec. 6 performance evaluation                            *)
(* ------------------------------------------------------------------ *)

(* The paper: the first measurement of the ticket lock showed 87 cycles
   because calls to "logical primitives" manipulating ghost abstract state
   had not been removed; erasing them dropped the latency to 35 cycles.
   We reproduce both variants: [acq]/[rel] with ghost bookkeeping calls
   left in, and the clean implementation. *)

let ghost_prim =
  ("ghost_log", Layer.Private (fun _ _ abs -> Ok (abs, Value.unit)))

let l0_with_ghost () =
  let base = Ticket_lock.l0 () in
  Layer.make ~rely:base.Layer.rely ~guar:base.Layer.guar "L0_ghost"
    (base.Layer.prims @ [ ghost_prim ])

let ghost_call = C.call_ "ghost_log" []

let acq_ghost_fn =
  {
    C.name = "acq";
    params = [ "b" ];
    locals = [ "myt"; "n"; "v" ];
    body =
      C.seq
        [
          ghost_call;
          C.calla "myt" "FAI_t" [ C.v "b" ];
          ghost_call;
          C.calla "n" "get_n" [ C.v "b" ];
          C.while_ C.(v "n" <> v "myt")
            (C.seq [ ghost_call; C.calla "n" "get_n" [ C.v "b" ] ]);
          ghost_call;
          C.calla "v" "pull" [ C.v "b" ];
          ghost_call;
          C.return (C.v "v");
        ];
  }

let rel_ghost_fn =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body =
      C.seq
        [
          ghost_call;
          C.call_ "push" [ C.v "b"; C.v "v" ];
          ghost_call;
          C.call_ "inc_n" [ C.v "b" ];
          ghost_call;
          C.return_unit;
        ];
  }

let lock_round layer m =
  let prog =
    Prog.Module.link m
      (Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
           Prog.call "rel" [ vi 0; v ]))
  in
  Machine.run_local layer 1 ~env:Env_context.empty prog

let print_perf_lock () =
  Format.printf "@.== perf_lock: single-core lock latency, ghost primitives vs erased ==@.@.";
  let ghost_layer = l0_with_ghost () in
  let ghost_m = Ccal_clight.Csem.module_of_fns [ acq_ghost_fn; rel_ghost_fn ] in
  let clean_layer = Ticket_lock.l0 () in
  let clean_m = Ticket_lock.c_module () in
  let ghost_run = lock_round ghost_layer ghost_m in
  let clean_run = lock_round clean_layer clean_m in
  let steps r = r.Machine.silent_steps + (2 * r.Machine.moves) in
  Format.printf "  paper:  87 cycles with logical primitives, 35 after removing them (2.5x)@.";
  Format.printf "  ours:   %d interpreter steps with ghost calls, %d after removing them (%.1fx)@."
    (steps ghost_run) (steps clean_run)
    (float_of_int (steps ghost_run) /. float_of_int (steps clean_run));
  Format.printf "  (wall-clock per acq+rel round measured below by Bechamel)@.";
  ghost_layer, ghost_m, clean_layer, clean_m

(* the contention sweep: average hardware events per lock round *)
let print_contention_sweep () =
  Format.printf "@.== perf_lock figure: contention sweep (events per acq/rel round) ==@.@.";
  Format.printf "  %-6s %-14s %-14s@." "cores" "ticket ev/op" "mcs ev/op";
  let rounds = 3 in
  let events_per_op layer m n =
    let client i =
      let rec go k =
        if k = 0 then Prog.ret (vi i)
        else
          Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
              Prog.seq (Prog.call "rel" [ vi 0; v ]) (go (k - 1)))
      in
      Prog.Module.link m (go rounds)
    in
    let o =
      Game.run
        (Game.config ~max_steps:2_000_000 layer (threads n client)
           (Sched.random ~seed:99))
    in
    match o.Game.status with
    | Game.All_done ->
      float_of_int (Log.length o.Game.log) /. float_of_int (n * rounds)
    | _ -> nan
  in
  List.iter
    (fun n ->
      Format.printf "  %-6d %-14.1f %-14.1f@." n
        (events_per_op (Ticket_lock.l0 ()) (Ticket_lock.c_module ()) n)
        (events_per_op (Mcs_lock.l0 ()) (Mcs_lock.c_module ()) n))
    [ 1; 2; 3; 4; 6; 8 ];
  Format.printf
    "@.  shape check: both grow with contention (spinning); 1-core cost is flat@."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

(* Ablation 1 — replay functions.  "This seemingly 'inefficient' way of
   treating shared atomic objects is actually great for compositional
   specification" (Sec. 7): every primitive replays the whole log, so a
   plain fold costs O(|log|) per call.  The incremental fold (DESIGN.md
   S32) keeps the semantics and, inside a game play's scope, steps only
   the events appended since the fold's previous call.  Both columns are
   measured: a call outside any scope (the whole log), and a call in a
   scope on a log one event longer than the previous call's. *)
let print_replay_ablation () =
  Format.printf "@.== ablation: replay-function cost vs. log length (Sec. 7 design choice) ==@.@.";
  Format.printf "  %-10s %-18s %-18s@." "log events" "ns full fold" "ns one new event";
  let fai k = Event.make ~args:[ vi 0 ] (1 + (k mod 4)) "FAI_t" in
  let iters = 2_000 in
  let ns_per_call f =
    (snd (V.Verify_clock.measure ~repeats:1 f)).median_ms *. 1e6 /. float_of_int iters
  in
  List.iter
    (fun n ->
      let log = Log.append_all (List.init n fai) Log.empty in
      let full =
        ns_per_call (fun () ->
            for _ = 1 to iters do
              ignore (Ticket_lock.replay_ticket 0 log)
            done)
      in
      (* the logs a play would hand over: each one event longer *)
      let chain = Array.make iters log in
      for k = 1 to iters - 1 do
        chain.(k) <- Log.append (fai k) chain.(k - 1)
      done;
      let incremental =
        ns_per_call (fun () ->
            Replay.scoped (fun () ->
                Array.iter (fun l -> ignore (Ticket_lock.replay_ticket 0 l)) chain))
      in
      Format.printf "  %-10d %-18.0f %-18.0f@." n full incremental)
    [ 10; 50; 100; 500; 1000 ];
  Format.printf
    "  shape: a full fold is linear in the log; in a play, a call pays for its \
     new events only@."

(* Ablation 2 — exploration strategy.  How many distinct interleavings do
   exhaustive prefixes vs. random schedules observe for the same budget? *)
let print_exploration_ablation () =
  Format.printf "@.== ablation: exhaustive prefixes vs. random schedules (coverage) ==@.@.";
  let layer = Ticket_lock.l0 () in
  let m = Ticket_lock.c_module () in
  let client _i =
    Prog.Module.link m
      (Prog.bind (Prog.call "acq" [ vi 0 ]) (fun v ->
           Prog.call "rel" [ vi 0; v ]))
  in
  let threads = threads 2 client in
  let distinct scheds =
    List.length (Log.dedup (V.Explore.all_logs (run_all_scheds layer threads scheds)))
  in
  let budgets = [ 8; 16; 32; 64 ] in
  Format.printf "  %-8s %-22s %-22s@." "budget" "exhaustive (depth log2)" "random seeds";
  List.iter
    (fun b ->
      let depth = int_of_float (Float.round (log (float_of_int b) /. log 2.)) in
      let ex = V.Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth in
      let rnd = List.init b (fun k -> Sched.random ~seed:(k + 1)) in
      Format.printf "  %-8d %-22d %-22d@." b (distinct ex) (distinct rnd))
    budgets;
  Format.printf
    "  shape: exhaustive prefixes dominate early decisions; random catches the tail@."

let print_dpor_ablation () =
  Format.printf
    "@.== explore: DPOR vs. exhaustive at equal depth (schedules run) ==@.@.";
  let qm = shared_queue_module () in
  let linked_queue i = Prog.Module.link qm (queue_client i) in
  let games =
    [ "Llock atomic 3t", Lock_intf.layer "Llock", threads 3 lock_client, 5;
      "queue underlay 2t", Queue_shared.underlay (), threads 2 linked_queue, 4;
      "queue underlay 3t", Queue_shared.underlay (), threads 3 linked_queue, 3;
      "queue overlay 3t", Queue_shared.overlay (), threads 3 queue_client, 5 ]
  in
  Format.printf "  %-20s %-7s %-12s %-12s %-9s %s@." "game" "depth" "dpor-run"
    "exhaustive" "distinct" "agree";
  List.iter
    (fun (name, layer, threads, depth) ->
      let r = dpor_explore ~depth layer threads in
      let o =
        V.Budget.value
          (V.Explore.oracle_ctx ~ctx:(vctx ()) ~independence:V.Dpor.Exact
             ~sym:false ~depth layer threads r)
      in
      let s = r.V.Dpor.stats in
      Format.printf "  %-20s %-7d %-12d %-12d %d=%-7d %b@." name depth
        s.V.Dpor.schedules_run o.V.Explore.runs s.V.Dpor.distinct_logs
        (List.length o.V.Explore.logs)
        o.V.Explore.agree)
    games;
  Format.printf
    "  shape: branching only at enabled choices plus sleep sets prunes the \
     blocked and commuting interleavings@."

(* ------------------------------------------------------------------ *)
(* rows — the one schema of the measured sections                       *)
(* ------------------------------------------------------------------ *)

(* A row is one measured case: what ran ([case] and [params]) and what it
   measured ([values]).  Facts about a whole section — a gate verdict, a
   recommendation — are rows too, so every BENCH_*.json has one shape:
   {"bench", "commit", "nproc", "rows": [{"case", "params", "values"}]}. *)
type value =
  | I of int
  | F of float
  | B of bool
  | S of string
  | T of V.Verify_clock.timing

type row = {
  case : string;
  params : (string * value) list;
  values : (string * value) list;
}

let row ?(params = []) case values = { case; params; values }

let text_of_value = function
  | I n -> string_of_int n
  | F f -> Printf.sprintf "%.4g" f
  | B b -> string_of_bool b
  | S s -> s
  | T t ->
    Printf.sprintf "%.4gms[%.4g..%.4g n=%d]" t.median_ms t.min_ms t.max_ms t.n

let print_rows title rows =
  Format.printf "@.== %s ==@.@." title;
  let fields kvs =
    String.concat "  " (List.map (fun (k, v) -> k ^ "=" ^ text_of_value v) kvs)
  in
  List.iter
    (fun r ->
      Format.printf "  %-18s %s%s%s@." r.case (fields r.params)
        (if r.params = [] then "" else "  |  ")
        (fields r.values))
    rows

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_of_value = function
  | I n -> string_of_int n
  | F f -> json_float f
  | B b -> string_of_bool b
  | S s -> json_string s
  | T t ->
    json_object
      [ "median_ms", json_float t.median_ms; "min_ms", json_float t.min_ms;
        "max_ms", json_float t.max_ms; "n", string_of_int t.n ]

let source_commit =
  lazy
    (try
       let ic =
         Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null"
       in
       let c = try input_line ic with End_of_file -> "unknown" in
       ignore (Unix.close_process_in ic);
       c
     with Unix.Unix_error _ -> "unknown")

(* No JSON library is a dependency; the schema is flat enough to print
   by hand. *)
let write_json section rows =
  let path = Printf.sprintf "BENCH_%s.json" section in
  let fields kvs = json_object (List.map (fun (k, v) -> k, json_of_value v) kvs) in
  let json_row r =
    json_object
      [ "case", json_string r.case; "params", fields r.params;
        "values", fields r.values ]
  in
  (* Read the commit before [open_out] truncates a committed file: that
     would mark the tree dirty. *)
  let commit = Lazy.force source_commit in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": %s,\n  \"commit\": %s,\n  \"nproc\": %d,\n  \"rows\": [\n%s\n  ]\n}\n"
    (json_string section)
    (json_string commit)
    (Domain.recommended_domain_count ())
    (String.concat ",\n" (List.map (fun r -> "    " ^ json_row r) rows));
  close_out oc;
  Format.printf "@.  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* parallel — multicore certificate checking (domain-pool scaling)      *)
(* ------------------------------------------------------------------ *)

(* Sweep the race checker over a fixed exhaustive schedule suite across
   the jobs grid {1, 2, 4, 7} (the determinism grid the tests pin).
   Parallelism must change wall-clock only: the verdict at every jobs
   count is compared structurally against the sequential one.

   Steady-state hygiene: each jobs count gets a warm-up run over a
   truncated suite first (pool domains spawned, code paths warmed), and
   the minor heap is sized for replay workloads — with the default 256k
   minor heap, domains rendezvous for a stop-the-world minor collection
   every couple of thousand schedules, which is pure overhead on every
   host and catastrophic on oversubscribed ones. *)

let jobs_grid = [ 1; 2; 4; 7 ]

(* words; ~8 MB per domain.  Applied once, at the start of the parallel
   section. *)
let parallel_minor_heap = 1_048_576

let parallel_warmup_schedules = 512

let verdict_name = function
  | V.Races.Race_free { runs } -> Printf.sprintf "race-free(%d)" runs
  | V.Races.Race f -> "race@" ^ f.Ccal_core.Failure.f_sched
  | V.Races.Other_failure msg -> "other: " ^ msg
  | V.Races.Exhausted { partial; _ } ->
    (* scanned/clean are the jobs-deterministic part; spent.elapsed_ms is
       wall clock and deliberately excluded *)
    Printf.sprintf "exhausted(%d scanned, %d clean)" partial.V.Races.scanned
      partial.V.Races.clean

let parallel_scaling_games () =
  let mcs_m = Mcs_lock.c_module () in
  let qm = shared_queue_module () in
  [
    (* the ≥10⁵-schedule headline: 5 threads contending an abstract lock,
       depth 8 — 5⁸ = 390,625 exhaustive schedules with a cheap (non-C)
       per-schedule body, the regime where work distribution, not the
       interpreter, decides the curve *)
    "llock-5t", Lock_intf.layer "Llock", threads 5 lock_client, 8;
    "mcs-lock-3t", Mcs_lock.l0 (),
    threads 3 (fun i -> Prog.Module.link mcs_m (lock_client i)), 6;
    "shared-queue-3t", Queue_shared.underlay (),
    threads 3 (fun i -> Prog.Module.link qm (queue_client i)), 5;
  ]

(* One game across the jobs grid: its rows, and its (jobs, speedup)
   curve for [Scaling.recommend_domains]. *)
let scaling_rows (name, layer, threads, depth) =
  let tids = List.map fst threads in
  let suite () = V.Explore.exhaustive_scheds ~tids ~depth in
  let schedules = List.length (suite ()) in
  let check jobs scheds =
    V.Races.check_ctx ~ctx:(vctx ~jobs ()) ~max_steps:200_000 ~scheds layer
      threads
  in
  let runs =
    List.map
      (fun jobs ->
        ignore
          (check jobs
             (List.filteri (fun i _ -> i < parallel_warmup_schedules) (suite ())));
        (* one repeat: trace schedulers are single-use, and the suite is
           built outside the timing *)
        let scheds = suite () in
        let verdict, t =
          V.Verify_clock.measure ~repeats:1 (fun () -> check jobs scheds)
        in
        jobs, verdict, t)
      jobs_grid
  in
  let base_ms = match runs with (_, _, t) :: _ -> t.median_ms | [] -> nan in
  let speedup t = base_ms /. t.V.Verify_clock.median_ms in
  let params = [ "depth", I depth; "schedules", I schedules ] in
  let verdicts_agree =
    match runs with
    | [] -> true
    | (_, v0, _) :: rest -> List.for_all (fun (_, v, _) -> v = v0) rest
  in
  ( List.map (fun (jobs, _, t) -> jobs, speedup t) runs,
    List.map
      (fun (jobs, v, t) ->
        row name ~params:(params @ [ "jobs", I jobs ])
          [ "ms", T t;
            "schedules_per_sec", F (float_of_int schedules /. (t.median_ms /. 1000.));
            "speedup", F (speedup t); "verdict", S (verdict_name v) ])
      runs
    @ [ row name ~params [ "verdicts_agree", B verdicts_agree ] ] )

(* The S31 dpor engine with and without sym on one game: the ticket lock
   at 4 threads, depth 8, events independence — the scaling point of the
   `make check-sym` gate.  Plain sleep-set DPOR replays every surviving
   prefix; symmetry reduction collapses the frontier to the orbit
   representatives.  ms per leaf is the wall time over the prefixes
   replayed, walk included. *)
let engine_rows () =
  let module E = V.Ctx.Engine in
  let depth = 8 in
  List.map
    (fun engine ->
      let r, t =
        V.Verify_clock.measure ~repeats:1 (explore_ticket4 ~engine ~depth)
      in
      let s = r.V.Dpor.stats in
      let runs = s.V.Dpor.schedules_run in
      row "ticket-4t"
        ~params:[ "engine", S (E.to_string engine); "depth", I depth;
                  "independence", S "events" ]
        [ "ms", T t; "schedules_run", I runs;
          "distinct_logs", I s.V.Dpor.distinct_logs;
          "sleep_prunes", I s.V.Dpor.sleep_set_prunes;
          "sym_prunes", I s.V.Dpor.sym_prunes;
          "runs_per_sec", F (float_of_int runs /. (t.median_ms /. 1000.));
          "ms_per_leaf", F (t.median_ms /. float_of_int (max 1 runs)) ])
    [ E.dpor ~depth; { (E.dpor ~depth) with E.sym = true } ]

let run_parallel () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = parallel_minor_heap };
  let games = List.map scaling_rows (parallel_scaling_games ()) in
  (* recommended_domains is derived from the measured curve of the
     largest game (the first; argmax speedup, ties toward fewer domains) —
     a measurement, not [Domain.recommended_domain_count], which says
     nothing about whether this workload actually scales on this host. *)
  let recommended =
    match games with
    | (curve, _) :: _ -> Scaling.recommend_domains curve
    | [] -> 1
  in
  row "host"
    [ "minor_heap_words", I parallel_minor_heap;
      "warmup_schedules", I parallel_warmup_schedules;
      "recommended_domains", I recommended ]
  :: List.concat_map snd games
  @ engine_rows ()

(* ------------------------------------------------------------------ *)
(* telemetry — instrumentation overhead and jobs-determinism            *)
(* ------------------------------------------------------------------ *)

(* Two acceptance gates for the telemetry layer (DESIGN.md S25), measured
   on perfbench's dpor-ticket4 game (ticket lock over L0, 4 threads,
   depth 6, events independence; ~0.3 s a run, so the overhead is not
   lost in timer noise):
   - overhead: enabling counters + spans must stay under a few percent of
     the uninstrumented run (budget: 5%), medians of 7 runs each;
   - determinism: the counter totals must be bit-identical for jobs=1 and
     jobs=4 — the capture/commit protocol in [Parallel.games] at
     work. *)
let run_telemetry () =
  let depth = 6 in
  let explore jobs =
    ignore (explore_ticket4 ~jobs ~engine:(V.Ctx.Engine.dpor ~depth) ~depth ())
  in
  explore 1 (* warm-up *);
  V.Telemetry.disable ();
  let (), off = V.Verify_clock.measure ~repeats:7 (fun () -> explore 1) in
  V.Telemetry.enable ();
  let (), on = V.Verify_clock.measure ~repeats:7 (fun () -> explore 1) in
  let counters_at jobs =
    V.Telemetry.reset ();
    explore jobs;
    V.Telemetry.counters ()
  in
  let counters_j1 = counters_at 1 in
  let counters_j4 = counters_at 4 in
  let spans_recorded = List.length (V.Telemetry.spans ()) in
  V.Telemetry.disable ();
  V.Telemetry.reset ();
  row "dpor-ticket4"
    ~params:[ "threads", I 4; "depth", I depth; "independence", S "events" ]
    [ "off_ms", T off; "on_ms", T on;
      "overhead_pct", F ((on.median_ms -. off.median_ms) /. off.median_ms *. 100.);
      "overhead_budget_pct", F 5.0;
      "counters_equal", B (counters_j1 = counters_j4);
      "spans_recorded", I spans_recorded ]
  :: List.concat_map
       (fun (jobs, counters) ->
         List.map
           (fun (name, n) ->
             row "counter" ~params:[ "jobs", I jobs; "name", S name ]
               [ "value", I n ])
           counters)
       [ 1, counters_j1; 4, counters_j4 ]

(* ------------------------------------------------------------------ *)
(* certificate cache — warm vs. cold (DESIGN.md S26)                    *)
(* ------------------------------------------------------------------ *)

(* The cache acceptance gates: a warm [Stack.verify_all] over a populated
   store must (a) produce a canonical report bit-identical to the cold
   run's and (b) finish at least 2x faster.  The bench runs against a
   private temp directory so it never touches (or benefits from) the
   user's ~/.cache/ccal.  One repeat each: the cold run fills the store. *)
let run_cache () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-bench-cache-%d" (Unix.getpid ()))
  in
  let canonical = function
    | Ok r -> Format.asprintf "%a" (V.Edges.pp ~millis:false V.Stack.layout) r.V.Stack.edges
    | Error f -> Format.asprintf "ERROR: %a" Ccal_core.Failure.pp f
  in
  let case = "stack-verify-all-random2" in
  let timed_run phase =
    let cache = V.Cache.create ~dir () in
    let report, t =
      V.Verify_clock.measure ~repeats:1 (fun () -> stack_verify ~random:2 ~cache ())
    in
    let s = V.Cache.session_stats cache in
    ( cache,
      report,
      t,
      row case ~params:[ "phase", S phase ]
        [ "ms", T t; "hits", I s.hits; "misses", I s.misses;
          "invalidations", I s.invalidations; "stores", I s.stores ] )
  in
  ignore (stack_verify ~random:2 ()) (* warm-up, outside the cache *);
  let cold_cache, cold, cold_t, cold_row = timed_run "cold" in
  let { V.Cache.entries; bytes } = V.Cache.disk_stats cold_cache in
  let warm_cache, warm, warm_t, warm_row = timed_run "warm" in
  ignore (V.Cache.clear warm_cache);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  [ cold_row; warm_row;
    row case
      [ "speedup", F (cold_t.median_ms /. warm_t.median_ms);
        "speedup_gate", F 2.0;
        "reports_identical", B (canonical cold = canonical warm);
        "entries", I entries; "bytes", I bytes ] ]

(* ------------------------------------------------------------------ *)
(* robust — budgets and cancellation (DESIGN.md S27)                   *)
(* ------------------------------------------------------------------ *)

(* Two acceptance gates for the robustness layer, on mcs-lock-3t at
   depth 5:
   - overhead: a checker run with an armed (but never-tripping) budget
     must stay within 5% of the budgets-disabled run — the token polling
     and private-allowance bookkeeping are the only difference;
   - budget determinism: a pure step budget must truncate the scan at the
     same schedule prefix for every jobs count, with graceful degradation
     as the budget grows. *)
let run_robust () =
  let m = Mcs_lock.c_module () in
  let layer = Mcs_lock.l0 () in
  let threads = threads 3 (fun i -> Prog.Module.link m (lock_client i)) in
  let tids = List.map fst threads in
  let depth = 5 in
  let check ctx =
    (* fresh suite per run: trace schedulers are single-use *)
    verdict_name
      (V.Races.check_ctx ~ctx ~max_steps:200_000
         ~scheds:(V.Explore.exhaustive_scheds ~tids ~depth)
         layer threads)
  in
  ignore (check V.Ctx.default) (* warm-up *);
  let _, off = V.Verify_clock.measure ~repeats:5 (fun () -> check V.Ctx.default) in
  let armed () =
    V.Ctx.with_budget (V.Budget.make ~ms:1e12 ~steps:max_int ()) V.Ctx.default
  in
  let _, on = V.Verify_clock.measure ~repeats:5 (fun () -> check (armed ())) in
  let unbudgeted = check V.Ctx.default in
  let budgeted ~jobs steps =
    check (V.Ctx.with_budget (V.Budget.make ~steps ()) (vctx ~jobs ()))
  in
  let budget_rows =
    List.map
      (fun steps ->
        let v = budgeted ~jobs:1 steps in
        ( steps,
          v,
          List.for_all
            (fun jobs -> budgeted ~jobs steps = v)
            (List.filter (fun j -> j <> 1) jobs_grid) ))
      [ 200; 2_000; 20_000 ]
  in
  let jobs_list = String.concat "," (List.map string_of_int jobs_grid) in
  row "budget-overhead" ~params:[ "game", S "mcs-lock-3t"; "depth", I depth ]
    [ "off_ms", T off; "on_ms", T on;
      "overhead_pct", F ((on.median_ms -. off.median_ms) /. off.median_ms *. 100.);
      "overhead_budget_pct", F 5.0 ]
  :: row "unbudgeted" [ "verdict", S unbudgeted ]
  :: List.map
      (fun (steps, v, _) ->
        row "step-budget" ~params:[ "steps", I steps ] [ "verdict", S v ])
      budget_rows
  @ [ row "step-budget" ~params:[ "jobs", S jobs_list ]
        [ "budget_scans_agree",
          B (List.for_all (fun (_, _, agree) -> agree) budget_rows) ] ]

(* ------------------------------------------------------------------ *)
(* kv — YCSB-style throughput over the certified kv stack (S28)         *)
(* ------------------------------------------------------------------ *)

(* The serving-stack bench: each thread runs a seeded read/write mix over
   the sharded hash table (the certified implementation, interpreted over
   the lock layer), under round-robin and random schedules.  Reported
   ops/sec is end-to-end interpreter throughput — what certification
   itself pays per replayed schedule — so the thread axis shows how the
   per-op cost grows with the log, not hardware parallelism: the game
   interpreter is sequential by design.  With incremental replay
   (DESIGN.md S32) each primitive call steps only the events appended
   since the last one, so the curve is flat where per-op work is
   constant; the 1 -> 8 thread ratio is checked against the 2x gate. *)

let kv_shards = 4
let kv_ops_per_thread = 500
let kv_keyspace = 1024

let run_kv_mix read_pct =
  let one threads =
    let play sched =
      let layer, ts =
        Ccal_kv.Kv_stack.ycsb_game ~shards:kv_shards ~threads ~read_pct
          ~ops:kv_ops_per_thread ~keyspace:kv_keyspace ()
      in
      Game.run (Game.config ~max_steps:5_000_000 layer ts sched)
    in
    ignore (play Sched.round_robin) (* warm-up *);
    let outcomes, t =
      V.Verify_clock.measure ~repeats:5 (fun () ->
          [ play Sched.round_robin; play (Sched.random ~seed:7) ])
    in
    let ops_per_sec =
      float_of_int (2 * threads * kv_ops_per_thread) /. (t.median_ms /. 1000.)
    in
    ( ops_per_sec,
      row "ycsb"
        ~params:[ "read_pct", I read_pct; "threads", I threads;
                  "shards", I kv_shards; "ops_per_thread", I kv_ops_per_thread;
                  "keyspace", I kv_keyspace ]
        [ "ms", T t; "ops_per_sec", F ops_per_sec;
          "events",
          I (List.fold_left (fun n (o : Game.outcome) -> n + Log.length o.Game.log) 0
               outcomes);
          "all_done",
          B
            (List.for_all
               (fun (o : Game.outcome) ->
                 match o.Game.status with Game.All_done -> true | _ -> false)
               outcomes) ] )
  in
  let runs = List.map one [ 1; 2; 4; 8 ] in
  (* throughput at 1 thread over throughput at 8: 1.0 is a flat curve,
     and the gate asks for at most 2 *)
  let ratio = fst (List.hd runs) /. fst (List.nth runs 3) in
  List.map snd runs
  @ [ row "ycsb" ~params:[ "read_pct", I read_pct ]
        [ "flat_ratio_1_to_8", F ratio; "gate_within_2x_met", B (ratio <= 2.) ] ]

let run_kv () = List.concat_map run_kv_mix [ 95; 50 ]

(* ------------------------------------------------------------------ *)
(* tso — dual-mode certification and litmus conformance (S29)           *)
(* ------------------------------------------------------------------ *)

(* Three tables for EXPERIMENTS.md:
   - certify rows: the same certificate built under SC and under x86-TSO
     (store buffers, drain environments, flusher moves) — the cost of
     promoting the memory model from an assumption to a checked input;
   - stack rows: the four layer-stack certificates of perfbench's
     certify-corpus ({ticket, mcs} x {SC, TSO}, dpor:8) at jobs 1, timed
     7 times, with the replay events one run folds
     ([replay.events_folded], deterministic);
   - litmus rows: the conformance suite, timing the reachable-outcome
     enumeration per mode and pinning observed = expected. *)
let run_tso () =
  let stack (lock, lock_name) memory =
    let ctx = V.Ctx.with_memory memory (V.Ctx.make ~jobs:1 ()) in
    let certify () =
      match
        V.Budget.value
          (V.Stack.verify_all_ctx ~ctx ~lock ~strategy:(V.Ctx.Engine.dpor ~depth:8) ())
      with
      | Ok { V.Stack.completed; next_edge = None } -> completed.V.Stack.total_checks
      | _ -> failwith "tso stack: the stack must certify"
    in
    V.Telemetry.reset ();
    V.Telemetry.enable ();
    ignore (certify ());
    let folded = V.Telemetry.get "replay.events_folded" in
    V.Telemetry.disable ();
    V.Telemetry.reset ();
    let checks, t = V.Verify_clock.measure ~repeats:7 certify in
    row "stack"
      ~params:
        [ "lock", S lock_name; "memory", S (Memory.to_string memory); "strategy", S "dpor:8" ]
      [ "checks", I checks; "events_folded", I folded; "ms", T t ]
  in
  let stacks =
    List.concat_map
      (fun lock -> List.map (stack lock) [ Memory.Sc; Memory.Tso ])
      [ `Ticket, "ticket"; `Mcs, "mcs" ]
  in
  let cert name certify =
    let checks memory =
      let r, t = V.Verify_clock.measure ~repeats:1 (fun () -> certify memory) in
      (match r with Ok c -> Calculus.count_checks c | Error _ -> -1), t
    in
    let sc_checks, sc_t = checks Memory.Sc in
    let tso_checks, tso_t = checks Memory.Tso in
    row "certify" ~params:[ "object", S name ]
      [ "sc_checks", I sc_checks; "sc_ms", T sc_t; "tso_checks", I tso_checks;
        "tso_ms", T tso_t ]
  in
  let ctx = vctx () in
  let litmus (t : Ccal_machine.Litmus.test) =
    let (sc, tso), time =
      V.Verify_clock.measure ~repeats:1 (fun () ->
          List.hd (V.Litmus.run_both ~tests:[ t ] ~ctx ()))
    in
    row "litmus" ~params:[ "test", S t.Ccal_machine.Litmus.name ]
      [ "sc_outcomes", I (List.length sc.V.Litmus.observed);
        "tso_outcomes", I (List.length tso.V.Litmus.observed);
        "conforms", B (V.Litmus.ok sc && V.Litmus.ok tso); "ms", T time ]
  in
  [
    cert "Ticket lock" (fun memory ->
        Object_intf.certify Ticket_lock.recipe ~memory ());
    cert "MCS lock" (fun memory ->
        Object_intf.certify Mcs_lock.recipe ~memory ());
    cert "Queue stack" (fun memory -> Queue_shared.full_stack_certify ~memory ());
  ]
  @ stacks
  @ List.map litmus Ccal_machine.Litmus.tests

(* ------------------------------------------------------------------ *)
(* crash — crash-refinement certification and recovery cost (S30)       *)
(* ------------------------------------------------------------------ *)

(* Two tables for EXPERIMENTS.md:
   - edge rows: the crash-refinement certificate per edge (schedules x
     crash points x masks = recoveries), with the jobs {1,4} determinism
     gate applied to the canonical report;
   - corpus rows: each edge at the certify-corpus configuration (3
     client threads, dpor:10), certified alone at jobs 1 and timed 7
     times — the suite's DPOR walk included — with the replay events
     its check folds ([replay.events_folded], deterministic);
   - recover rows: the recovery-scan micro-cost as the surviving log
     grows — recovery is O(records), the crash-safety analogue of the
     Sec. 7 replay-cost story.  Each point is 1,000 recoveries, timed
     7 times. *)
let run_crash () =
  let module D = Ccal_disk in
  let edges () = [ D.Wal.crash_edge (); D.Durable_kv.crash_edge () ] in
  let report jobs =
    match V.Budget.value (V.Crash.check_ctx ~ctx:(vctx ~jobs ()) (edges ())) with
    | Ok r -> r
    | Error f -> failwith (Format.asprintf "%a" Failure.pp f)
  in
  let iterations = 1_000 in
  let recover_row records =
    let st =
      D.Disk.of_durable
        (List.init records (fun i ->
             (i + 1, D.Wal.record { D.Wal.lsn = i + 1; key = i; value = 10 * i })))
    in
    let (), t =
      V.Verify_clock.measure ~repeats:7 (fun () ->
          for _ = 1 to iterations do
            ignore (D.Wal.recover st)
          done)
    in
    row "recover" ~params:[ "records", I records; "iterations", I iterations ]
      [ "ms", T t;
        "ns_per_recover", F (t.median_ms *. 1e6 /. float_of_int iterations) ]
  in
  (* the recovery curve first, while no pool domain is alive: idle pool
     domains join every minor collection, which makes scans that allocate
     across one read noisy (EXPERIMENTS.md) *)
  let recover_rows = List.map recover_row [ 10; 50; 100; 500; 1000 ] in
  let corpus_row (edge : V.Crash.edge) =
    let ctx = V.Ctx.make ~jobs:1 ~strategy:(V.Ctx.Engine.dpor ~depth:10) () in
    let check () =
      match V.Budget.value (V.Crash.check_ctx ~ctx [ edge ]) with
      | Ok { V.Crash.edges = [ e ]; _ } -> e
      | Ok _ -> failwith "crash corpus: expected one edge report"
      | Error f -> failwith (Format.asprintf "%a" Failure.pp f)
    in
    V.Telemetry.reset ();
    V.Telemetry.enable ();
    ignore (check ());
    let folded = V.Telemetry.get "replay.events_folded" in
    V.Telemetry.disable ();
    V.Telemetry.reset ();
    let e, t = V.Verify_clock.measure ~repeats:7 check in
    let n = V.Edges.count e in
    row "crash-corpus"
      ~params:[ "edge", S e.V.Edges.name; "threads", I 3; "strategy", S "dpor:10" ]
      [ "schedules", I (n "schedules"); "crash_points", I (n "crash_points");
        "recoveries", I (n "recoveries"); "events_folded", I folded; "ms", T t ]
  in
  let corpus_rows =
    List.map corpus_row
      [ D.Wal.crash_edge ~threads:3 (); D.Durable_kv.crash_edge ~threads:3 () ]
  in
  ignore (report 1) (* warm-up *);
  let r1 = report 1 in
  let r4 = report 4 in
  let canonical r =
    Format.asprintf "%a" (V.Edges.pp ~millis:false V.Crash.layout) r.V.Crash.edges
  in
  List.map
    (fun (e : V.Edges.row) ->
      let n = V.Edges.count e in
      row "crash-edge" ~params:[ "edge", S e.V.Edges.name ]
        [ "schedules", I (n "schedules"); "crash_points", I (n "crash_points");
          "recoveries", I (n "recoveries"); "ms", F e.V.Edges.millis ])
    r1.V.Crash.edges
  @ row "crash-edge" ~params:[ "jobs", S "1,4" ]
      [ "reports_identical_jobs_1_4", B (canonical r1 = canonical r4) ]
    :: corpus_rows
  @ recover_rows

(* moves — minor words per play move, and per play (S35, S36)       *)
(* moves — minor words per play move, and per play (S35, S36)             *)
(* ------------------------------------------------------------------ *)

(* One row per game of [Moves.games]: exact allocation counts, so a
   single run each, beside the recorded figure the perf-gate test bounds
   and the figure before S35. *)
let run_moves () =
  List.map
    (fun (g : Moves.game) ->
      let count, words = g.run () in
      row "moves" ~params:[ "game", S g.name ]
        [ g.per ^ "s", I count; "minor_words_per_" ^ g.per, F words;
          "recorded", F g.recorded; "before", F g.before ])
    Moves.games

(* ------------------------------------------------------------------ *)
(* Bechamel micro/macro benchmarks                                      *)
(* ------------------------------------------------------------------ *)

let make_tests (ghost_layer, ghost_m, clean_layer, clean_m) =
  Test.make_grouped ~name:"ccal"
    [
      (* perf_lock (Sec. 6): one acq+rel round on a single core *)
      Test.make ~name:"perf_lock/ghost-primitives"
        (Staged.stage (fun () -> ignore (lock_round ghost_layer ghost_m)));
      Test.make ~name:"perf_lock/erased"
        (Staged.stage (fun () -> ignore (lock_round clean_layer clean_m)));
      (* tab2: certification cost per object *)
      Test.make ~name:"tab2/ticket-certify"
        (Staged.stage (fun () ->
             ignore (Object_intf.certify Ticket_lock.recipe ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/mcs-certify"
        (Staged.stage (fun () ->
             ignore (Object_intf.certify Mcs_lock.recipe ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/local-queue-certify"
        (Staged.stage (fun () ->
             ignore (Object_intf.certify Queue_local.recipe ())));
      Test.make ~name:"tab2/shared-queue-certify"
        (Staged.stage (fun () ->
             ignore (Object_intf.certify Queue_shared.recipe ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/qlock-certify"
        (Staged.stage (fun () ->
             ignore (Object_intf.certify Qlock.recipe ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/ipc-certify"
        (Staged.stage (fun () ->
             ignore (Object_intf.certify Ipc.recipe ~focus:[ 1 ] ())));
      (* tab1: the toolkit self-check *)
      Test.make ~name:"tab1/toolkit-selfcheck"
        (Staged.stage (fun () -> ignore (stack_verify ~random:1 ())));
      (* fig1: the whole Fig. 1 stack *)
      Test.make ~name:"fig1_stack/verify-all"
        (Staged.stage (fun () -> ignore (stack_verify ~random:2 ())));
      (* fig5: the ticket-lock pipeline incl. soundness *)
      Test.make ~name:"fig5_pipeline/certify+soundness"
        (Staged.stage (fun () ->
             match Object_intf.certify Ticket_lock.recipe () with
             | Error _ -> ()
             | Ok cert ->
               ignore
                 (V.Linearizability.refine_cert_ctx
                    ~ctx:(vctx ~strategy:(V.Ctx.Engine.random ~count:2) ())
                    cert ~client:lock_client)));
    ]

let run_benchmarks tests =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2_000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  Format.printf "@.== Bechamel timings (ns per run, OLS estimate) ==@.@.";
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> v
          | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      if est < 1_000. then Format.printf "  %-40s %12.0f ns@." name est
      else if est < 1_000_000. then Format.printf "  %-40s %12.1f us@." name (est /. 1e3)
      else Format.printf "  %-40s %12.2f ms@." name (est /. 1e6))
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

(* The measured sections, in run order: each writes BENCH_<name>.json. *)
let sections =
  [
    "parallel", "domain-pool scaling and dpor engines (S24, S31)", run_parallel;
    "telemetry", "instrumentation overhead and jobs-determinism (S25)", run_telemetry;
    "cache", "certificate cache, cold vs. warm (S26)", run_cache;
    "robust", "budgets (S27)", run_robust;
    "kv", "YCSB-style throughput over the certified kv stack (S28)", run_kv;
    "tso", "dual-mode certification and litmus conformance (S29)", run_tso;
    "crash", "crash-refinement certification and recovery cost (S30)", run_crash;
    "moves", "minor words per play move, and per play (S35, S36)", run_moves;
  ]

(* [None] runs everything; [--only a,b] runs just those measured
   sections.  Anything else exits 2 naming the sections. *)
let only =
  let names = List.map (fun (n, _, _) -> n) sections in
  let usage why =
    Format.eprintf
      "bench: %s@.usage: main.exe [--only SECTION[,SECTION...]]@.sections: %s@."
      why (String.concat ", " names);
    exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [] -> None
  | [ "--only"; list ] -> (
    let asked = String.split_on_char ',' list in
    match List.filter (fun s -> not (List.mem s names)) asked with
    | [] -> Some asked
    | bad -> usage ("unknown section " ^ String.concat ", " bad))
  | args -> usage ("bad arguments: " ^ String.concat " " args)

let () =
  Format.printf "=== CCAL reproduction benchmarks (PLDI'18, Sec. 6) ===@.";
  let perf =
    if only = None then begin
      print_tab1 ();
      print_tab2 (tab2_rows ());
      let perf = print_perf_lock () in
      print_contention_sweep ();
      print_replay_ablation ();
      print_exploration_ablation ();
      print_dpor_ablation ();
      Some perf
    end
    else None
  in
  List.iter
    (fun (name, title, run) ->
      if Option.fold ~none:true ~some:(List.mem name) only then begin
        let rows = run () in
        (* idle pool domains join every minor collection: a section must
           not time its games next to the pools an earlier one spawned *)
        V.Parallel.shutdown_all ();
        print_rows (name ^ ": " ^ title) rows;
        write_json name rows
      end)
    sections;
  Option.iter
    (fun perf ->
      let bench_rows = run_benchmarks (make_tests perf) in
      (* headline ratio, from wall-clock *)
      match
        ( List.assoc_opt "ccal/perf_lock/ghost-primitives" bench_rows,
          List.assoc_opt "ccal/perf_lock/erased" bench_rows )
      with
      | Some g, Some e when e > 0. ->
        Format.printf
          "@.perf_lock headline: ghost/erased wall-clock ratio = %.2fx (paper: 87/35 = 2.49x)@."
          (g /. e)
      | _ -> ())
    perf;
  Format.printf "@.done.@."
