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

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit
open Ccal_core
open Ccal_objects
module C = Ccal_clight.Csyntax

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

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, (Unix.gettimeofday () -. t0) *. 1000.

(* Ctx shims: the bench drives everything through the [*_ctx] checker
   entry points (the pre-Ctx signatures are deprecated) with an unlimited
   budget, so [Budget.value] never loses a partial result. *)
let vctx ?jobs ?cache () = Ccal_verify.Ctx.make ?jobs ?cache ()

let run_all_scheds ?jobs layer threads scheds =
  Ccal_verify.Budget.value
    (Ccal_verify.Explore.run_all_ctx ~ctx:(vctx ?jobs ()) layer threads scheds)

let dpor_explore ?jobs ~depth layer threads =
  Ccal_verify.Budget.value
    (Ccal_verify.Dpor.explore_ctx ~ctx:(vctx ?jobs ()) ~depth layer threads)

let stack_verify ?cache ~seeds () =
  Result.map
    (fun (p : Ccal_verify.Stack.progress) -> p.Ccal_verify.Stack.completed)
    (Ccal_verify.Budget.value
       (Ccal_verify.Stack.verify_all_ctx ~ctx:(vctx ?cache ()) ~seeds ()))

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
  let result, ms = timed certify in
  let checks =
    match result with
    | Ok cert -> Calculus.count_checks cert
    | Error _ -> -1
  in
  { obj; paper_src; src = c_size fns + asm_size fns; spec; checks; ms }

let tab2_rows () =
  [
    tab2_row "Ticket lock" 74 [ Ticket_lock.acq_fn; Ticket_lock.rel_fn ] 5
      (fun () -> Ticket_lock.certify ~focus:[ 1; 2 ] ());
    tab2_row "MCS lock" 287 [ Mcs_lock.acq_fn; Mcs_lock.rel_fn ] 5
      (fun () -> Mcs_lock.certify ~focus:[ 1; 2 ] ());
    tab2_row "Local queue" 377
      [ Queue_local.enq_fn; Queue_local.deq_fn; Queue_local.qlen_fn ] 3
      (fun () -> Queue_local.certify ());
    tab2_row "Shared queue" 20 [ Queue_shared.deq_fn; Queue_shared.enq_fn ] 4
      (fun () -> Queue_shared.certify ());
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
        match
          Thread_sched.check_multithreaded_linking ~placement ~layer
            ~threads:[ 1, prog 1; 2, prog 2; 3, prog 3 ]
            ~scheds:(Sched.default_suite ~seeds:4) ()
        with
        | Ok n -> Ok (Calculus.empty_rule layer (List.init n (fun i -> i)))
        | Error msg -> Error msg);
    tab2_row "Queuing lock" 112 [ Qlock.acq_q_fn; Qlock.rel_q_fn ] 4
      (fun () ->
        Result.map_error (Format.asprintf "%a" Calculus.pp_error) (Qlock.certify ()));
    tab2_row "RW lock (ext)" 0
      [ Rwlock.acq_r_fn; Rwlock.rel_r_fn; Rwlock.acq_w_fn; Rwlock.rel_w_fn ] 4
      (fun () -> Rwlock.certify ());
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
    let threads = List.init n (fun k -> k + 1, client (k + 1)) in
    let o =
      Game.run (Game.config ~max_steps:2_000_000 layer threads (Sched.random ~seed:99))
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
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
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
  let threads = [ 1, client 1; 2, client 2 ] in
  let distinct scheds =
    Ccal_verify.Explore.count_distinct_logs
      (run_all_scheds layer threads scheds)
  in
  let budgets = [ 8; 16; 32; 64 ] in
  Format.printf "  %-8s %-22s %-22s@." "budget" "exhaustive (depth log2)" "random seeds";
  List.iter
    (fun b ->
      let depth = int_of_float (Float.round (log (float_of_int b) /. log 2.)) in
      let ex = Ccal_verify.Explore.exhaustive_scheds ~tids:[ 1; 2 ] ~depth in
      let rnd = Ccal_verify.Explore.random_scheds ~count:b in
      Format.printf "  %-8d %-22d %-22d@." b (distinct ex) (distinct rnd))
    budgets;
  Format.printf
    "  shape: exhaustive prefixes dominate early decisions; random catches the tail@."

let print_dpor_ablation () =
  Format.printf
    "@.== explore: DPOR vs. exhaustive at equal depth (schedules run) ==@.@.";
  let lock_client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  let queue_client i =
    Prog.bind (Prog.call "enQ_s" [ vi 0; vi (10 * i) ]) (fun _ ->
        Prog.call "deQ_s" [ vi 0 ])
  in
  let qm =
    Ccal_clight.Csem.module_of_fns [ Queue_shared.deq_fn; Queue_shared.enq_fn ]
  in
  let games =
    [ "Llock atomic 3t", Lock_intf.layer "Llock",
      List.init 3 (fun k -> k + 1, lock_client (k + 1)), 5;
      "queue underlay 2t", Queue_shared.underlay (),
      List.init 2 (fun k -> k + 1, Prog.Module.link qm (queue_client (k + 1))), 4;
      "queue underlay 3t", Queue_shared.underlay (),
      List.init 3 (fun k -> k + 1, Prog.Module.link qm (queue_client (k + 1))), 3;
      "queue overlay 3t", Queue_shared.overlay (),
      List.init 3 (fun k -> k + 1, queue_client (k + 1)), 5 ]
  in
  Format.printf "  %-20s %-7s %-12s %-12s %-9s %s@." "game" "depth" "dpor-run"
    "exhaustive" "distinct" "agree";
  List.iter
    (fun (name, layer, threads, depth) ->
      let r = dpor_explore ~depth layer threads in
      let tids = List.map fst threads in
      let ex =
        run_all_scheds layer threads
          (Ccal_verify.Explore.exhaustive_scheds ~tids ~depth)
      in
      let exh_distinct = Ccal_verify.Explore.count_distinct_logs ex in
      let s = r.Ccal_verify.Dpor.stats in
      Format.printf "  %-20s %-7d %-12d %-12d %d=%-7d %b@." name depth
        s.Ccal_verify.Dpor.schedules_run (List.length ex)
        s.Ccal_verify.Dpor.distinct_logs exh_distinct
        (s.Ccal_verify.Dpor.distinct_logs = exh_distinct))
    games;
  Format.printf
    "  shape: branching only at enabled choices plus sleep sets prunes the \
     blocked and commuting interleavings@."

(* ------------------------------------------------------------------ *)
(* parallel — multicore certificate checking (domain-pool scaling)      *)
(* ------------------------------------------------------------------ *)

(* Sweep the race checker over a fixed exhaustive schedule suite across
   the jobs grid.  Parallelism must change wall-clock only: the verdict
   at every jobs count is compared structurally against the sequential
   one.  Schedule suites are stateful ([Sched.of_trace] consumes a trace
   ref), so each run regenerates its own suite.  Pass [--jobs N] to sweep
   {1, N} instead of the default {1, 2, 4, 7} (the determinism grid the
   tests pin).

   Steady-state hygiene: each jobs count gets a warm-up run over a
   truncated suite first (pool domains spawned, code paths warmed), and
   the minor heap is sized for replay workloads — with the default 256k
   minor heap, domains rendezvous for a stop-the-world minor collection
   every couple of thousand schedules, which is pure overhead on every
   host and catastrophic on oversubscribed ones.  [--min-schedules N]
   skips games whose suite is smaller than [N] (too noisy to report). *)

let int_flag name default =
  let rec find = function
    | f :: v :: _ when String.equal f name -> int_of_string_opt v
    | _ :: rest -> find rest
    | [] -> None
  in
  match find (Array.to_list Sys.argv) with Some n -> Some n | None -> default

let jobs_sweep =
  match int_flag "--jobs" None with
  | Some n when n >= 1 -> List.sort_uniq compare [ 1; n ]
  | _ -> [ 1; 2; 4; 7 ]

let min_schedules =
  match int_flag "--min-schedules" (Some 0) with Some n -> max 0 n | None -> 0

(* words; ~8 MB per domain.  Applied once, at the start of the parallel
   section. *)
let parallel_minor_heap = 1_048_576

let parallel_warmup_schedules = 512

type parallel_run = {
  jobs : int;
  ms : float;
  scheds_per_sec : float;
  speedup : float;
}

type parallel_game = {
  game : string;
  depth : int;
  schedules : int;
  runs : (parallel_run * Ccal_verify.Races.verdict) list;
  verdicts_agree : bool;
}

let verdict_name = function
  | Ccal_verify.Races.Race_free { runs } -> Printf.sprintf "race-free(%d)" runs
  | Ccal_verify.Races.Race { sched_name; _ } -> "race@" ^ sched_name
  | Ccal_verify.Races.Other_failure msg -> "other: " ^ msg
  | Ccal_verify.Races.Exhausted { partial; _ } ->
    (* scanned/clean are the jobs-deterministic part; spent.elapsed_ms is
       wall clock and deliberately excluded *)
    Printf.sprintf "exhausted(%d scanned, %d clean)"
      partial.Ccal_verify.Races.scanned partial.Ccal_verify.Races.clean

let parallel_scaling_games () =
  let lock_client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  let queue_client i =
    Prog.bind (Prog.call "enQ_s" [ vi 0; vi (10 * i) ]) (fun _ ->
        Prog.call "deQ_s" [ vi 0 ])
  in
  let mcs_m = Mcs_lock.c_module () in
  let qm =
    Ccal_clight.Csem.module_of_fns [ Queue_shared.deq_fn; Queue_shared.enq_fn ]
  in
  [
    (* the ≥10⁵-schedule headline: 5 threads contending an abstract lock,
       depth 8 — 5⁸ = 390,625 exhaustive schedules with a cheap (non-C)
       per-schedule body, the regime where work distribution, not the
       interpreter, decides the curve *)
    "llock-5t", Lock_intf.layer "Llock",
    List.init 5 (fun k -> k + 1, lock_client (k + 1)), 8;
    "mcs-lock-3t", Mcs_lock.l0 (),
    List.init 3 (fun k -> k + 1, Prog.Module.link mcs_m (lock_client (k + 1))), 6;
    "shared-queue-3t", Queue_shared.underlay (),
    List.init 3 (fun k -> k + 1, Prog.Module.link qm (queue_client (k + 1))), 5;
  ]

let run_parallel_scaling () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = parallel_minor_heap };
  Format.printf
    "@.== parallel: domain-pool scaling of the race checker (schedules/sec) ==@.@.";
  Format.printf
    "  host: %d recommended domains; sweep: {%s}; minor heap: %d words; \
     warm-up: %d schedules@.@."
    (Domain.recommended_domain_count ())
    (String.concat ", " (List.map string_of_int jobs_sweep))
    parallel_minor_heap parallel_warmup_schedules;
  Format.printf "  %-18s %-6s %-10s %-6s %-10s %-12s %-9s@." "game" "depth"
    "schedules" "jobs" "ms" "scheds/sec" "speedup";
  List.filter_map
    (fun (name, layer, threads, depth) ->
      let tids = List.map fst threads in
      let count =
        List.length (Ccal_verify.Explore.exhaustive_scheds ~tids ~depth)
      in
      if count < min_schedules then begin
        Format.printf "  %-18s skipped (%d < --min-schedules %d)@." name count
          min_schedules;
        None
      end
      else begin
        let runs =
          List.map
            (fun jobs ->
              (* steady state: spawn the pool domains and warm the code
                 paths on a truncated suite before the timed run *)
              let warm =
                List.filteri
                  (fun i _ -> i < parallel_warmup_schedules)
                  (Ccal_verify.Explore.exhaustive_scheds ~tids ~depth)
              in
              ignore
                (Ccal_verify.Races.check_ctx ~ctx:(vctx ~jobs ())
                   ~max_steps:200_000 ~scheds:warm layer threads);
              (* fresh suite per run: trace schedulers are single-use *)
              let scheds =
                Ccal_verify.Explore.exhaustive_scheds ~tids ~depth
              in
              let verdict, ms =
                Ccal_verify.Verify_clock.timed (fun () ->
                    Ccal_verify.Races.check_ctx ~ctx:(vctx ~jobs ())
                      ~max_steps:200_000 ~scheds layer threads)
              in
              let scheds_per_sec = float_of_int count /. (ms /. 1000.) in
              ({ jobs; ms; scheds_per_sec; speedup = 1.0 }, verdict))
            jobs_sweep
        in
        let base_ms =
          match runs with ({ ms; _ }, _) :: _ -> ms | [] -> nan
        in
        let runs =
          List.map
            (fun (r, v) -> { r with speedup = base_ms /. r.ms }, v)
            runs
        in
        let verdicts_agree =
          match runs with
          | [] -> true
          | (_, v0) :: rest -> List.for_all (fun (_, v) -> v = v0) rest
        in
        List.iter
          (fun (r, v) ->
            Format.printf "  %-18s %-6d %-10d %-6d %-10.1f %-12.0f %-9.2f %s@."
              name depth count r.jobs r.ms r.scheds_per_sec r.speedup
              (verdict_name v))
          runs;
        Format.printf "  %-18s verdicts %s across jobs@." name
          (if verdicts_agree then "agree" else "DISAGREE");
        Some { game = name; depth; schedules = count; runs; verdicts_agree }
      end)
    (parallel_scaling_games ())

(* ------------------------------------------------------------------ *)
(* per-engine throughput — the S31 dpor engine with and without sym     *)
(* ------------------------------------------------------------------ *)

(* One game, both settings of the dpor engine: the ticket lock at 4
   threads, depth 8, events independence — the scaling point of the
   `make check-sym` gate.  Plain sleep-set DPOR replays every surviving
   prefix; symmetry reduction collapses the frontier to the orbit
   representatives.  ms per leaf is the wall time over the prefixes
   replayed, walk included. *)

type engine_run = {
  engine : string;
  eng_ms : float;
  eng_runs : int;
  eng_distinct : int;
  eng_sleep : int;
  eng_sym : int;
  eng_per_sec : float;
  eng_ms_per_leaf : float;
}

let source_commit () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty --abbrev=12 2>/dev/null" in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c
  with Unix.Unix_error _ -> "unknown"

let run_engine_bench () =
  let module E = Ccal_verify.Ctx.Engine in
  let depth = 8 in
  Format.printf
    "@.== engines: per-engine throughput on the ticket game (4 threads, \
     depth %d, events independence) ==@.@."
    depth;
  Format.printf "  %-22s %-10s %-9s %-10s %-8s %-7s %-12s %-8s@." "engine"
    "ms" "runs" "distinct" "sleep" "sym" "runs/sec" "ms/leaf";
  let m = Ticket_lock.c_module () in
  let lock_client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  let threads =
    List.init 4 (fun k -> k + 1, Prog.Module.link m (lock_client (k + 1)))
  in
  let layer = Ticket_lock.l0 () in
  List.map
    (fun engine ->
      let r, ms =
        Ccal_verify.Verify_clock.timed (fun () ->
            Ccal_verify.Budget.value
              (Ccal_verify.Dpor.explore_ctx ~ctx:(vctx ())
                 ~independence:Ccal_verify.Dpor.Commuting_events ~engine
                 ~depth layer threads))
      in
      let s = r.Ccal_verify.Dpor.stats in
      let runs = s.Ccal_verify.Dpor.schedules_run in
      let run =
        {
          engine = E.to_string engine;
          eng_ms = ms;
          eng_runs = runs;
          eng_distinct = s.Ccal_verify.Dpor.distinct_logs;
          eng_sleep = s.Ccal_verify.Dpor.sleep_set_prunes;
          eng_sym = s.Ccal_verify.Dpor.sym_prunes;
          eng_per_sec = float_of_int runs /. (ms /. 1000.);
          eng_ms_per_leaf = ms /. float_of_int (max 1 runs);
        }
      in
      Format.printf "  %-22s %-10.1f %-9d %-10d %-8d %-7d %-12.0f %-8.3f@."
        run.engine run.eng_ms run.eng_runs run.eng_distinct run.eng_sleep
        run.eng_sym run.eng_per_sec run.eng_ms_per_leaf;
      run)
    [ E.dpor ~depth; { (E.dpor ~depth) with E.sym = true } ]

(* Hand-rolled JSON: the container has no JSON library and we may not add
   one; the schema is flat enough for printf. *)
let write_parallel_json path games engines =
  (* recommended_domains is derived from the measured curve of the largest
     game (argmax speedup, ties toward fewer domains) — a measurement, not
     [Domain.recommended_domain_count], which says nothing about whether
     this workload actually scales on this host. *)
  let recommended =
    let headline =
      List.fold_left
        (fun best g ->
          match best with
          | Some b when b.schedules >= g.schedules -> best
          | _ -> Some g)
        None games
    in
    match headline with
    | None -> 1
    | Some g ->
      Ccal_verify.Parallel.recommend_domains
        (List.map (fun (r, _) -> r.jobs, r.speedup) g.runs)
  in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"parallel-certificate-checking\",\n";
  out "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"minor_heap_words\": %d,\n" parallel_minor_heap;
  out "  \"recommended_domains\": %d,\n" recommended;
  out "  \"games\": [\n";
  List.iteri
    (fun gi g ->
      out "    {\n";
      out "      \"game\": %S,\n" g.game;
      out "      \"depth\": %d,\n" g.depth;
      out "      \"schedules\": %d,\n" g.schedules;
      out "      \"verdicts_agree\": %b,\n" g.verdicts_agree;
      out "      \"runs\": [\n";
      List.iteri
        (fun ri (r, v) ->
          out
            "        {\"jobs\": %d, \"ms\": %.3f, \"schedules_per_sec\": %.1f, \
             \"speedup\": %.3f, \"verdict\": %S}%s\n"
            r.jobs r.ms r.scheds_per_sec r.speedup (verdict_name v)
            (if ri = List.length g.runs - 1 then "" else ","))
        g.runs;
      out "      ]\n";
      out "    }%s\n" (if gi = List.length games - 1 then "" else ","))
    games;
  out "  ],\n";
  out "  \"engines\": {\n";
  out "    \"commit\": \"%s\",\n" (source_commit ());
  out "    \"nproc\": %d,\n" (Domain.recommended_domain_count ());
  out "    \"game\": \"ticket-4t\",\n";
  out "    \"depth\": 8,\n";
  out "    \"independence\": \"events\",\n";
  out "    \"runs\": [\n";
  List.iteri
    (fun ei e ->
      out
        "      {\"engine\": %S, \"ms\": %.3f, \"schedules_run\": %d, \
         \"distinct_logs\": %d, \"sleep_prunes\": %d, \"sym_prunes\": %d, \
         \"runs_per_sec\": %.1f, \"ms_per_leaf\": %.4f}%s\n"
        e.engine e.eng_ms e.eng_runs e.eng_distinct e.eng_sleep e.eng_sym
        e.eng_per_sec e.eng_ms_per_leaf
        (if ei = List.length engines - 1 then "" else ","))
    engines;
  out "    ]\n";
  out "  }\n";
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* telemetry — instrumentation overhead and jobs-determinism            *)
(* ------------------------------------------------------------------ *)

(* Two acceptance gates for the telemetry layer (DESIGN.md S25), measured
   on the Llock DPOR bench (3 threads, depth 5):
   - overhead: enabling counters + spans must stay under a few percent of
     the uninstrumented run (budget: 5%);
   - determinism: the counter totals must be bit-identical for jobs=1 and
     jobs=4 — the capture/commit protocol in [Parallel.scan] at work. *)

type telemetry_bench = {
  off_ms : float;
  on_ms : float;
  overhead_pct : float;
  counters_j1 : (string * int) list;
  counters_j4 : (string * int) list;
  counters_equal : bool;
  spans_recorded : int;
}

let run_telemetry_bench () =
  let module V = Ccal_verify in
  let lock_client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  let layer = Lock_intf.layer "Llock" in
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  let explore jobs = ignore (dpor_explore ~jobs ~depth:5 layer threads) in
  let best f =
    (* best-of-N: the minimum is the least noisy location statistic for a
       deterministic workload *)
    let rec go n acc =
      if n = 0 then acc
      else
        let _, ms = V.Verify_clock.timed f in
        go (n - 1) (Float.min acc ms)
    in
    go 7 infinity
  in
  explore 1 (* warm-up *);
  V.Telemetry.disable ();
  let off_ms = best (fun () -> explore 1) in
  V.Telemetry.enable ();
  let on_ms = best (fun () -> explore 1) in
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
  {
    off_ms;
    on_ms;
    overhead_pct = (on_ms -. off_ms) /. off_ms *. 100.;
    counters_j1;
    counters_j4;
    counters_equal = counters_j1 = counters_j4;
    spans_recorded;
  }

let print_telemetry_bench (t : telemetry_bench) =
  Format.printf
    "@.== telemetry: instrumentation overhead and jobs-determinism ==@.@.";
  Format.printf
    "  Llock dpor 3t depth-5: %.3f ms off, %.3f ms on -> %.1f%% overhead \
     (budget 5%%)@."
    t.off_ms t.on_ms t.overhead_pct;
  Format.printf "  counters jobs=1 vs jobs=4: %s@."
    (if t.counters_equal then "identical" else "DIFFER");
  List.iter
    (fun (n, v) -> Format.printf "    %-20s %d@." n v)
    t.counters_j1;
  Format.printf "  spans recorded: %d@." t.spans_recorded

let write_telemetry_json path (t : telemetry_bench) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let counters_json cs =
    String.concat ", "
      (List.map (fun (n, v) -> Printf.sprintf "%S: %d" n v) cs)
  in
  out "{\n";
  out "  \"bench\": \"telemetry-overhead\",\n";
  out "  \"game\": \"llock-dpor-3t-depth5\",\n";
  out "  \"off_ms\": %.3f,\n" t.off_ms;
  out "  \"on_ms\": %.3f,\n" t.on_ms;
  out "  \"overhead_pct\": %.2f,\n" t.overhead_pct;
  out "  \"overhead_budget_pct\": 5.0,\n";
  out "  \"counters_jobs1\": {%s},\n" (counters_json t.counters_j1);
  out "  \"counters_jobs4\": {%s},\n" (counters_json t.counters_j4);
  out "  \"counters_equal\": %b,\n" t.counters_equal;
  out "  \"spans_recorded\": %d\n" t.spans_recorded;
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* certificate cache — warm vs. cold (DESIGN.md S26)                    *)
(* ------------------------------------------------------------------ *)

(* The cache acceptance gates: a warm [Stack.verify_all] over a populated
   store must (a) produce a canonical report bit-identical to the cold
   run's and (b) finish at least 2x faster.  The bench runs against a
   private temp directory so it never touches (or benefits from) the
   user's ~/.cache/ccal. *)

type cache_bench = {
  cold_ms : float;
  warm_ms : float;
  speedup : float;
  reports_identical : bool;
  cold_stats : Ccal_verify.Cache.session;
  warm_stats : Ccal_verify.Cache.session;
  entries : int;
  bytes : int;
}

let run_cache_bench () =
  let module V = Ccal_verify in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccal-bench-cache-%d" (Unix.getpid ()))
  in
  let canonical = function
    | Ok r -> Format.asprintf "%a" V.Stack.pp_report_canonical r
    | Error e -> "ERROR: " ^ e
  in
  ignore (stack_verify ~seeds:2 ()) (* warm-up, outside the cache *);
  let cold_cache = V.Cache.create ~dir () in
  let cold, cold_ms =
    V.Verify_clock.timed (fun () -> stack_verify ~seeds:2 ~cache:cold_cache ())
  in
  let cold_stats = V.Cache.session_stats cold_cache in
  let { V.Cache.entries; bytes } = V.Cache.disk_stats cold_cache in
  let warm_cache = V.Cache.create ~dir () in
  let warm, warm_ms =
    V.Verify_clock.timed (fun () -> stack_verify ~seeds:2 ~cache:warm_cache ())
  in
  let warm_stats = V.Cache.session_stats warm_cache in
  ignore (V.Cache.clear warm_cache);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  {
    cold_ms;
    warm_ms;
    speedup = cold_ms /. warm_ms;
    reports_identical = canonical cold = canonical warm;
    cold_stats;
    warm_stats;
    entries;
    bytes;
  }

let print_cache_bench (c : cache_bench) =
  Format.printf "@.== certificate cache: cold vs. warm (S26) ==@.@.";
  Format.printf
    "  stack verify-all (seeds 2): %.2f ms cold -> %.2f ms warm = %.1fx \
     (gate: >= 2x)@."
    c.cold_ms c.warm_ms c.speedup;
  Format.printf "  canonical reports: %s@."
    (if c.reports_identical then "identical" else "DIFFER");
  Format.printf "  cold: %d hits, %d misses, %d stores@." c.cold_stats.hits
    c.cold_stats.misses c.cold_stats.stores;
  Format.printf "  warm: %d hits, %d misses, %d stores@." c.warm_stats.hits
    c.warm_stats.misses c.warm_stats.stores;
  Format.printf "  store after cold run: %d entries, %d bytes@." c.entries
    c.bytes

let write_cache_json path (c : cache_bench) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let session_json (s : Ccal_verify.Cache.session) =
    Printf.sprintf
      "{\"hits\": %d, \"misses\": %d, \"invalidations\": %d, \"stores\": %d}"
      s.hits s.misses s.invalidations s.stores
  in
  out "{\n";
  out "  \"bench\": \"certificate-cache\",\n";
  out "  \"game\": \"stack-verify-all-seeds2\",\n";
  out "  \"cold_ms\": %.3f,\n" c.cold_ms;
  out "  \"warm_ms\": %.3f,\n" c.warm_ms;
  out "  \"speedup\": %.2f,\n" c.speedup;
  out "  \"speedup_gate\": 2.0,\n";
  out "  \"reports_identical\": %b,\n" c.reports_identical;
  out "  \"cold\": %s,\n" (session_json c.cold_stats);
  out "  \"warm\": %s,\n" (session_json c.warm_stats);
  out "  \"entries\": %d,\n" c.entries;
  out "  \"bytes\": %d\n" c.bytes;
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* robust — budgets, cancellation and fault injection (DESIGN.md S27)   *)
(* ------------------------------------------------------------------ *)

(* Three acceptance gates for the robustness layer:
   - overhead: a checker run with an armed (but never-tripping) budget
     must stay within 5% of the budgets-disabled run — the token polling
     and private-allowance bookkeeping are the only difference;
   - fault determinism: injected worker crashes and clock skew must not
     change any verdict, on any jobs count (the pool's requeue path and
     the monotone skewed clock at work);
   - budget determinism: a pure step budget must truncate the scan at the
     same schedule prefix for every jobs count, with graceful degradation
     as the budget grows. *)

type robust_bench = {
  off_ms : float;  (** budgets disabled *)
  on_ms : float;  (** huge budget armed, never trips *)
  overhead_pct : float;
  fault_free_verdict : string;
  fault_verdicts : (int * string) list;  (** per jobs count *)
  faults_deterministic : bool;
  budget_rows : (int * string) list;  (** step budget -> verdict *)
  budget_scans_agree : bool;  (** each row identical on jobs {1,2,4,7} *)
}

let robust_jobs = [ 1; 2; 4; 7 ]

let robust_game () =
  let lock_client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  let m = Mcs_lock.c_module () in
  ( Mcs_lock.l0 (),
    List.init 3 (fun k -> k + 1, Prog.Module.link m (lock_client (k + 1))) )

let run_robust_bench () =
  let module V = Ccal_verify in
  let layer, threads = robust_game () in
  let tids = List.map fst threads in
  let depth = 5 in
  let check ctx =
    (* fresh suite per run: trace schedulers are single-use *)
    V.Races.check_ctx ~ctx ~max_steps:200_000
      ~scheds:(V.Explore.exhaustive_scheds ~tids ~depth)
      layer threads
  in
  let best f =
    let rec go n acc =
      if n = 0 then acc
      else
        let _, ms = V.Verify_clock.timed f in
        go (n - 1) (Float.min acc ms)
    in
    go 5 infinity
  in
  ignore (check V.Ctx.default) (* warm-up *);
  let off_ms = best (fun () -> ignore (check V.Ctx.default)) in
  let armed () =
    V.Ctx.with_budget (V.Budget.make ~ms:1e12 ~steps:max_int ()) V.Ctx.default
  in
  let on_ms = best (fun () -> ignore (check (armed ()))) in
  let plan =
    match V.Fault.parse "crash:0.25,skew:0.2,seed:7" with
    | Ok p -> p
    | Error _ -> V.Fault.none
  in
  let fault_free_verdict = verdict_name (check V.Ctx.default) in
  let fault_verdicts =
    List.map
      (fun jobs ->
        jobs, verdict_name (check (V.Ctx.with_faults plan (vctx ~jobs ()))))
      robust_jobs
  in
  let faults_deterministic =
    List.for_all (fun (_, v) -> v = fault_free_verdict) fault_verdicts
  in
  let budgeted_verdict ~jobs steps =
    check (V.Ctx.with_budget (V.Budget.make ~steps ()) (vctx ~jobs ()))
  in
  let budget_steps = [ 200; 2_000; 20_000 ] in
  let budget_rows =
    List.map
      (fun s -> s, verdict_name (budgeted_verdict ~jobs:1 s))
      budget_steps
  in
  let budget_scans_agree =
    List.for_all2
      (fun s (_, v1) ->
        List.for_all
          (fun jobs -> verdict_name (budgeted_verdict ~jobs s) = v1)
          (List.filter (fun j -> j <> 1) robust_jobs))
      budget_steps budget_rows
  in
  {
    off_ms;
    on_ms;
    overhead_pct = (on_ms -. off_ms) /. off_ms *. 100.;
    fault_free_verdict;
    fault_verdicts;
    faults_deterministic;
    budget_rows;
    budget_scans_agree;
  }

let print_robust_bench (r : robust_bench) =
  Format.printf
    "@.== robust: budgets and fault injection (mcs-lock-3t depth-5) ==@.@.";
  Format.printf
    "  budget machinery: %.2f ms disabled, %.2f ms armed -> %.1f%% overhead \
     (budget 5%%)@."
    r.off_ms r.on_ms r.overhead_pct;
  Format.printf "  fault-free verdict: %s@." r.fault_free_verdict;
  List.iter
    (fun (jobs, v) ->
      Format.printf "  crash:0.25,skew:0.2 %@ jobs=%d: %s@." jobs v)
    r.fault_verdicts;
  Format.printf "  fault verdicts %s the fault-free run@."
    (if r.faults_deterministic then "match" else "DIFFER FROM");
  List.iter
    (fun (steps, v) -> Format.printf "  step budget %-7d -> %s@." steps v)
    r.budget_rows;
  Format.printf "  budget truncation across jobs {%s}: %s@."
    (String.concat ", " (List.map string_of_int robust_jobs))
    (if r.budget_scans_agree then "identical" else "DIFFERS")

let write_robust_json path (r : robust_bench) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"robust-budgets-and-faults\",\n";
  out "  \"game\": \"mcs-lock-3t-depth5\",\n";
  out "  \"off_ms\": %.3f,\n" r.off_ms;
  out "  \"on_ms\": %.3f,\n" r.on_ms;
  out "  \"overhead_pct\": %.2f,\n" r.overhead_pct;
  out "  \"overhead_budget_pct\": 5.0,\n";
  out "  \"fault_plan\": \"crash:0.25,skew:0.2,seed:7\",\n";
  out "  \"fault_free_verdict\": %S,\n" r.fault_free_verdict;
  out "  \"fault_verdicts\": [\n";
  List.iteri
    (fun i (jobs, v) ->
      out "    {\"jobs\": %d, \"verdict\": %S}%s\n" jobs v
        (if i = List.length r.fault_verdicts - 1 then "" else ","))
    r.fault_verdicts;
  out "  ],\n";
  out "  \"faults_deterministic\": %b,\n" r.faults_deterministic;
  out "  \"budget_rows\": [\n";
  List.iteri
    (fun i (steps, v) ->
      out "    {\"budget_steps\": %d, \"verdict\": %S}%s\n" steps v
        (if i = List.length r.budget_rows - 1 then "" else ","))
    r.budget_rows;
  out "  ],\n";
  out "  \"budget_scans_agree\": %b\n" r.budget_scans_agree;
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

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

type kv_run = {
  kv_threads : int;
  kv_ms : float;
  kv_ms_range : float * float;  (* fastest and slowest of the repeats *)
  kv_ops_per_sec : float;
  kv_events : int;
}

type kv_mix = { read_pct : int; kv_runs : kv_run list }

let kv_shards = 4
let kv_ops_per_thread = 500
let kv_keyspace = 1024
let kv_thread_counts = [ 1; 2; 4; 8 ]
let kv_repeats = 5 (* each point is the median of this many timings *)

let run_kv_mix ~read_pct =
  let module K = Ccal_kv.Kv_stack in
  let one threads =
    let game () =
      K.ycsb_game ~shards:kv_shards ~threads ~read_pct ~ops:kv_ops_per_thread
        ~keyspace:kv_keyspace ()
    in
    let play sched =
      let layer, ts = game () in
      Game.run (Game.config ~max_steps:5_000_000 layer ts sched)
    in
    ignore (play Sched.round_robin) (* warm-up *);
    let samples =
      List.init kv_repeats (fun _ ->
          Gc.full_major ();
          Ccal_verify.Verify_clock.timed (fun () ->
              [ play Sched.round_robin; play (Sched.random ~seed:7) ]))
    in
    let outcomes = fst (List.hd samples) in
    let times = List.sort compare (List.map snd samples) in
    let ms = List.nth times (kv_repeats / 2) in
    List.iter
      (fun (o : Game.outcome) ->
        match o.Game.status with
        | Game.All_done -> ()
        | s ->
          Format.printf "  kv game did not finish: %a@." Game.pp_status s)
      outcomes;
    let total_ops = 2 * threads * kv_ops_per_thread in
    let events =
      List.fold_left (fun n (o : Game.outcome) -> n + Log.length o.Game.log) 0
        outcomes
    in
    {
      kv_threads = threads;
      kv_ms = ms;
      kv_ms_range = List.hd times, List.nth times (kv_repeats - 1);
      kv_ops_per_sec = float_of_int total_ops /. (ms /. 1000.);
      kv_events = events;
    }
  in
  { read_pct; kv_runs = List.map one kv_thread_counts }

let run_kv_bench () = List.map (fun p -> run_kv_mix ~read_pct:p) [ 95; 50 ]

(* Throughput at 1 thread over throughput at 8: 1.0 is a flat curve, and
   the gate asks for at most 2. *)
let kv_flat_ratio m =
  let ops n = (List.find (fun r -> r.kv_threads = n) m.kv_runs).kv_ops_per_sec in
  ops 1 /. ops 8

let print_kv_bench mixes =
  Format.printf
    "@.== kv: YCSB-style throughput over the certified kv stack (S28) ==@.@.";
  Format.printf
    "  shards %d, %d ops/thread, keyspace %d; round-robin + random schedules; \
     median of %d@.@."
    kv_shards kv_ops_per_thread kv_keyspace kv_repeats;
  Format.printf "  %-10s %-9s %-10s %-12s %-8s@." "mix" "threads" "ms"
    "ops/sec" "events";
  List.iter
    (fun m ->
      List.iter
        (fun r ->
          Format.printf "  %2d/%-7d %-9d %-10.1f %-12.0f %-8d@." m.read_pct
            (100 - m.read_pct) r.kv_threads r.kv_ms r.kv_ops_per_sec
            r.kv_events)
        m.kv_runs)
    mixes;
  List.iter
    (fun m ->
      let ratio = kv_flat_ratio m in
      Format.printf "@.  %d/%d: 1 -> 8 threads falls %.2fx (gate: within 2x of flat: %s)"
        m.read_pct (100 - m.read_pct) ratio
        (if ratio <= 2. then "met" else "not met"))
    mixes;
  Format.printf "@."

let write_kv_json path mixes =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"kv-ycsb\",\n";
  out "  \"commit\": \"%s\",\n" (source_commit ());
  out "  \"nproc\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"shards\": %d,\n" kv_shards;
  out "  \"ops_per_thread\": %d,\n" kv_ops_per_thread;
  out "  \"keyspace\": %d,\n" kv_keyspace;
  out "  \"repeats\": %d,\n" kv_repeats;
  out "  \"mixes\": [\n";
  List.iteri
    (fun mi m ->
      out "    {\n";
      out "      \"read_pct\": %d,\n" m.read_pct;
      out "      \"flat_ratio_1_to_8\": %.2f,\n" (kv_flat_ratio m);
      out "      \"gate_within_2x_met\": %b,\n" (kv_flat_ratio m <= 2.);
      out "      \"runs\": [\n";
      List.iteri
        (fun ri r ->
          out
            "        {\"threads\": %d, \"ms\": %.3f, \"ms_min\": %.3f, \"ms_max\": %.3f, \
             \"ops_per_sec\": %.1f, \"events\": %d}%s\n"
            r.kv_threads r.kv_ms (fst r.kv_ms_range) (snd r.kv_ms_range)
            r.kv_ops_per_sec r.kv_events
            (if ri = List.length m.kv_runs - 1 then "" else ","))
        m.kv_runs;
      out "      ]\n";
      out "    }%s\n" (if mi = List.length mixes - 1 then "" else ","))
    mixes;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* tso — dual-mode certification and litmus conformance (S29)           *)
(* ------------------------------------------------------------------ *)

(* Two tables for EXPERIMENTS.md:
   - cert rows: the same certificate built under SC and under x86-TSO
     (store buffers, drain environments, flusher moves) — the cost of
     promoting the memory model from an assumption to a checked input;
   - litmus rows: the conformance suite, timing the reachable-outcome
     enumeration per mode and pinning observed = expected. *)

type tso_cert_row = {
  tso_obj : string;
  sc_ms : float;
  sc_checks : int;
  tso_ms : float;
  tso_checks : int;
}

type tso_litmus_row = {
  lit_name : string;
  lit_sc : int;  (** distinct outcomes reached under SC *)
  lit_tso : int;  (** distinct outcomes reached under TSO *)
  lit_ok : bool;  (** observed = expected, both modes *)
  lit_ms : float;
}

type tso_bench = {
  cert_rows : tso_cert_row list;
  litmus_rows : tso_litmus_row list;
}

let run_tso_bench () =
  let module V = Ccal_verify in
  let cert name certify =
    let sc, sc_ms = timed (fun () -> certify Memory.Sc) in
    let tso, tso_ms = timed (fun () -> certify Memory.Tso) in
    let checks = function
      | Ok c -> Calculus.count_checks c
      | Error _ -> -1
    in
    {
      tso_obj = name;
      sc_ms;
      sc_checks = checks sc;
      tso_ms;
      tso_checks = checks tso;
    }
  in
  let cert_rows =
    [
      cert "Ticket lock" (fun memory ->
          Ticket_lock.certify ~memory ~focus:[ 1; 2 ] ());
      cert "MCS lock" (fun memory ->
          Mcs_lock.certify ~memory ~focus:[ 1; 2 ] ());
      cert "Queue stack" (fun memory ->
          Queue_shared.full_stack_certify ~memory ());
    ]
  in
  let ctx = vctx () in
  let litmus_rows =
    List.map
      (fun (t : Ccal_machine.Litmus.test) ->
        let pair, ms =
          timed (fun () ->
              ( V.Litmus.run_test ~ctx:(V.Ctx.with_memory Memory.Sc ctx) t,
                V.Litmus.run_test ~ctx:(V.Ctx.with_memory Memory.Tso ctx) t ))
        in
        let sc_r, tso_r = pair in
        {
          lit_name = t.Ccal_machine.Litmus.name;
          lit_sc = List.length sc_r.V.Litmus.observed;
          lit_tso = List.length tso_r.V.Litmus.observed;
          lit_ok = V.Litmus.ok sc_r && V.Litmus.ok tso_r;
          lit_ms = ms;
        })
      Ccal_machine.Litmus.tests
  in
  { cert_rows; litmus_rows }

let print_tso_bench (b : tso_bench) =
  Format.printf
    "@.== tso: dual-mode certification cost (SC vs x86-TSO, S29) ==@.@.";
  Format.printf "  %-14s %10s %9s %10s %9s %7s@." "Object" "sc checks" "sc ms"
    "tso checks" "tso ms" "ratio";
  List.iter
    (fun r ->
      Format.printf "  %-14s %10d %9.1f %10d %9.1f %7.2f@." r.tso_obj
        r.sc_checks r.sc_ms r.tso_checks r.tso_ms
        (r.tso_ms /. Float.max 0.001 r.sc_ms))
    b.cert_rows;
  Format.printf
    "@.== tso: litmus conformance (distinct reachable outcomes per mode) \
     ==@.@.";
  Format.printf "  %-10s %6s %6s %6s %9s@." "test" "sc" "tso" "ok" "ms";
  List.iter
    (fun r ->
      Format.printf "  %-10s %6d %6d %6b %9.1f@." r.lit_name r.lit_sc r.lit_tso
        r.lit_ok r.lit_ms)
    b.litmus_rows;
  Format.printf
    "@.  shape: SB and R gain exactly one TSO-only outcome; the fenced \
     variants@.  re-converge; everything else (incl. IRIW) coincides with \
     SC@."

let write_tso_json path (b : tso_bench) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"tso-dual-mode\",\n";
  out "  \"certificates\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"object\": %S, \"sc_checks\": %d, \"sc_ms\": %.3f, \
         \"tso_checks\": %d, \"tso_ms\": %.3f}%s\n"
        r.tso_obj r.sc_checks r.sc_ms r.tso_checks r.tso_ms
        (if i = List.length b.cert_rows - 1 then "" else ","))
    b.cert_rows;
  out "  ],\n";
  out "  \"litmus\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"test\": %S, \"sc_outcomes\": %d, \"tso_outcomes\": %d, \
         \"conforms\": %b, \"ms\": %.3f}%s\n"
        r.lit_name r.lit_sc r.lit_tso r.lit_ok r.lit_ms
        (if i = List.length b.litmus_rows - 1 then "" else ","))
    b.litmus_rows;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

(* ------------------------------------------------------------------ *)
(* crash — crash-refinement certification and recovery cost (S30)       *)
(* ------------------------------------------------------------------ *)

(* Two tables for EXPERIMENTS.md:
   - edge rows: the crash-refinement certificate per edge (schedules x
     crash points x masks = recoveries), with the jobs {1,4} determinism
     gate applied to the canonical report;
   - recover rows: the recovery-scan micro-cost as the surviving log
     grows — recovery is O(records), the crash-safety analogue of the
     Sec. 7 replay-cost story. *)

type crash_edge_row = {
  ce_name : string;
  ce_schedules : int;
  ce_points : int;
  ce_recoveries : int;
  ce_ms : float;
}

type crash_recover_row = { cr_records : int; cr_ns : float }

type crash_bench = {
  crash_edges : crash_edge_row list;
  crash_identical : bool;  (** canonical report, jobs 1 vs 4 *)
  crash_recover : crash_recover_row list;
}

let run_crash_bench () =
  let module V = Ccal_verify in
  let module D = Ccal_disk in
  let edges () = [ D.Wal.crash_edge (); D.Durable_kv.crash_edge () ] in
  let report jobs =
    match V.Budget.value (V.Crash.check_ctx ~ctx:(vctx ~jobs ()) (edges ())) with
    | Ok r -> r
    | Error f -> failwith (Format.asprintf "%a" V.Crash.pp_failure f)
  in
  ignore (report 1) (* warm-up *);
  let r1 = report 1 in
  let r4 = report 4 in
  let canonical r = Format.asprintf "%a" V.Crash.pp_report_canonical r in
  let crash_edges =
    List.map
      (fun (e : V.Crash.edge_report) ->
        {
          ce_name = e.V.Crash.edge_name;
          ce_schedules = e.V.Crash.schedules;
          ce_points = e.V.Crash.crash_points;
          ce_recoveries = e.V.Crash.recoveries;
          ce_ms = e.V.Crash.millis;
        })
      r1.V.Crash.edges
  in
  let recover_at n =
    let st =
      D.Disk.of_durable
        (List.init n (fun i ->
             let o = { D.Wal.lsn = i + 1; key = i; value = 10 * i } in
             (i + 1, D.Wal.record o)))
    in
    let iters = 1_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (D.Wal.recover st)
    done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
    { cr_records = n; cr_ns = ns }
  in
  {
    crash_edges;
    crash_identical = canonical r1 = canonical r4;
    crash_recover = List.map recover_at [ 10; 50; 100; 500; 1000 ];
  }

let print_crash_bench (b : crash_bench) =
  Format.printf
    "@.== crash: crash-refinement certification (DESIGN.md S30) ==@.@.";
  Format.printf "  %-14s %10s %13s %12s %9s@." "edge" "schedules"
    "crash points" "recoveries" "ms";
  List.iter
    (fun r ->
      Format.printf "  %-14s %10d %13d %12d %9.1f@." r.ce_name r.ce_schedules
        r.ce_points r.ce_recoveries r.ce_ms)
    b.crash_edges;
  Format.printf "  canonical reports jobs 1 vs 4: %s@."
    (if b.crash_identical then "identical" else "DIFFER");
  Format.printf "@.== crash: recovery-scan cost vs. surviving log ==@.@.";
  Format.printf "  %-10s %-16s@." "records" "ns per recover";
  List.iter
    (fun r -> Format.printf "  %-10d %-16.0f@." r.cr_records r.cr_ns)
    b.crash_recover;
  Format.printf
    "  shape: linear in the surviving records — recovery rescans the \
     platter prefix@."

let write_crash_json path (b : crash_bench) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"bench\": \"crash-refinement\",\n";
  out "  \"reports_identical_jobs_1_4\": %b,\n" b.crash_identical;
  out "  \"edges\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"edge\": %S, \"schedules\": %d, \"crash_points\": %d, \
         \"recoveries\": %d, \"ms\": %.3f}%s\n"
        r.ce_name r.ce_schedules r.ce_points r.ce_recoveries r.ce_ms
        (if i = List.length b.crash_edges - 1 then "" else ","))
    b.crash_edges;
  out "  ],\n";
  out "  \"recover\": [\n";
  List.iteri
    (fun i r ->
      out "    {\"records\": %d, \"ns_per_recover\": %.1f}%s\n" r.cr_records
        r.cr_ns
        (if i = List.length b.crash_recover - 1 then "" else ","))
    b.crash_recover;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Format.printf "@.  wrote %s@." path

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
             ignore (Ticket_lock.certify ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/mcs-certify"
        (Staged.stage (fun () -> ignore (Mcs_lock.certify ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/local-queue-certify"
        (Staged.stage (fun () -> ignore (Queue_local.certify ())));
      Test.make ~name:"tab2/shared-queue-certify"
        (Staged.stage (fun () -> ignore (Queue_shared.certify ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/qlock-certify"
        (Staged.stage (fun () -> ignore (Qlock.certify ~focus:[ 1 ] ())));
      Test.make ~name:"tab2/ipc-certify"
        (Staged.stage (fun () -> ignore (Ipc.certify ~focus:[ 1 ] ())));
      (* tab1: the toolkit self-check *)
      Test.make ~name:"tab1/toolkit-selfcheck"
        (Staged.stage (fun () -> ignore (stack_verify ~seeds:1 ())));
      (* fig1: the whole Fig. 1 stack *)
      Test.make ~name:"fig1_stack/verify-all"
        (Staged.stage (fun () -> ignore (stack_verify ~seeds:2 ())));
      (* fig5: the ticket-lock pipeline incl. soundness *)
      Test.make ~name:"fig5_pipeline/certify+soundness"
        (Staged.stage (fun () ->
             match Ticket_lock.certify ~focus:[ 1; 2 ] () with
             | Error _ -> ()
             | Ok cert ->
               let client i =
                 Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
                     Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
               in
               ignore
                 (Refinement.check_cert cert ~client
                    ~scheds:(Sched.default_suite ~seeds:2))));
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

(* `--robust-only` runs just the S27 robustness section and writes
   BENCH_robust.json — the CI robustness leg uses it to avoid the full
   Bechamel sweep. *)
let robust_only = Array.exists (String.equal "--robust-only") Sys.argv

(* `--parallel-only` runs just the domain-pool scaling section and writes
   BENCH_parallel.json — the CI perf-gate leg uses it to regenerate the
   scaling curve without the full sweep. *)
let parallel_only = Array.exists (String.equal "--parallel-only") Sys.argv

(* `--kv-only` runs just the S28 kv serving-stack section and writes
   BENCH_kv.json — the CI kv leg uses it. *)
let kv_only = Array.exists (String.equal "--kv-only") Sys.argv

(* `--tso-only` runs just the S29 dual-mode (SC vs x86-TSO) section and
   writes BENCH_tso.json — the CI memory-model leg uses it. *)
let tso_only = Array.exists (String.equal "--tso-only") Sys.argv

(* `--crash-only` runs just the S30 crash-refinement section and writes
   BENCH_crash.json — the CI crash leg uses it. *)
let crash_only = Array.exists (String.equal "--crash-only") Sys.argv

let () =
  if crash_only then begin
    Format.printf "=== CCAL crash-refinement benchmark (DESIGN.md S30) ===@.";
    let crash = run_crash_bench () in
    print_crash_bench crash;
    write_crash_json "BENCH_crash.json" crash;
    Format.printf "@.done.@.";
    exit 0
  end;
  if tso_only then begin
    Format.printf "=== CCAL memory-model benchmark (DESIGN.md S29) ===@.";
    let tso = run_tso_bench () in
    print_tso_bench tso;
    write_tso_json "BENCH_tso.json" tso;
    Format.printf "@.done.@.";
    exit 0
  end;
  if kv_only then begin
    Format.printf "=== CCAL kv serving-stack benchmark (DESIGN.md S28) ===@.";
    let mixes = run_kv_bench () in
    print_kv_bench mixes;
    write_kv_json "BENCH_kv.json" mixes;
    Format.printf "@.done.@.";
    exit 0
  end;
  if parallel_only then begin
    Format.printf "=== CCAL parallel scaling benchmark (DESIGN.md S24) ===@.";
    let scaling = run_parallel_scaling () in
    let engines = run_engine_bench () in
    write_parallel_json "BENCH_parallel.json" scaling engines;
    Format.printf "@.done.@.";
    exit 0
  end;
  if robust_only then begin
    Format.printf "=== CCAL robustness benchmark (DESIGN.md S27) ===@.";
    let robust = run_robust_bench () in
    print_robust_bench robust;
    write_robust_json "BENCH_robust.json" robust;
    Format.printf "@.done.@.";
    exit 0
  end;
  Format.printf "=== CCAL reproduction benchmarks (PLDI'18, Sec. 6) ===@.";
  print_tab1 ();
  let rows = tab2_rows () in
  print_tab2 rows;
  let perf = print_perf_lock () in
  print_contention_sweep ();
  print_replay_ablation ();
  print_exploration_ablation ();
  print_dpor_ablation ();
  let scaling = run_parallel_scaling () in
  let engines = run_engine_bench () in
  write_parallel_json "BENCH_parallel.json" scaling engines;
  let telemetry = run_telemetry_bench () in
  print_telemetry_bench telemetry;
  write_telemetry_json "BENCH_telemetry.json" telemetry;
  let cache = run_cache_bench () in
  print_cache_bench cache;
  write_cache_json "BENCH_cache.json" cache;
  let robust = run_robust_bench () in
  print_robust_bench robust;
  write_robust_json "BENCH_robust.json" robust;
  let kv = run_kv_bench () in
  print_kv_bench kv;
  write_kv_json "BENCH_kv.json" kv;
  let tso = run_tso_bench () in
  print_tso_bench tso;
  write_tso_json "BENCH_tso.json" tso;
  let crash = run_crash_bench () in
  print_crash_bench crash;
  write_crash_json "BENCH_crash.json" crash;
  let bench_rows = run_benchmarks (make_tests perf) in
  (* headline ratio, from wall-clock *)
  (match
     ( List.assoc_opt "ccal/perf_lock/ghost-primitives" bench_rows,
       List.assoc_opt "ccal/perf_lock/erased" bench_rows )
   with
  | Some g, Some e when e > 0. ->
    Format.printf
      "@.perf_lock headline: ghost/erased wall-clock ratio = %.2fx (paper: 87/35 = 2.49x)@."
      (g /. e)
  | _ -> ());
  Format.printf "@.done.@."
