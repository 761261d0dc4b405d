(* A work-stealing domain-pool executor for the verifiers.

   Every checker in this library plays a game under each schedule of an
   independent suite — embarrassingly parallel work that used to run on a
   single OCaml domain.  {!games} plays such a suite in chunks across a
   pool of domains (stdlib [Domain]/[Mutex]/[Condition], no new
   dependencies) and merges the judged plays *deterministically*: it
   returns exactly what a sequential early-exit fold would, bit for bit,
   regardless of completion order — the reported failure is always the
   one from the lowest-indexed schedule, and chunks wholly above a pinned
   cut are cancelled instead of evaluated.  The DPOR walk itself is one
   sequential DFS and never reaches the pool.

   Design notes:

   - Pools are persistent and cached by size: the first [~jobs:n] request
     spawns [n - 1] worker domains which then sleep on a condition
     variable between batches; the submitting domain participates in every
     batch as the [n]-th worker.  An [at_exit] hook shuts every pool down
     so the runtime never waits on a sleeping domain.
   - Work distribution is a shared atomic claim counter: workers steal the
     next fixed-size chunk of indices when they run dry, so an expensive
     schedule in the middle of the list cannot serialize the scan.
   - Early cancellation is an atomic low-water mark of the least index
     whose result satisfied [cut] (or raised).  Workers skip indices above
     the mark; the merge walks the cells in index order and evaluates
     inline any index a worker skipped, which is what makes it equal to
     the sequential scan.
   - Every evaluation, on a worker or inline, goes through one attempt
     chain for injected crashes, so each jobs count lands on the same one.
   - [~jobs:1] (and empty/singleton suites) bypass the pool entirely:
     no domains, no atomics — the sequential code path is the oracle the
     parallel one is tested against.

   Determinism caveat (DESIGN.md S24): parallelism changes wall-clock
   only, never a certificate judgment.  Anything nondeterministic would be
   a bug, and test/test_parallel.ml pins the equality. *)

open Ccal_core

let default_jobs () =
  match Sys.getenv_opt "CCAL_JOBS" with
  | None | Some "" -> Ok (Domain.recommended_domain_count ())
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (Printf.sprintf "CCAL_JOBS=%s: expected a positive integer" s))

(* ------------------------------------------------------------------ *)
(* cumulative pool statistics (all pools, all batches)                 *)
(* ------------------------------------------------------------------ *)

type stats = { batches : int; jobs_run : int; busy_ns : int }

let stat_batches = Atomic.make 0
let stat_jobs = Atomic.make 0
let stat_busy_ns = Atomic.make 0

let stats () =
  {
    batches = Atomic.get stat_batches;
    jobs_run = Atomic.get stat_jobs;
    busy_ns = Atomic.get stat_busy_ns;
  }

(* ------------------------------------------------------------------ *)
(* the pool                                                            *)
(* ------------------------------------------------------------------ *)

type batch = {
  run : int -> unit;  (** evaluate job [i] and store its cell; never raises *)
  next : int Atomic.t;  (** next unclaimed index *)
  chunk : int;  (** indices per claim *)
  limit : int;
  cut : int Atomic.t;  (** least index that ended the scan; [max_int] if none *)
  token : Budget.token;
      (** polled before every claim: once it trips, workers stop claiming
          and the merge recomputes the deterministic truncation *)
}

type pool = {
  size : int;  (** total workers, including the submitting domain *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : batch option;
  mutable epoch : int;  (** bumped once per submitted batch *)
  mutable active : int;  (** spawned workers currently inside the batch *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let atomic_min a i =
  let rec go () =
    let cur = Atomic.get a in
    if i < cur && not (Atomic.compare_and_set a cur i) then go ()
  in
  go ()

(* Evaluate the claimed index range [start, stop), up to the cut mark. *)
let eval_chunk (b : batch) start stop =
  let t0 = Verify_clock.now_ns () in
  let i = ref start in
  (* A span, not a counter: which chunks each worker claims is
     timing-dependent, so it may only show up in the (inherently
     run-specific) trace, never in the jobs-deterministic totals. *)
  Probe.span "pool.chunk" (fun () ->
      (* indices above the cut can no longer influence the merged
         result: skip the rest of the chunk *)
      while !i < stop && !i <= Atomic.get b.cut do
        b.run !i;
        incr i
      done);
  ignore (Atomic.fetch_and_add stat_jobs (!i - start));
  ignore
    (Atomic.fetch_and_add stat_busy_ns
       (Int64.to_int (Int64.sub (Verify_clock.now_ns ()) t0)))

(* Claim and evaluate chunks until the counter runs past the limit or the
   cut mark, or the token trips.  Called by spawned workers and by the
   submitting domain. *)
let run_chunks (b : batch) =
  let rec claim () =
    if not (Budget.poll b.token) then begin
      let start = Atomic.fetch_and_add b.next b.chunk in
      if start < b.limit && start <= Atomic.get b.cut then begin
        eval_chunk b start (min b.limit (start + b.chunk));
        claim ()
      end
    end
  in
  claim ()

let rec worker_loop p seen =
  Mutex.lock p.mutex;
  while (not p.stopping) && p.epoch = seen do
    Condition.wait p.cond p.mutex
  done;
  if p.stopping then Mutex.unlock p.mutex
  else begin
    let seen = p.epoch in
    match p.job with
    | None ->
      (* the batch finished before this worker woke up *)
      Mutex.unlock p.mutex;
      worker_loop p seen
    | Some b ->
      p.active <- p.active + 1;
      Mutex.unlock p.mutex;
      run_chunks b;
      Mutex.lock p.mutex;
      p.active <- p.active - 1;
      if p.active = 0 then Condition.broadcast p.cond;
      Mutex.unlock p.mutex;
      worker_loop p seen
  end

let create_pool size =
  let p =
    {
      size;
      mutex = Mutex.create ();
      cond = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      stopping = false;
      domains = [];
    }
  in
  p.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p 0));
  p

let shutdown_pool p =
  Mutex.lock p.mutex;
  p.stopping <- true;
  Condition.broadcast p.cond;
  Mutex.unlock p.mutex;
  List.iter Domain.join p.domains;
  p.domains <- []

(* Submit one batch and help execute it; returns when every claimed chunk
   has been fully evaluated. *)
let run_batch p b =
  ignore (Atomic.fetch_and_add stat_batches 1);
  Mutex.lock p.mutex;
  p.job <- Some b;
  p.epoch <- p.epoch + 1;
  Condition.broadcast p.cond;
  Mutex.unlock p.mutex;
  run_chunks b;
  Mutex.lock p.mutex;
  while p.active > 0 do
    Condition.wait p.cond p.mutex
  done;
  p.job <- None;
  Mutex.unlock p.mutex

(* ------------------------------------------------------------------ *)
(* pool registry: one persistent pool per requested size               *)
(* ------------------------------------------------------------------ *)

let registry : (int, pool * bool ref) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()
let cleanup_registered = ref false

let shutdown_all () =
  Mutex.lock registry_mutex;
  let pools = Hashtbl.fold (fun _ (p, _) acc -> p :: acc) registry [] in
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex;
  List.iter shutdown_pool pools

(* Borrow the pool of the given size, creating it on first use.  Returns
   [None] when that pool is already running a batch (nested or concurrent
   use) — the caller then falls back to the sequential path, which is
   always correct. *)
let acquire size =
  Mutex.lock registry_mutex;
  if not !cleanup_registered then (
    cleanup_registered := true;
    at_exit shutdown_all);
  let r =
    match Hashtbl.find_opt registry size with
    | Some (p, busy) ->
      if !busy then None
      else (
        busy := true;
        Some (p, busy))
    | None ->
      let p = create_pool size in
      let busy = ref true in
      Hashtbl.add registry size (p, busy);
      Some (p, busy)
  in
  Mutex.unlock registry_mutex;
  r

let release busy =
  Mutex.lock registry_mutex;
  busy := false;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* the game scan                                                       *)
(* ------------------------------------------------------------------ *)

type 'b cell =
  | Empty
  | Value of int * 'b  (** the job's cost and verdict *)
  | Stopped  (** the game was cancelled by its stop closure *)
  | Raised of exn * Printexc.raw_backtrace

(* Every checker's suite, played and judged (DESIGN.md S37) against one
   game table, under the context's memory mode and the stop closure;
   a [Cancelled] game is a stopped job that no judge sees, and a judged
   job carries its cost (game steps unless the checker says otherwise),
   so the scan keeps no game outcome the judge did not keep.

   The deterministic truncation rules, shared verbatim by the sequential
   path and the pool's merge pass (DESIGN.md S27).  Walking indices in
   order with the cumulative cost [cum] of the included prefix:

   - stop (exhausted) before index [i] once [cum >= allowance], where
     [allowance] is the token's remaining step budget captured at scan
     entry — a pure function of the inputs, since every earlier scan
     [settle]d the token;
   - stop (exhausted) at [i] when its game was cancelled — with a step
     budget this means the game alone overran the allowance, which is
     deterministic; a deadline or cancellation can also interrupt, and
     those are wall-clock events allowed to move the prefix;
   - stop (complete) at [i] including the verdict when [cut] fires;
   - otherwise include the verdict, add its cost, continue.

   The shared token is charged live by workers purely as an early-stop
   heuristic (polled before every claim); [Budget.settle] overwrites it
   with the deterministic total afterwards. *)
let games ~ctx ?max_steps ?log_switches ?(cut = fun _ -> false)
    ?(cost = fun o _ -> o.Game.steps) layer threads judge scheds =
  let token = ctx.Ctx.token in
  let base = Budget.steps_used token in
  let allowance = Budget.steps_remaining token in
  let table = Game.table ~memory:ctx.Ctx.memory layer threads in
  let arr = Array.of_list scheds in
  let n = Array.length arr in
  let play i =
    let sched = arr.(i) in
    let o =
      Game.play ?max_steps ?log_switches
        ?stop:(Budget.game_stop token ~allowance) table sched
    in
    match o.Game.status with
    | Game.Cancelled -> None
    | _ ->
      let v = judge sched o in
      Some (cost o v, v)
  in
  (* The one attempt chain (DESIGN.md S27): an injected crash is decided
     per (index, attempt) before the game runs, so the attempt that
     finally plays is the same on a worker, in the merge and on the
     sequential path. *)
  let rec eval i attempt =
    if Fault.crash ~index:i ~attempt then eval i (attempt + 1) else play i
  in
  let finish ~ran_out acc cum =
    Budget.settle token (base + cum);
    let prefix = List.rev acc in
    if ran_out then begin
      Budget.note_ran_out token;
      Budget.Exhausted { spent = Budget.spent token; partial = prefix }
    end
    else Budget.Complete prefix
  in
  let sequential () =
    let rec go i cum acc =
      if i >= n then finish ~ran_out:false acc cum
      else if cum >= allowance then finish ~ran_out:true acc cum
      else if Budget.poll_wall token then finish ~ran_out:true acc cum
      else begin
        match eval i 0 with
        | None -> finish ~ran_out:true acc cum
        | Some (c, v) ->
          Budget.charge token c;
          if cut v then finish ~ran_out:false (v :: acc) (cum + c)
          else go (i + 1) (cum + c) (v :: acc)
      end
    in
    go 0 0 []
  in
  if ctx.Ctx.jobs <= 1 || n <= 1 then sequential ()
  else
    match acquire (min ctx.Ctx.jobs n) with
    | None -> sequential ()
    | Some (pool, busy) ->
      let cells = Array.make n Empty in
      (* Telemetry counters bumped inside a job body go to a per-job
         capture delta, not the globals: workers may evaluate indices past
         the final cut, which a sequential scan never runs.  The merge
         commits the deltas of exactly the surviving prefix, in index
         order, keeping every counter total bit-identical to [~jobs:1]. *)
      let deltas = Array.make n None in
      let cut_mark = Atomic.make max_int in
      let body i () =
        match eval i 0 with
        | Some (c, v) ->
          cells.(i) <- Value (c, v);
          Budget.charge token c;
          if cut v then atomic_min cut_mark i
        | None ->
          cells.(i) <- Stopped;
          atomic_min cut_mark i
        | exception e ->
          cells.(i) <- Raised (e, Printexc.get_raw_backtrace ());
          atomic_min cut_mark i
      in
      let run i = deltas.(i) <- Probe.captured (body i) in
      let b =
        {
          run;
          next = Atomic.make 0;
          chunk = max 1 (min 32 (n / (pool.size * 4)));
          limit = n;
          cut = cut_mark;
          token;
        }
      in
      Fun.protect
        ~finally:(fun () -> release busy)
        (fun () -> Probe.span "pool.batch" (fun () -> run_batch pool b));
      (* Deterministic merge: same walk as [sequential], over the cells.
         Holes — indices skipped because a worker gave up on the racy
         heuristic — are filled by evaluating inline, capture and all, so
         the committed counter stream is identical to the oracle's. *)
      let rec walk i cum acc =
        if i >= n then finish ~ran_out:false acc cum
        else if cum >= allowance then finish ~ran_out:true acc cum
        else begin
          (match cells.(i) with
          | Empty ->
            (* don't start new work past a tripped deadline; an
               already-evaluated cell still gets included below *)
            if not (Budget.poll_wall token) then run i
          | Value _ | Stopped | Raised _ -> ());
          match cells.(i) with
          | Empty -> finish ~ran_out:true acc cum
          | Raised (e, bt) ->
            Probe.commit deltas.(i);
            Printexc.raise_with_backtrace e bt
          | Stopped ->
            Probe.commit deltas.(i);
            finish ~ran_out:true acc cum
          | Value (c, v) ->
            Probe.commit deltas.(i);
            if cut v then finish ~ran_out:false (v :: acc) (cum + c)
            else walk (i + 1) (cum + c) (v :: acc)
        end
      in
      walk 0 0 []
