(* A work-stealing domain-pool executor for the verifiers.

   Every checker in this library folds over an independent list of
   schedules — embarrassingly parallel work that used to run on a single
   OCaml domain.  This module evaluates such a job list in chunks across a
   pool of domains (stdlib [Domain]/[Mutex]/[Condition], no new
   dependencies) and merges the results *deterministically*: the one scan,
   {!budgeted_scan}, returns exactly what a sequential early-exit fold
   would, bit for bit, regardless of completion order — the reported
   failure is always the one from the lowest-indexed job, and chunks
   wholly above a pinned cut are cancelled instead of evaluated.
   {!games} plays every checker's suite on it; the DPOR walk itself is
   one sequential DFS and never reaches the pool.

   Design notes:

   - Pools are persistent and cached by size: the first [~jobs:n] request
     spawns [n - 1] worker domains which then sleep on a condition
     variable between batches; the submitting domain participates in every
     batch as the [n]-th worker.  An [at_exit] hook shuts every pool down
     so the runtime never waits on a sleeping domain.
   - Work distribution is a shared atomic claim counter: workers steal the
     next chunk of indices when they run dry, so an expensive schedule in
     the middle of the list cannot serialize the scan.
   - Early cancellation is an atomic low-water mark of the least index
     whose result satisfied [cut] (or raised).  Workers skip indices above
     the mark; the merge walks the cells in index order and evaluates
     inline any index a worker skipped, which is what makes it equal to
     the sequential scan.
   - [~jobs:1] (and empty/singleton job lists) bypass the pool entirely:
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
  run : int -> attempt:int -> [ `Done | `Crashed ];
      (** evaluate job [i] and store its cell; never raises.  [`Crashed]
          means an injected fault ate the attempt before evaluation — the
          claim loop requeues the index with the next attempt number. *)
  next : int Atomic.t;  (** next unclaimed index *)
  mutable chunk : int;
      (** indices per claim; the submitting domain recalibrates it after
          the warm-up prefix, before workers are woken *)
  limit : int;
  cut : int Atomic.t;  (** least index that ended the scan; [max_int] if none *)
  retry : (int * int) list Atomic.t;
      (** requeued (index, attempt) pairs from crashed workers; drained
          before fresh chunks are claimed *)
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

(* The retry queue is a Treiber-style atomic list; contention is rare
   (only crashed workers push). *)
let pop_retry (b : batch) =
  let rec go () =
    match Atomic.get b.retry with
    | [] -> None
    | (x :: rest) as cur ->
      if Atomic.compare_and_set b.retry cur rest then Some x else go ()
  in
  go ()

let push_retry (b : batch) items =
  if items <> [] then begin
    let rec go () =
      let cur = Atomic.get b.retry in
      if not (Atomic.compare_and_set b.retry cur (items @ cur)) then go ()
    in
    go ()
  end

(* Claim and evaluate chunks until the counter runs past the limit or the
   cut mark.  Called by spawned workers and by the submitting domain.

   Crash-injection contract (DESIGN.md S27): a [`Crashed] attempt at
   index [i] requeues [(i, attempt + 1)] — and, when it happens mid-chunk,
   the abandoned remainder of the chunk — onto [b.retry]; the crashing
   worker then goes straight back to claiming, so the queue is always
   drained before the batch completes.  Attempts per index are strictly
   sequential (0, 1, ...), matching the inline attempt chain of the
   sequential path, so the evaluation that finally lands is the same one
   on every jobs count. *)
(* Evaluate the claimed index range [start, stop); returns how many
   indices were evaluated.  On an injected crash the failed index and the
   untouched remainder of the range are requeued and the range is
   abandoned. *)
let eval_chunk (b : batch) start stop =
  let t0 = Verify_clock.now_ns () in
  let i = ref start in
  (* A span, not a counter: which chunks each worker claims is
     timing-dependent, so it may only show up in the (inherently
     run-specific) trace, never in the jobs-deterministic totals. *)
  Probe.span "pool.chunk" (fun () ->
      let live = ref true in
      while !live && !i < stop do
        (* indices above the cut can no longer influence the
           merged result: skip the rest of the chunk *)
        if !i <= Atomic.get b.cut then
          match b.run !i ~attempt:0 with
          | `Done -> incr i
          | `Crashed ->
            (* the crashed worker abandons its chunk; the failed
               index and the untouched remainder are requeued *)
            let rest = ref [ (!i, 1) ] in
            for j = stop - 1 downto !i + 1 do
              rest := (j, 0) :: !rest
            done;
            push_retry b !rest;
            live := false
        else live := false
      done);
  ignore (Atomic.fetch_and_add stat_jobs (!i - start));
  ignore
    (Atomic.fetch_and_add stat_busy_ns
       (Int64.to_int (Int64.sub (Verify_clock.now_ns ()) t0)));
  !i - start

let run_chunks (b : batch) =
  let rec claim () =
    if Budget.poll b.token then ()
    else
      match pop_retry b with
      | Some (i, attempt) ->
        if i <= Atomic.get b.cut then begin
          match b.run i ~attempt with
          | `Done -> ignore (Atomic.fetch_and_add stat_jobs 1)
          | `Crashed -> push_retry b [ (i, attempt + 1) ]
        end;
        claim ()
      | None ->
        (* capture the chunk size once so the reserved range matches the
           counter increment even if a recalibration lands in between *)
        let c = b.chunk in
        let start = Atomic.fetch_and_add b.next c in
        if start < b.limit && start <= Atomic.get b.cut then begin
          ignore (eval_chunk b start (min b.limit (start + c)));
          claim ()
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

(* Cost-calibrated claim sizing (DESIGN.md S24).  Per-schedule bodies
   range from ~1µs (a shallow lock game) to milliseconds (a C-interpreted
   layer); any fixed chunk constant is wrong for most of that range —
   too small and claim traffic plus chunk bookkeeping dominate, too large
   and the tail imbalances.  Before waking the workers, the submitting
   domain evaluates a short warm-up prefix through the normal claim
   protocol (so injected crashes still requeue), measures the per-item
   cost, and sizes every subsequent claim to about [target_claim_ns] of
   work, capped so at least [4 * size] claims remain for balance. *)
let target_claim_ns = 1_000_000
let warmup_items = 8

let calibrate_chunk pool (b : batch) =
  let warm = min warmup_items b.limit in
  if warm > 0 then begin
    let t0 = Verify_clock.now_ns () in
    let start = Atomic.fetch_and_add b.next warm in
    let got = eval_chunk b start (min b.limit (start + warm)) in
    let dt = Int64.to_int (Int64.sub (Verify_clock.now_ns ()) t0) in
    if got > 0 then begin
      let per_item = max 1 (dt / got) in
      let balance_cap = max 1 ((b.limit - warm) / (pool.size * 4)) in
      b.chunk <- max 1 (min (target_claim_ns / per_item) balance_cap)
    end
  end

(* Submit one batch with a calibrated chunk size.  The warm-up runs
   before workers are woken, so the recalibration is unobservable to
   them; results are unaffected either way — chunking changes wall-clock
   only, and test_telemetry.ml pins that the jobs-deterministic counters
   survive any chunk policy. *)
let run_calibrated p b =
  calibrate_chunk p b;
  run_batch p b

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

(* The recommended jobs count, derived from a measured scaling curve
   rather than [Domain.recommended_domain_count] (which reflects the host,
   not the workload): the jobs value with the highest measured speedup,
   ties broken toward fewer domains — a tie means the extra domains buy
   nothing, so don't spawn them. *)
let recommend_domains curve =
  match curve with
  | [] -> 1
  | (j0, s0) :: rest ->
    fst
      (List.fold_left
         (fun (bj, bs) (j, s) ->
           if s > bs || (s = bs && j < bj) then (j, s) else (bj, bs))
         (j0, s0) rest)

(* ------------------------------------------------------------------ *)
(* the deterministic scan                                              *)
(* ------------------------------------------------------------------ *)

type 'b cell =
  | Empty
  | Value of int * 'b  (** the job's cost and result *)
  | Stopped  (** the job was cut short by its stop closure *)
  | Raised of exn * Printexc.raw_backtrace

(* Evaluate one job under the armed fault plan: the inline attempt chain
   (0, 1, ...) mirrors the pool's requeue path exactly, so the attempt
   that finally evaluates [f] is the same one the pool lands on. *)
let eval_faulted i f x =
  if not (Fault.armed ()) then f x
  else begin
    let rec go attempt =
      if Fault.crash ~index:i ~attempt then go (attempt + 1) else f x
    in
    go 0
  end

type 'b budgeted = {
  prefix : 'b list;  (** surviving outcomes, in index order *)
  ran_out : bool;  (** the scan stopped because the budget ran out *)
}

(* The deterministic truncation rules, shared verbatim by the sequential
   oracle and the pool's merge pass (DESIGN.md S27).  Walking indices in
   order with the cumulative cost [cum] of the included prefix:

   - stop (exhausted) before index [i] once [cum >= allowance], where
     [allowance] is the token's remaining step budget captured at scan
     entry — a pure function of the inputs, since every earlier scan
     [settle]d the token;
   - stop (exhausted) at [i] when its job was stopped ([None]) — with a
     step budget this means the game alone overran the allowance, which
     is deterministic; a deadline or cancellation can also interrupt,
     and those are wall-clock events allowed to move the prefix;
   - stop (complete) at [i] including the outcome when [cut] fires;
   - otherwise include the outcome, add its cost, continue.

   The shared token is charged live by workers purely as an early-stop
   heuristic (polled before every claim); [Budget.settle] overwrites it
   with the deterministic total afterwards. *)
let budgeted_scan ?jobs ~token ~cut f xs =
  let n = List.length xs in
  let base = Budget.steps_used token in
  let allowance = Budget.steps_remaining token in
  let jobs = match jobs with Some j -> max 1 j | None -> 1 in
  let arr = Array.of_list xs in
  let eval_raw i = f ~stop:(Budget.game_stop token ~allowance) arr.(i) in
  let eval i = eval_faulted i (fun _ -> eval_raw i) arr.(i) in
  let finish ~ran_out prefix cum =
    Budget.settle token (base + cum);
    if ran_out then Budget.note_ran_out token;
    { prefix = List.rev prefix; ran_out }
  in
  let sequential () =
    let rec go i cum acc =
      if i >= n then finish ~ran_out:false acc cum
      else if cum >= allowance then finish ~ran_out:true acc cum
      else if Budget.poll_wall token then finish ~ran_out:true acc cum
      else begin
        match eval i with
        | None -> finish ~ran_out:true acc cum
        | Some (c, v) ->
          Budget.charge token c;
          if cut v then finish ~ran_out:false (v :: acc) (cum + c)
          else go (i + 1) (cum + c) (v :: acc)
      end
    in
    go 0 0 []
  in
  if jobs <= 1 || n <= 1 then sequential ()
  else
    match acquire (min jobs n) with
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
      (* [body] evaluates uninjected: in the pool path the crash decision
         is made per claim (below), driving the requeue machinery; only
         the merge's hole-filling replays the inline attempt chain. *)
      let body ~faulted i () =
        match (if faulted then eval i else eval_raw i) with
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
      let run i ~attempt =
        if Fault.crash ~index:i ~attempt then `Crashed
        else begin
          deltas.(i) <- Probe.captured (body ~faulted:false i);
          `Done
        end
      in
      let b =
        {
          run;
          next = Atomic.make 0;
          chunk = max 1 (min 32 (n / (pool.size * 4)));
          limit = n;
          cut = cut_mark;
          retry = Atomic.make [];
          token;
        }
      in
      Fun.protect
        ~finally:(fun () -> release busy)
        (fun () ->
          Probe.span "pool.batch" (fun () -> run_calibrated pool b));
      (* Deterministic merge: same walk as [sequential], over the cells.
         Holes — indices skipped because a worker gave up on the racy
         heuristic — are filled by evaluating inline, capture and all, so
         the committed counter stream is identical to the oracle's. *)
      let fill i = deltas.(i) <- Probe.captured (body ~faulted:true i) in
      let rec walk i cum acc =
        if i >= n then finish ~ran_out:false acc cum
        else if cum >= allowance then finish ~ran_out:true acc cum
        else begin
          (match cells.(i) with
          | Empty ->
            (* don't start new work past a tripped deadline; an
               already-evaluated cell still gets included below *)
            if not (Budget.poll_wall token) then fill i
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

(* Every checker's suite, played and judged (DESIGN.md S37).  The game
   runs under the context's memory mode with the budget's stop closure;
   a [Cancelled] game is a stopped job that no judge sees, and a judged
   job carries its cost (game steps unless the checker says otherwise),
   so the scan keeps no game outcome the judge did not keep. *)
let games ~ctx ?max_steps ?log_switches ?(cut = fun _ -> false)
    ?(cost = fun o _ -> o.Game.steps) layer threads judge scheds =
  let play ~stop sched =
    let o =
      Game.run
        (Game.config ?max_steps ?log_switches ~memory:ctx.Ctx.memory ?stop
           layer threads sched)
    in
    match o.Game.status with
    | Game.Cancelled -> None
    | _ ->
      let v = judge sched o in
      Some (cost o v, v)
  in
  let scan =
    budgeted_scan ?jobs:(Ctx.jobs_opt ctx) ~token:ctx.Ctx.token ~cut play scheds
  in
  if scan.ran_out then
    Budget.Exhausted { spent = Budget.spent ctx.Ctx.token; partial = scan.prefix }
  else Budget.Complete scan.prefix
