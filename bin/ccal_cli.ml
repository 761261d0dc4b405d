(* ccal — command-line driver for the CCAL reproduction.

   Subcommands:
     ccal stack     verify the whole Fig. 1 layer stack
     ccal kv        certify the kv serving stack (DESIGN.md S28)
     ccal verify    certify one object (ticket, mcs, local-queue,
                    shared-queue, queue-stack, qlock, ipc, rwlock, all)
     ccal pipeline  run the Fig. 5 ticket-lock pipeline with soundness
     ccal explore   compare the DPOR explorer against exhaustive
                    enumeration on a benchmark game
     ccal litmus    run the memory-model conformance suite
     ccal crash     certify crash refinement of the WAL and durable-kv
                    edges (DESIGN.md S30)
     ccal inventory print the layer/object inventory

   The game-driving subcommands (stack, kv, pipeline, explore, litmus,
   crash) share one flag bundle — --jobs, --strategy, --memory, --stats,
   --trace, --budget-ms, --budget-steps — parsed once into a
   [Ccal_verify.Ctx.t] and threaded through the [*_ctx] checker entry
   points (DESIGN.md S27).  Only stack, kv and crash, whose work is a
   list of layer edges, also take --cache/--cache-dir: the edge is the
   one unit the certificate cache stores (DESIGN.md S26), so the other
   subcommands reject both flags rather than ignore them.

   A scheduler suite has one name, the --strategy engine descriptor
   (DESIGN.md S41): the --seeds N that stack and pipeline once took is
   --strategy random:N, round-robin plus N seeded random schedulers.
   random:0 is rejected, so the round-robin-only suite has no name.

   Every failure (stack, kv, crash, pipeline, verify) is one
   [Ccal_core.Failure.t] and prints as its one [Failure.pp] line: the
   edge, the run (schedule or environment) and the event index, which
   reproduce it, then the reason (DESIGN.md S40).  A failing run exits
   1. *)

open Cmdliner
open Ccal_core
open Ccal_objects

let vi = Value.int

(* ---------------- shared options ---------------- *)

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Domains used for schedule checking, a positive integer.  \
                 Defaults to $(b,CCAL_JOBS) when set, else the recommended \
                 domain count; 1 forces the sequential path.  The verdict is \
                 identical for every value — parallelism changes \
                 wall-clock only.")

(* A count flag ([--jobs], [--threads], [--shards], [--entries],
   [--crashes], [--depth], [--budget-steps]) below [min] is
   rejected by name, exit 2, before any checker runs: a zero shard count
   divides by zero, a negative count breaks [List.init], zero client
   threads certify vacuously, and a negative depth or budget would
   otherwise be clamped to an instantly finished run. *)
let resolve_count ?(min = 1) flag n =
  if n >= min then Ok n
  else
    Error
      (Printf.sprintf "%s %d: expected a %s integer" flag n
         (if min > 0 then "positive" else "non-negative"))

(* [--budget-ms] must be a finite non-negative number: NaN, infinity and
   negatives are rejected by name rather than clamped to a budget that
   is exhausted at 0 ms. *)
let resolve_ms ms =
  if Float.is_finite ms && ms >= 0. then Ok ms
  else
    Error
      (Printf.sprintf "--budget-ms %g: expected a finite non-negative number"
         ms)

let resolve_jobs = function
  | Some n -> resolve_count "--jobs" n
  | None -> Ccal_verify.Parallel.default_jobs ()

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Enable verification telemetry and print the counter/span \
                 table after the run.  Counters are identical for every \
                 $(b,--jobs) value (DESIGN.md S25).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Enable verification telemetry and write the recorded spans \
                 to $(docv) in Chrome trace format (load in about:tracing \
                 or ui.perfetto.dev; one track per worker domain).")

let strategy_arg =
  Arg.(value & opt string "default"
       & info [ "strategy" ] ~docv:"STRAT"
           ~doc:"Exploration strategy for the game-driving checks, the \
                 one name of a scheduler suite: default (the command's \
                 own: random:4 for stack, random:8 for pipeline, dpor:4 \
                 elsewhere), dpor[:DEPTH][,sym] (sleep-set DPOR, \
                 optionally with thread-symmetry reduction), \
                 exhaustive[:DEPTH] or random[:COUNT] (round-robin plus \
                 COUNT seeded random schedulers).  Invalid combinations \
                 (e.g. exhaustive,sym, random:0) are rejected by name.")

let budget_ms_arg =
  Arg.(value & opt (some float) None
       & info [ "budget-ms" ] ~docv:"MS"
           ~doc:"Wall-clock budget in milliseconds.  When it runs out the \
                 checkers stop at the next schedule boundary and report \
                 what they established so far ($(b,exhausted) verdict, \
                 exit 0) instead of hanging.")

let budget_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "budget-steps" ] ~docv:"N"
           ~doc:"Game-step budget.  Deterministic: the same step budget \
                 truncates the same schedule prefix on every $(b,--jobs) \
                 value (DESIGN.md S27).")

let memory_arg =
  Arg.(value & opt string "sc"
       & info [ "memory" ] ~docv:"MODE"
           ~doc:"Memory model the machine layer exhibits: $(b,sc) \
                 (sequentially consistent, the default) or $(b,tso) \
                 (x86-TSO: per-CPU FIFO store buffers, mfence, and \
                 buffer flushes as explicit scheduler moves).  Verdicts \
                 are cached per mode — an SC verdict is never served for \
                 a TSO query.")

let memory_of_string = function
  | "sc" | "SC" -> Ok Memory.Sc
  | "tso" | "TSO" -> Ok Memory.Tso
  | s -> Error (Printf.sprintf "unknown memory model %S (expected sc or tso)" s)

(* Run [f] with telemetry enabled when [--stats] or [--trace] asks for it;
   print the table and/or write the trace afterwards, leaving the exit
   code to [f].  Exporting happens even when [f] fails — a failing run is
   exactly when the trace is interesting. *)
let with_telemetry ~stats ~trace f =
  let module T = Ccal_verify.Telemetry in
  if not (stats || trace <> None) then f ()
  else begin
    T.enable ();
    Fun.protect
      ~finally:(fun () ->
        if stats then Format.printf "%a@." T.pp_stats ();
        (match trace with
        | Some path ->
          T.write_chrome_trace path;
          Format.printf "trace written to %s@." path
        | None -> ());
        T.disable ())
      f
  end

(* ---------------- cache options ---------------- *)

let cache_flag_arg =
  Arg.(value & flag
       & info [ "cache" ]
           ~doc:"Consult the on-disk certificate cache before each edge and \
                 record new verdicts after (DESIGN.md S26).  Failing \
                 verdicts are never replayed from disk.  The store lives in \
                 $(b,--cache-dir), $(b,CCAL_CACHE_DIR) or ~/.cache/ccal.")

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Certificate cache directory (implies $(b,--cache)).  \
                 Defaults to $(b,CCAL_CACHE_DIR) or ~/.cache/ccal.")

(* [Some cache] when --cache/--cache-dir asks for one; [Error] (exit 2)
   when the directory cannot be created.  Only the edge-list subcommands
   (stack, kv, crash) take these flags. *)
let make_cache use_cache dir =
  if use_cache || dir <> None then
    match Ccal_verify.Cache.create ?dir () with
    | c -> Ok (Some c)
    | exception Sys_error msg -> Error ("cannot open cache: " ^ msg)
  else Ok None

let cache_term =
  Term.(const (fun use dir -> use, dir) $ cache_flag_arg $ cache_dir_arg)

let pp_cache_summary fmt cache =
  match cache with
  | None -> ()
  | Some c ->
    let s = Ccal_verify.Cache.session_stats c in
    Format.fprintf fmt "cache: %d hits, %d misses, %d invalidations (%s)@."
      s.Ccal_verify.Cache.hits s.Ccal_verify.Cache.misses
      s.Ccal_verify.Cache.invalidations
      (Ccal_verify.Cache.dir c)

(* [Ok None] = "the command's own default engine"; anything else
   parses through the one engine grammar ([Engine.of_string]), so every
   game subcommand accepts exactly the same descriptors — including
   [dpor[:DEPTH],sym] — and rejects invalid combinations with the
   engine's named error. *)
let strategy_of_string = function
  | "default" | "" -> Ok None
  | s -> Result.map Option.some (Ccal_verify.Ctx.Engine.of_string s)

(* ---------------- the shared flag bundle ---------------- *)

(* Everything the game-driving subcommands have in common, parsed once.
   [strategy = None] means "the command's own default engine" (random:4
   for stack, random:8 for pipeline, the context's dpor:4 elsewhere);
   [cache] is set only by the edge-list subcommands ({!with_common}). *)
type common = {
  jobs : int;
  cache : Ccal_verify.Cache.t option;
  strategy : Ccal_verify.Ctx.Engine.t option;
  memory : Memory.t;
  budget : Ccal_verify.Budget.t;
  stats : bool;
  trace : string option;
}

let common_of jobs strategy memory budget_ms budget_steps stats trace =
  let ( let* ) = Result.bind in
  let* jobs = resolve_jobs jobs in
  let resolve_opt f = function
    | None -> Ok None
    | Some v -> Result.map Option.some (f v)
  in
  let* budget_ms = resolve_opt resolve_ms budget_ms in
  let* budget_steps =
    resolve_opt (resolve_count ~min:0 "--budget-steps") budget_steps
  in
  let* strategy = strategy_of_string strategy in
  let* memory = memory_of_string memory in
  Ok
    {
      jobs;
      cache = None;
      strategy;
      memory;
      budget = Ccal_verify.Budget.make ?ms:budget_ms ?steps:budget_steps ();
      stats;
      trace;
    }

let common_term =
  Term.(const common_of $ jobs_arg $ strategy_arg $ memory_arg
        $ budget_ms_arg $ budget_steps_arg $ stats_arg $ trace_arg)

(* The context a parsed bundle denotes.  The budget is attached last —
   [Ctx.with_budget] starts the token, and the deadline epoch should be
   the moment the checker starts, not argument parsing. *)
let ctx_of c =
  let module V = Ccal_verify in
  let ctx = V.Ctx.with_jobs c.jobs V.Ctx.default in
  let ctx =
    match c.cache with Some ca -> V.Ctx.with_cache ca ctx | None -> ctx
  in
  let ctx =
    match c.strategy with Some s -> V.Ctx.with_strategy s ctx | None -> ctx
  in
  let ctx = V.Ctx.with_memory c.memory ctx in
  V.Ctx.with_budget c.budget ctx

(* Run a subcommand body under the bundle's telemetry settings, printing
   the cache summary afterwards. *)
let run_with_common (c : common) f =
  with_telemetry ~stats:c.stats ~trace:c.trace (fun () ->
      let code = f (ctx_of c) in
      Format.printf "%a" pp_cache_summary c.cache;
      code)

(* The one funnel every game-driving subcommand (stack, kv, pipeline,
   explore, litmus, crash) goes through: a bundle parse error exits 2,
   otherwise the body gets the parsed bundle and its context under the
   telemetry/cache plumbing.  [cache] is the --cache/--cache-dir
   pair of an edge-list subcommand; the store is opened only once the
   bundle parsed.  Subcommand-specific validation happens inside the
   body (same exit 2), so the wiring is written once rather than
   re-pasted per subcommand. *)
let with_common ?(counts = []) ?(cache = false, None) common f =
  let use_cache, cache_dir = cache in
  let common =
    Result.bind common (fun c ->
        Result.map
          (fun cache -> { c with cache })
          (make_cache use_cache cache_dir))
  in
  match
    List.fold_left
      (fun c n -> Result.bind c (fun c -> Result.map (fun _ -> c) n))
      common counts
  with
  | Error msg ->
    Format.eprintf "%s@." msg;
    2
  | Ok c -> run_with_common c (fun ctx -> f c ctx)

let report_file_arg =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the canonical (timing-free) report to $(docv).  \
                 The file is bit-identical between cold and warm cached \
                 runs and across $(b,--jobs) counts — made for $(b,cmp).")

(* Every failure prints as its one [Failure.pp] line on stderr, exit 1
   (DESIGN.md S40). *)
let failed f =
  Format.eprintf "%a@." Failure.pp f;
  1

(* The one result printer of the edge-list subcommands (stack, kv,
   crash): the report on stdout, the frontier when the budget ran out,
   the canonical report to [--report], and the exit code. *)
let print_edges ~report_file layout ~rows ~frontier outcome =
  let module V = Ccal_verify in
  let print r = Format.printf "%a" (V.Edges.pp ~millis:true layout) (rows r) in
  let report r =
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            let fmt = Format.formatter_of_out_channel oc in
            Format.fprintf fmt "%a%!" (V.Edges.pp ~millis:false layout) (rows r));
        Format.printf "canonical report written to %s@." path)
      report_file
  in
  match outcome with
  | V.Budget.Complete (Ok r) ->
    print r;
    report r;
    0
  | V.Budget.Exhausted { spent; partial = Ok r } ->
    print r;
    Format.printf "budget exhausted (%a) %s@." V.Budget.pp_spent spent (frontier r);
    report r;
    0
  | V.Budget.Complete (Error f) | V.Budget.Exhausted { partial = Error f; _ } -> failed f

(* ---------------- stack ---------------- *)

let stack_cmd =
  let run common cache lock livelock report_file =
    with_common common ~cache @@ fun c ctx ->
    let lock = match lock with "mcs" -> `Mcs | _ -> `Ticket in
    let module V = Ccal_verify in
    print_edges ~report_file V.Stack.layout
      ~rows:(fun p -> p.V.Stack.completed.V.Stack.edges)
      ~frontier:(fun p ->
        Printf.sprintf "before edge %S" (Option.value p.V.Stack.next_edge ~default:"?"))
      (V.Stack.verify_all_ctx ~ctx ~lock ?strategy:c.strategy
         ~adversarial:livelock ())
  in
  let lock =
    Arg.(value & opt string "ticket"
         & info [ "lock" ] ~docv:"IMPL" ~doc:"Spinlock implementation (ticket|mcs).")
  in
  let livelock =
    Arg.(value & flag
         & info [ "livelock" ]
             ~doc:"Append the adversarial spinning-rwlock edge, which \
                   livelocks under the trace-prefix schedulers: each of its \
                   2,187 games burns its whole fuel.  Without a \
                   $(b,--budget-ms) this runs for tens of seconds; with one, \
                   the run stops at the deadline and reports the completed \
                   edges ($(b,exhausted), exit 0).")
  in
  Cmd.v
    (Cmd.info "stack" ~doc:"Certify and link the whole Fig. 1 layer stack")
    Term.(const run $ common_term $ cache_term $ lock $ livelock
          $ report_file_arg)

(* ---------------- kv ---------------- *)

let kv_cmd =
  let run common cache threads shards entries report_file =
    with_common common ~cache
      ~counts:
        [ resolve_count "--threads" threads; resolve_count "--shards" shards;
          resolve_count "--entries" entries ]
    @@ fun _c ctx ->
    let module K = Ccal_kv.Kv_stack in
    print_edges ~report_file K.layout
      ~rows:(fun r -> r.K.edges)
      ~frontier:(fun r -> Printf.sprintf "after %d of 3 edges" (List.length r.K.edges))
      (K.verify_ctx ~ctx ~threads ~shards ~entries ())
  in
  let threads =
    Arg.(value & opt int 3
         & info [ "threads" ] ~docv:"N"
             ~doc:"Client threads per edge game.  More threads explore more \
                   interleavings (and cost exponentially more schedules).")
  in
  let shards =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"N"
             ~doc:"Hash-table bucket count (each bucket gets its own lock).")
  in
  let entries =
    Arg.(value & opt int 2
         & info [ "entries" ] ~docv:"N"
             ~doc:"Block-cache capacity in direct-mapped entries.")
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:"Certify the kv serving stack (sharded hash table + block cache)")
    Term.(const run $ common_term $ cache_term $ threads $ shards $ entries
          $ report_file_arg)

(* ---------------- verify ---------------- *)

let verify_one name =
  let show = function
    | Ok cert ->
      Format.printf "%a@." Calculus.pp_cert cert;
      true
    | Error f ->
      Format.printf "%a@." Failure.pp f;
      false
  in
  let certify recipe = show (Object_intf.certify recipe ()) in
  match name with
  | "ticket" -> certify Ticket_lock.recipe
  | "mcs" -> certify Mcs_lock.recipe
  | "local-queue" -> certify Queue_local.recipe
  | "shared-queue" -> certify Queue_shared.recipe
  | "queue-stack" -> show (Queue_shared.full_stack_certify ())
  | "qlock" -> certify Qlock.recipe
  | "ipc" -> certify Ipc.recipe
  | "rwlock" -> certify Rwlock.recipe
  | other ->
    Format.eprintf "unknown object %S@." other;
    false

let objects =
  [ "ticket"; "mcs"; "local-queue"; "shared-queue"; "queue-stack"; "qlock";
    "ipc"; "rwlock" ]

let verify_cmd =
  let run name =
    let names = if name = "all" then objects else [ name ] in
    let ok = List.for_all (fun n ->
        Format.printf "== %s ==@." n;
        verify_one n) names
    in
    if ok then 0 else 1
  in
  let obj_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"OBJECT"
             ~doc:"Object to certify: ticket, mcs, local-queue, shared-queue, \
                   queue-stack, qlock, ipc, rwlock, or all.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Build the certificate for one object")
    Term.(const run $ obj_arg)

(* ---------------- cache ---------------- *)

let cache_cmd =
  let open_cache dir k =
    match Ccal_verify.Cache.create ?dir () with
    | c -> k c
    | exception Sys_error msg ->
      Format.eprintf "cannot open cache: %s@." msg;
      2
  in
  let stats_cmd =
    let run dir =
      open_cache dir (fun c ->
          let d = Ccal_verify.Cache.disk_stats c in
          Format.printf "dir:     %s@.entries: %d@.bytes:   %d@."
            (Ccal_verify.Cache.dir c) d.Ccal_verify.Cache.entries
            d.Ccal_verify.Cache.bytes;
          0)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print the certificate-cache location and size")
      Term.(const run $ cache_dir_arg)
  in
  let clear_cmd =
    let run dir =
      open_cache dir (fun c ->
          let removed = Ccal_verify.Cache.clear c in
          Format.printf "removed %d entries from %s@." removed
            (Ccal_verify.Cache.dir c);
          0)
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Delete every certificate-cache entry")
      Term.(const run $ cache_dir_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear the on-disk certificate cache")
    [ stats_cmd; clear_cmd ]

(* ---------------- pipeline ---------------- *)

let pipeline_cmd =
  let run common =
    with_common common @@ fun c ctx ->
    let module V = Ccal_verify in
    let ctx =
      V.Ctx.with_strategy
        (Option.value c.strategy ~default:(V.Ctx.Engine.random ~count:8))
        ctx
    in
    (match
       Object_intf.certify Ticket_lock.recipe ~memory:c.memory ()
     with
      | Error f -> failed f
      | Ok cert -> (
        Format.printf "%a@.@." Calculus.pp_cert cert;
        let client i =
          Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
              Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
        in
        match V.Linearizability.refine_cert_ctx ~ctx cert ~client with
        | V.Budget.Complete (Ok r) ->
          Format.printf "soundness: %d schedules refined -- OK@."
            r.V.Linearizability.runs;
          0
        | V.Budget.Exhausted { spent; partial = Ok r } ->
          Format.printf
            "soundness: %d schedules refined before the budget ran out \
             (%a)@."
            r.V.Linearizability.runs V.Budget.pp_spent spent;
          0
        | V.Budget.Complete (Error f)
        | V.Budget.Exhausted { partial = Error f; _ } -> failed f))
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Run the Fig. 5 ticket-lock pipeline end to end")
    Term.(const run $ common_term)

(* ---------------- explore ---------------- *)

(* Benchmark games for comparing the DPOR explorer against exhaustive
   enumeration.  Each returns (layer, threads).  Under [--memory tso]
   the machine-level games (ticket, mcs, litmus:NAME) run over the
   store-buffer layer, and the exhaustive side enumerates the flusher
   pseudo-threads as schedulable tids. *)
let explore_game name nthreads memory =
  let lock_client i =
    Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))
  in
  let queue_client i =
    Prog.bind (Prog.call "enQ_s" [ vi 0; vi (10 * i) ]) (fun _ ->
        Prog.call "deQ_s" [ vi 0 ])
  in
  let spawn client = List.init nthreads (fun k -> k + 1, client (k + 1)) in
  match name with
  | "lock" ->
    Some (Lock_intf.layer "Llock", spawn lock_client)
  | "ticket" ->
    let m = Ticket_lock.c_module () in
    Some
      (Ticket_lock.l0 ~memory (), spawn (fun i -> Prog.Module.link m (lock_client i)))
  | "mcs" ->
    let m = Mcs_lock.c_module () in
    Some
      (Mcs_lock.l0 ~memory (), spawn (fun i -> Prog.Module.link m (lock_client i)))
  | "queue" ->
    let m =
      Ccal_clight.Csem.module_of_fns [ Queue_shared.deq_fn; Queue_shared.enq_fn ]
    in
    Some
      (Queue_shared.underlay (), spawn (fun i -> Prog.Module.link m (queue_client i)))
  | "queue-atomic" ->
    Some (Queue_shared.overlay (), spawn queue_client)
  | "kv-ht" -> Some (Ccal_kv.Kv_stack.ht_game ~shards:2 ~threads:nthreads ())
  | "kv-sym" -> Some (Ccal_kv.Kv_stack.sym_game ~shards:2 ~threads:nthreads ())
  | "kv-cache" ->
    Some (Ccal_kv.Kv_stack.cache_game ~entries:2 ~threads:nthreads ())
  | "kv-composed" ->
    Some (Ccal_kv.Kv_stack.composed_game ~shards:2 ~entries:2 ~threads:nthreads ())
  | "wal" | "durable-kv" ->
    (* The crash-enabled disk games (DESIGN.md S30): the underlay exports
       the crash primitive, so the schedule space includes the crash
       pseudo-thread's move and the explorers enumerate power loss at
       every point like any other interleaving. *)
    let module D = Ccal_disk in
    let modul, client =
      if name = "wal" then D.Wal.module_ (), D.Wal.client
      else D.Durable_kv.module_ (), D.Durable_kv.client
    in
    Some
      ( D.Wal.underlay ~crashes:true (),
        spawn (fun i -> Prog.Module.link modul (client i)) )
  | _ -> (
    (* litmus:<NAME> — the conformance corpus over the mode's machine
       layer, e.g. litmus:SB, litmus:IRIW (CI's memory-model leg). *)
    match String.split_on_char ':' name with
    | [ "litmus"; t ] ->
      Option.map
        (fun (t : Ccal_machine.Litmus.test) ->
          Ccal_machine.Tso.machine_layer memory, t.Ccal_machine.Litmus.threads)
        (Ccal_machine.Litmus.find t)
    | _ -> None)

let explore_cmd =
  let run common obj nthreads depth mode no_oracle =
    (* No threads is a game: the one empty play, on both sides. *)
    with_common common
      ~counts:
        [
          resolve_count ~min:0 "--threads" nthreads;
          resolve_count ~min:0 "--depth" depth;
        ]
    @@ fun c ctx ->
    let module V = Ccal_verify in
    let module Engine = V.Ctx.Engine in
    let independence =
      match mode with
      | "events" -> Some Ccal_verify.Dpor.Commuting_events
      | "exact" -> Some Ccal_verify.Dpor.Exact
      | _ -> None
    in
    (* The explore subcommand measures the dpor engine against the
       exhaustive oracle, so only it makes sense here; the oracle itself
       and the random suite are rejected by name rather than silently
       swapped for the default. *)
    let engine =
      match c.strategy with
      | None -> Ok Engine.default
      | Some e -> (
        match e.Engine.algo with
        | Engine.Dpor -> Ok e
        | Engine.Exhaustive | Engine.Random ->
          Error
            (Printf.sprintf
               "strategy %S is not an exploration engine for this \
                subcommand (expected dpor[:DEPTH][,sym]; the exhaustive \
                oracle is the comparison baseline)"
               (Engine.to_string e)))
    in
    match explore_game obj nthreads c.memory, independence, engine with
    | None, _, _ ->
      Format.eprintf
        "unknown game %S (expected lock, ticket, mcs, queue, queue-atomic, \
         kv-ht, kv-sym, kv-cache, kv-composed, wal, durable-kv or \
         litmus:NAME)@."
        obj;
      2
    | _, None, _ ->
      Format.eprintf "unknown mode %S (expected exact or events)@." mode;
      2
    | _, _, Error msg ->
      Format.eprintf "%s@." msg;
      2
    | Some (layer, threads), Some independence, Ok engine ->
      let explored =
        V.Dpor.explore_ctx ~ctx ~independence ~engine ~depth layer threads
      in
      let dpor = V.Budget.value explored in
      Format.printf "game %s: %d threads, depth %d, %s independence, %s@." obj
        nthreads depth
        (match independence with
        | V.Dpor.Exact -> "exact"
        | V.Dpor.Commuting_events -> "commuting-events")
        (Memory.to_string c.memory);
      Format.printf "  %s: %a@."
        (Engine.to_string { engine with Engine.depth })
        V.Dpor.pp_stats dpor.V.Dpor.stats;
      let sym = engine.Engine.sym in
      (match explored with
      | V.Budget.Exhausted { spent; _ } ->
        Format.printf
          "  budget exhausted (%a) after %d of %d replays; comparison \
           skipped@."
          V.Budget.pp_spent spent dpor.V.Dpor.stats.V.Dpor.schedules_run
          (List.length dpor.V.Dpor.prefixes);
        0
      | V.Budget.Complete _ when no_oracle ->
        Format.printf "  complete (oracle comparison skipped)@.";
        0
      | V.Budget.Complete _ -> (
        match
          V.Explore.oracle_ctx ~ctx ~independence ~sym ~depth layer threads
            dpor
        with
        | V.Budget.Exhausted { spent; partial } ->
          Format.printf
            "  budget exhausted (%a) after %d exhaustive runs; comparison \
             skipped@."
            V.Budget.pp_spent spent partial.V.Explore.runs;
          0
        | V.Budget.Complete { V.Explore.runs; logs; agree } ->
          Format.printf "  exhaustive: %d schedules run; %d distinct logs@."
            runs (List.length logs);
          (* Under [sym] the walk keeps one log per symmetry orbit, so the
             comparison is inclusion, and the line says so. *)
          Format.printf "  log sets %s%s%s@."
            (if agree then "agree" else "DISAGREE")
            (if sym then " under sym" else "")
            (if not agree then " (DPOR is unsound here)"
             else if sym then " (DPOR logs are a subset of the exhaustive logs)"
             else "");
          if agree then 0 else 1))
  in
  let obj =
    Arg.(value & pos 0 string "lock"
         & info [] ~docv:"GAME"
             ~doc:"Benchmark game: lock (atomic Llock interface), ticket or \
                   mcs (concrete spinlock implementations over L0), queue \
                   (lock-based shared queue), queue-atomic (the Lq_high \
                   overlay), kv-ht (sharded hash table over bucket locks), \
                   kv-sym (the symmetric N-worker variant every thread of \
                   which differs only in its own tid — the symmetry-\
                   reduction gate game), kv-cache (block cache over the \
                   flat disk) or kv-composed (cache stacked on the hash \
                   table).")
  in
  let nthreads =
    Arg.(value & opt int 3
         & info [ "threads" ] ~docv:"N" ~doc:"Number of competing threads.")
  in
  let depth =
    Arg.(value & opt int 5
         & info [ "depth" ] ~docv:"D" ~doc:"Scheduler decision depth.")
  in
  let mode =
    Arg.(value & opt string "exact"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Independence mode: exact (raw log-set equality) or events \
                   (object-based commutation, compared up to canonical \
                   reordering).")
  in
  let no_oracle =
    Arg.(value & flag
         & info [ "no-oracle" ]
             ~doc:"Skip the exhaustive-oracle comparison and report the \
                   engine's stats only.  The way to probe depths where \
                   enumerating all |tids|^depth prefixes is infeasible \
                   (the $(b,make check-sym) depth-8 gate).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Compare the dpor engine against exhaustive enumeration")
    Term.(const run $ common_term $ obj $ nthreads $ depth $ mode $ no_oracle)

(* ---------------- litmus ---------------- *)

let litmus_cmd =
  let run common test_name table_file =
    with_common common @@ fun _c ctx ->
    let tests =
      match test_name with
      | "all" -> Ok Ccal_machine.Litmus.tests
      | n -> (
        match Ccal_machine.Litmus.find n with
        | Some t -> Ok [ t ]
        | None ->
          Error
            (Printf.sprintf "unknown litmus test %S (try %s)" n
               (String.concat ", "
                  (List.map
                     (fun (t : Ccal_machine.Litmus.test) ->
                       t.Ccal_machine.Litmus.name)
                     Ccal_machine.Litmus.tests))))
    in
    match tests with
    | Error msg ->
      Format.eprintf "%s@." msg;
      2
    | Ok tests ->
      let module V = Ccal_verify in
      (* The conformance suite is inherently dual-mode: each test runs
         under SC and TSO with the same knobs, whatever --memory says. *)
      let pairs = V.Litmus.run_both ~tests ~ctx () in
      List.iter
        (fun (sc, tso) ->
          Format.printf "%a@.%a@." V.Litmus.pp_report sc V.Litmus.pp_report
            tso)
        pairs;
      (match table_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        let fmt = Format.formatter_of_out_channel oc in
        Format.fprintf fmt "%a" V.Litmus.pp_table pairs;
        Format.pp_print_flush fmt ();
        close_out oc;
        Format.printf "per-mode outcome table written to %s@." path);
      if List.for_all (fun (sc, tso) -> V.Litmus.ok sc && V.Litmus.ok tso) pairs
      then 0
      else 1
  in
  let test_name =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"TEST"
             ~doc:"Litmus test to run (SB, SB+mfence, MP, LB, S, R, \
                   R+mfence, 2+2W, IRIW) or $(b,all).")
  in
  let table_file =
    Arg.(value & opt (some string) None
         & info [ "table" ] ~docv:"FILE"
             ~doc:"Write the per-mode outcome table (one row per test and \
                   outcome, reachable yes/no under each mode) to $(docv) — \
                   the artifact CI's memory-model leg uploads.")
  in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run the memory-model litmus conformance suite under SC and TSO")
    Term.(const run $ common_term $ test_name $ table_file)

(* ---------------- crash ---------------- *)

let crash_cmd =
  let run common cache edge_name nthreads shards crashes report_file =
    with_common common ~cache
      ~counts:
        [ resolve_count "--threads" nthreads; resolve_count "--shards" shards;
          resolve_count ~min:0 "--crashes" crashes ]
    @@ fun _c ctx ->
    let module V = Ccal_verify in
    let module D = Ccal_disk in
    let edges =
      match edge_name with
      | "all" ->
        Ok
          [ D.Wal.crash_edge ~threads:nthreads ();
            D.Durable_kv.crash_edge ~threads:nthreads ~shards () ]
      | "wal" -> Ok [ D.Wal.crash_edge ~threads:nthreads () ]
      | "durable-kv" ->
        Ok [ D.Durable_kv.crash_edge ~threads:nthreads ~shards () ]
      | "unsynced" ->
        (* The negative control: sync acknowledges without reaching the
           platter, so the certificate must fail with a named crash
           point. *)
        Ok [ D.Wal.crash_edge ~threads:nthreads ~unsynced:true () ]
      | other ->
        Error
          (Printf.sprintf
             "unknown edge %S (expected all, wal, durable-kv or unsynced)"
             other)
    in
    match edges with
    | Error msg ->
      Format.eprintf "%s@." msg;
      2
    | Ok edges ->
      print_edges ~report_file V.Crash.layout
        ~rows:(fun r -> r.V.Crash.edges)
        ~frontier:(fun r ->
          Printf.sprintf "after %d of %d edges" (List.length r.V.Crash.edges)
            (List.length edges))
        (V.Crash.check_ctx ~ctx ~crashes edges)
  in
  let edge_name =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"EDGE"
             ~doc:"Crash edge to certify: $(b,all) (wal + durable-kv, the \
                   default), $(b,wal), $(b,durable-kv), or $(b,unsynced) \
                   (the deliberately broken no-sync WAL — must fail with a \
                   named crash point; exit 1).")
  in
  let nthreads =
    Arg.(value & opt int 2
         & info [ "threads" ] ~docv:"N"
             ~doc:"Client threads per edge game (each appends, syncs, \
                   appends again on its own keys).")
  in
  let shards =
    Arg.(value & opt int 2
         & info [ "shards" ] ~docv:"N"
             ~doc:"Hash-table shard count of the durable-kv edge.")
  in
  let crashes =
    Arg.(value & opt int 4
         & info [ "crashes" ] ~docv:"M"
             ~doc:"In-flight bound up to which the (keep, tear) mask \
                   lattice is enumerated in full at each crash point; \
                   larger in-flight sets fall back to the deterministic \
                   boundary sample.")
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Certify crash refinement of the WAL and durable-kv edges")
    Term.(const run $ common_term $ cache_term $ edge_name $ nthreads $ shards
          $ crashes $ report_file_arg)

(* ---------------- inventory ---------------- *)

let inventory_cmd =
  let run () =
    let layer_line (l : Layer.t) =
      Format.printf "  %-12s %s@." l.Layer.name
        (String.concat ", " (Layer.prim_names l))
    in
    Format.printf "layer interfaces (bottom to top):@.";
    layer_line (Ccal_machine.Mx86.layer ());
    layer_line (Ticket_lock.l0 ());
    layer_line (Lock_intf.layer "Llock");
    layer_line (Queue_shared.underlay ());
    layer_line (Queue_shared.overlay ());
    layer_line (Qlock.overlay ());
    layer_line (Ipc.overlay ());
    Format.printf "@.objects: %s@." (String.concat ", " objects);
    0
  in
  Cmd.v
    (Cmd.info "inventory" ~doc:"Print the layer and object inventory")
    Term.(const run $ const ())

let () =
  let doc = "certified concurrent abstraction layers (PLDI'18 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "ccal" ~version:"1.0.0" ~doc)
          [ stack_cmd; kv_cmd; verify_cmd; pipeline_cmd; explore_cmd;
            litmus_cmd; crash_cmd; inventory_cmd; cache_cmd ]))
