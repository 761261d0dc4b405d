(* The checker benchmark: one workload per process, run through the public
   checker entry points at jobs = 1, with no helper domains.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--commit ID] [--out DIR]

   Untraced (--trace 0): after one untimed warm-up run, the workload is
   set up several times, then run back to back for about S seconds, with
   a fixed reference unit timed around each set-up and run (see [Host]).
   Every run's verdict and counts are compared with the pinned answer,
   and the medians of the processor times scaled for host speed are
   reported as the end-to-end metrics.

   Traced (--trace 1): untraced and traced runs alternate for about S
   seconds.  A traced run makes exactly the calls of an untraced one, with
   the library's probe switched on and the closures handed to the library
   wrapped; nothing inside lib/ changes.  The median traced run gives the
   per-layer metrics; the two medians give the tracing overhead.  Spans
   are kept in memory and written to DIR/spans-NAME.jsonl when the
   benchmark ends.

   The last line of stdout is the JSON result; the lines before it print
   every metric by name with its unit, plus the provenance of the run. *)

open Ccal_core
module V = Ccal_verify
module Engine = V.Ctx.Engine

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let slug s =
  String.map
    (function
      | 'A' .. 'Z' as c -> Char.lowercase_ascii c
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | _ -> '_')
    s

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

(* A traced run switches on the library's own probe (Ccal_core.Probe).
   Its spans already split the entry points into phases -- [dpor.prefixes]
   (the walk), [dpor.replay] and [dpor.dedup] inside [Dpor.explore_ctx],
   [explore.run_all] inside [Explore.run_all_ctx] -- and the benchmark
   adds probe spans around the other public layer calls it makes.  What
   the library does not time is timed by wrapping the closures it is
   handed: the shared primitives of a game's underlay ([Underlay]) and the
   recovery functions of crash edges ([Recover]). *)

(* Every [Layer.Shared] primitive of the wrapped layer is timed, with the
   log length it folds over and its [Block] results.  The layer's
   [init_abs] is wrapped too: [Machine.initial] calls it once per thread
   when a DPOR walk or a game starts, so a burst of such calls with no
   primitive call between them marks a start.  That splits the calls a
   DPOR walk makes to classify moves from the calls the games make, and
   counts the games.  Semantics are untouched. *)
module Underlay = struct
  type bucket = {
    mutable calls : int;
    mutable ns : int;
    mutable log_events : int;
    mutable blocked : int;
  }

  let bucket () = { calls = 0; ns = 0; log_events = 0; blocked = 0 }
  let walk = bucket ()
  let game = bucket ()
  let current = ref game
  let name = ref "" (* prim.<layer> once a layer is wrapped *)
  let walk_next = ref false
  let starting = ref false
  let games = ref 0

  (* Minor-heap words from one game start to the next, within a call. *)
  let gap_words = ref 0.
  let gaps = ref 0
  let last_start = ref Float.nan

  let reset () =
    List.iter
      (fun b ->
        b.calls <- 0;
        b.ns <- 0;
        b.log_events <- 0;
        b.blocked <- 0)
      [ walk; game ];
    games := 0;
    gap_words := 0.;
    gaps := 0

  (* One checker call; [~walk:true] when it opens with a DPOR walk, whose
     start is then the first one seen. *)
  let call ~walk f =
    walk_next := walk;
    starting := false;
    last_start := Float.nan;
    f ()

  let started () =
    if not !starting then begin
      starting := true;
      if !walk_next then begin
        walk_next := false;
        current := walk
      end
      else begin
        let words = Gc.minor_words () in
        if not (Float.is_nan !last_start) then begin
          gap_words := !gap_words +. (words -. !last_start);
          incr gaps
        end;
        last_start := words;
        current := game;
        incr games
      end
    end

  let wrap (layer : Layer.t) =
    name := "prim." ^ slug layer.Layer.name;
    let shared f tid args log =
      starting := false;
      let b = !current in
      b.log_events <- b.log_events + Log.length log;
      let t0 = now_ns () in
      let r = f tid args log in
      b.ns <- b.ns + (now_ns () - t0);
      b.calls <- b.calls + 1;
      (match r with Layer.Block -> b.blocked <- b.blocked + 1 | _ -> ());
      r
    in
    {
      layer with
      Layer.prims =
        List.map
          (function
            | n, Layer.Shared f -> n, Layer.Shared (shared f)
            | private_prim -> private_prim)
          layer.Layer.prims;
      init_abs =
        (fun tid ->
          started ();
          layer.Layer.init_abs tid);
    }
end

module Recover = struct
  let calls = ref 0
  let ns = ref 0

  let reset () =
    calls := 0;
    ns := 0

  let wrap (e : V.Crash.edge) =
    let recover log ~keep ~tear =
      let t0 = now_ns () in
      let r = e.V.Crash.recover log ~keep ~tear in
      ns := !ns + (now_ns () - t0);
      incr calls;
      r
    in
    { e with V.Crash.recover }
end

type span = {
  id : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** -1 for a span no other span of the run encloses *)
  run : int;
}

let span_ids = ref 0

(* The probe's spans of one traced run, as a tree: the run is on one
   domain, so a span's parent is the innermost span enclosing it.  The
   interval in which [explore_ctx] canonicalises its leaf logs -- from the
   end of a [dpor.replay] to the start of the [dpor.dedup] that follows it
   -- becomes a [dpor.canonical] span. *)
let run_spans ~run =
  let make name start_ns stop_ns parent =
    incr span_ids;
    { id = !span_ids; name; start_ns; stop_ns; parent; run }
  in
  let evs =
    List.map
      (fun (e : Probe.span_ev) ->
        let t0 = Int64.to_int e.Probe.ts_ns in
        e.Probe.name, t0, t0 + Int64.to_int e.Probe.dur_ns)
      (Probe.spans ())
    |> List.sort (fun (_, a0, a1) (_, b0, b1) -> compare (a0, -a1) (b0, -b1))
  in
  let rec nest stack acc = function
    | [] -> List.rev acc
    | (name, t0, t1) :: rest ->
      let rec enclosing = function
        | p :: up when p.stop_ns < t1 -> enclosing up
        | stack -> stack
      in
      let stack = enclosing stack in
      let s =
        make name t0 t1 (match stack with p :: _ -> p.id | [] -> -1)
      in
      nest (s :: stack) (s :: acc) rest
  in
  let spans = nest [] [] evs in
  let rec canonical = function
    | a :: (b :: _ as rest) ->
      if a.name = "dpor.replay" && b.name = "dpor.dedup" && a.parent = b.parent
      then make "dpor.canonical" a.stop_ns b.start_ns a.parent :: canonical rest
      else canonical rest
    | _ -> []
  in
  let by_parent = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.add by_parent s.parent s) spans;
  let siblings p =
    List.sort (fun a b -> compare a.start_ns b.start_ns) (Hashtbl.find_all by_parent p)
  in
  let parents = List.sort_uniq compare (List.map (fun s -> s.parent) spans) in
  spans @ List.concat_map (fun p -> canonical (siblings p)) parents

let dur s = s.stop_ns - s.start_ns

(* The per-layer time metrics and the spans each sums: calls the workload
   makes into a layer, so only spans no other span encloses count. *)
let span_metrics =
  [
    "dpor.walk_s", [ "dpor.prefixes" ];
    "dpor.canonical_s", [ "dpor.canonical" ];
    "dpor.dedup_s", [ "dpor.dedup" ];
    "explore.replay_s", [ "dpor.replay"; "explore.run_all"; "game.replay" ];
    "explore.sched_gen_s", [ "explore.sched_gen" ];
    "explore.distinct_s", [ "explore.distinct" ];
    "stack.s", [ "stack" ];
    "kv.s", [ "kv" ];
    "crash.s", [ "crash" ];
    "litmus.s", [ "litmus" ];
  ]

let layer_spans = List.concat_map snd span_metrics
let top spans = List.filter (fun s -> s.parent = -1) spans

let top_s spans names =
  secs
    (List.fold_left
       (fun n s -> if List.mem s.name names then n + dur s else n)
       0 (top spans))

(* Self time of each span name: its spans' time minus their children's. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0 in
      Hashtbl.replace child s.parent (c + dur s))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = dur s - Option.value (Hashtbl.find_opt child s.id) ~default:0 in
      let t = Option.value (Hashtbl.find_opt self s.name) ~default:0 in
      Hashtbl.replace self s.name (t + own))
    spans;
  Hashtbl.fold (fun name t acc -> (name, secs t) :: acc) self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"run\":%d}\n"
        s.id s.name s.start_ns s.stop_ns s.parent s.run)
    (List.sort (fun a b -> compare (a.run, a.start_ns) (b.run, b.start_ns)) spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* A verdict: the named answers and counts pinned per workload. *)
type verdict = (string * string) list

type instance = {
  run : unit -> verdict;  (** the checker calls on the plain underlay *)
  run_traced : unit -> verdict * (string * float) list;
      (** the same calls on the wrapped underlay, with the per-layer
          counts read from their results *)
  warm : unit -> unit;  (** the warm-up that completes set-up *)
}

type workload = {
  name : string;
  expected : verdict;
  setup : seed:int -> instance;
  client_ops : int;  (** client map operations per run (0: not a kv workload) *)
  cache_leg : (dir:string -> verdict list * (string * float) list) option;
      (** traced runs only: the corpus against a fresh certificate cache
          in [dir], cold and then warm *)
}

let vi = Value.int
let count n = string_of_int n
let seq_ctx ?strategy () = V.Ctx.make ~jobs:1 ?strategy ()

(* Thread ids come from the seed.  The lock games are symmetric in their
   tids, so renaming them changes the inputs but not the pinned counts. *)
let tids ~seed n =
  let base = 1 + (Sched.splitmix seed mod 1000) in
  List.init n (fun k -> base + k)

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let all_done outcomes =
  List.length
    (List.filter (fun (o : Game.outcome) -> o.Game.status = Game.All_done) outcomes)

let logs outcomes = List.map (fun (o : Game.outcome) -> o.Game.log) outcomes

(* The counts of the games a traced run played, read from their outcomes. *)
let game_counts outcomes =
  let sum f = float_of_int (List.fold_left (fun n o -> n + f o) 0 outcomes) in
  [
    "explore.games", float_of_int (List.length outcomes);
    "game.steps", sum (fun (o : Game.outcome) -> o.Game.steps);
    "log.events", sum (fun (o : Game.outcome) -> Log.length o.Game.log);
  ]

let dpor_counts (r : V.Dpor.result) =
  let s = r.V.Dpor.stats in
  [
    "dpor.prefixes", float_of_int (List.length r.V.Dpor.prefixes);
    "dpor.sleep_prunes", float_of_int s.V.Dpor.sleep_set_prunes;
    "dpor.run_ratio", ratio s.V.Dpor.schedules_run s.V.Dpor.schedules_considered;
    "dpor.distinct_logs", float_of_int s.V.Dpor.distinct_logs;
    "dpor.distinct_ratio", ratio s.V.Dpor.distinct_logs s.V.Dpor.schedules_run;
  ]

(* dpor-ticket4: the ticket lock over L0, 4 threads, depth 6, object-based
   independence -- the engines-table game two levels shallower, so that a
   run takes about 0.3 s, its heap stays small and a measurement holds many
   runs. *)
let dpor_ticket4 =
  let depth = 6 and nthreads = 4 in
  let engine = Engine.dpor ~depth in
  let independence = V.Dpor.Commuting_events in
  let verdict ~runs ~considered ~sleep_skips ~distinct ~all_done =
    [
      "runs", count runs;
      "considered", count considered;
      "sleep_skips", count sleep_skips;
      "distinct_logs", count distinct;
      "all_done", count all_done;
    ]
  in
  let setup ~seed =
    let m = Ccal_objects.Ticket_lock.c_module () in
    let layer = Ccal_objects.Ticket_lock.l0 () in
    let threads =
      List.map
        (fun i -> i, Prog.Module.link m (lock_client i))
        (tids ~seed nthreads)
    in
    let ctx = seq_ctx ~strategy:engine () in
    let explore ~depth layer =
      Underlay.call ~walk:true (fun () ->
          V.Budget.value
            (V.Dpor.explore_ctx ~ctx ~independence ~engine ~depth layer threads))
    in
    let verdict_of (r : V.Dpor.result) =
      let s = r.V.Dpor.stats in
      verdict ~runs:s.V.Dpor.schedules_run
        ~considered:s.V.Dpor.schedules_considered
        ~sleep_skips:s.V.Dpor.sleep_set_prunes ~distinct:s.V.Dpor.distinct_logs
        ~all_done:(all_done r.V.Dpor.outcomes)
    in
    let traced = Underlay.wrap layer in
    {
      run = (fun () -> verdict_of (explore ~depth layer));
      run_traced =
        (fun () ->
          let r = explore ~depth traced in
          verdict_of r, dpor_counts r @ game_counts r.V.Dpor.outcomes);
      warm = (fun () -> ignore (explore ~depth:(depth - 1) layer));
    }
  in
  {
    name = "dpor-ticket4";
    expected =
      verdict ~runs:3148 ~considered:4096 ~sleep_skips:516 ~distinct:3145
        ~all_done:3148;
    setup;
    client_ops = 0;
    cache_leg = None;
  }

(* oracle-llock5: the work of [ccal explore lock --threads 5 --depth 6] --
   DPOR, the exhaustive oracle over every schedule, and the log-set
   agreement check, on the atomic Llock interface. *)
let oracle_llock5 =
  let depth = 6 and nthreads = 5 in
  let engine = Engine.dpor ~depth in
  let independence = V.Dpor.Exact in
  let agree a b =
    let subset a b = List.for_all (fun l -> List.exists (Log.equal l) b) a in
    subset a b && subset b a
  in
  let verdict ~dpor_runs ~dpor_distinct ~exh_runs ~exh_distinct ~agree =
    [
      "dpor_runs", count dpor_runs;
      "dpor_distinct_logs", count dpor_distinct;
      "exhaustive_runs", count exh_runs;
      "exhaustive_distinct_logs", count exh_distinct;
      "log_sets", (if agree then "agree" else "disagree");
    ]
  in
  let setup ~seed =
    let layer = Ccal_objects.Lock_intf.layer "Llock" in
    let all_threads =
      List.map (fun i -> i, lock_client i) (tids ~seed nthreads)
    in
    let ctx = seq_ctx () in
    let oracle ~threads ~depth layer =
      let dpor =
        Underlay.call ~walk:true (fun () ->
            V.Budget.value
              (V.Dpor.explore_ctx ~ctx ~independence ~engine ~depth layer threads))
      in
      let scheds =
        Probe.span "explore.sched_gen" (fun () ->
            let pseudo = Game.pseudo_threads ~memory:Memory.Sc layer threads in
            V.Explore.exhaustive_scheds ~tids:(List.map fst (threads @ pseudo))
              ~depth)
      in
      let exh =
        Underlay.call ~walk:false (fun () ->
            V.Budget.value (V.Explore.run_all_ctx ~ctx layer threads scheds))
      in
      let dpor_logs, exh_logs, agreed =
        Probe.span "explore.distinct" (fun () ->
            let dpor_logs = Log.dedup (logs dpor.V.Dpor.outcomes) in
            let exh_logs = Log.dedup (V.Explore.all_logs exh) in
            dpor_logs, exh_logs, agree dpor_logs exh_logs)
      in
      ( verdict ~dpor_runs:dpor.V.Dpor.stats.V.Dpor.schedules_run
          ~dpor_distinct:(List.length dpor_logs) ~exh_runs:(List.length exh)
          ~exh_distinct:(List.length exh_logs) ~agree:agreed,
        dpor_counts dpor
        @ game_counts (dpor.V.Dpor.outcomes @ exh)
        @ [ "explore.distinct_logs", float_of_int (List.length exh_logs) ] )
    in
    let traced = Underlay.wrap layer in
    {
      run = (fun () -> fst (oracle ~threads:all_threads ~depth layer));
      run_traced = (fun () -> oracle ~threads:all_threads ~depth traced);
      warm =
        (fun () ->
          let threads = List.filteri (fun k _ -> k < 4) all_threads in
          ignore (oracle ~threads ~depth:(depth - 1) layer));
    }
  in
  {
    name = "oracle-llock5";
    expected =
      verdict ~dpor_runs:200 ~dpor_distinct:78 ~exh_runs:15625
        ~exh_distinct:78 ~agree:true;
    setup;
    client_ops = 0;
    cache_leg = None;
  }

(* kv-ycsb: the YCSB-style game over the sharded hash table, played under
   round-robin and under one seeded random scheduler. *)
let kv_ycsb =
  let shards = 4 and nthreads = 4 and ops = 150 and keyspace = 1024 in
  let read_pct = 50 and max_steps = 5_000_000 in
  let verdict outcomes =
    [
      "plays", count (List.length outcomes);
      "all_done", count (all_done outcomes);
      ( "events",
        count
          (List.fold_left
             (fun n (o : Game.outcome) -> n + Log.length o.Game.log)
             0 outcomes) );
    ]
  in
  let setup ~seed =
    let layer, threads =
      Ccal_kv.Kv_stack.ycsb_game ~seed ~shards ~threads:nthreads ~read_pct ~ops
        ~keyspace ()
    in
    let play layer threads sched =
      Probe.span "game.replay" (fun () ->
          Game.replay (Game.config ~max_steps layer threads sched))
    in
    let plays layer =
      Underlay.call ~walk:false (fun () ->
          List.map (play layer threads) [ Sched.round_robin; Sched.random ~seed ])
    in
    let traced = Underlay.wrap layer in
    let warm () =
      let layer, threads =
        Ccal_kv.Kv_stack.ycsb_game ~seed ~shards ~threads:nthreads ~read_pct
          ~ops:(ops / 5) ~keyspace ()
      in
      ignore (play layer threads Sched.round_robin)
    in
    {
      run = (fun () -> verdict (plays layer));
      run_traced =
        (fun () ->
          let outcomes = plays traced in
          verdict outcomes, game_counts outcomes);
      warm;
    }
  in
  {
    name = "kv-ycsb";
    expected = [ "plays", "2"; "all_done", "2"; "events", "4800" ];
    setup;
    client_ops = 2 * nthreads * ops;
    cache_leg = None;
  }

(* certify-corpus: the certificate kinds [make check] runs -- the layer
   stack for {ticket, mcs} x {SC, TSO}, the kv edges, crash refinement
   with its unsynced negative control, and the litmus suite. *)
let certify_corpus =
  let strategy = Engine.dpor ~depth:8 in
  let crash_strategy = Engine.dpor ~depth:10 in
  let stacks =
    [
      `Ticket, Memory.Sc, "ticket.sc";
      `Ticket, Memory.Tso, "ticket.tso";
      `Mcs, Memory.Sc, "mcs.sc";
      `Mcs, Memory.Tso, "mcs.tso";
    ]
  in
  let crash_edges () =
    [
      Ccal_disk.Wal.crash_edge ~threads:3 ();
      Ccal_disk.Durable_kv.crash_edge ~threads:3 ();
    ]
  in
  let unsynced_edges () = [ Ccal_disk.Wal.crash_edge ~threads:3 ~unsynced:true () ] in
  (* One pass over the corpus: the verdict, and the counts the per-layer
     metrics report. *)
  let corpus ?cache ~edges ~unsynced () =
    let ctx ?strategy () =
      let c = seq_ctx ?strategy () in
      match cache with None -> c | Some k -> V.Ctx.with_cache k c
    in
    let stack =
      List.map
        (fun (lock, memory, label) ->
          let outcome =
            Probe.span "stack" (fun () ->
                V.Stack.verify_all_ctx
                  ~ctx:(V.Ctx.with_memory memory (ctx ()))
                  ~lock ~strategy ())
          in
          ( "stack." ^ label,
            match outcome with
            | V.Budget.Complete (Ok { V.Stack.completed; next_edge = None }) ->
              completed.V.Stack.total_checks
            | _ -> -1 ))
        stacks
    in
    let kv =
      match
        Probe.span "kv" (fun () ->
            Ccal_kv.Kv_stack.verify_ctx ~ctx:(ctx ~strategy ()) ~threads:4 ())
      with
      | V.Budget.Complete (Ok r) -> r.Ccal_kv.Kv_stack.total_checks
      | _ -> -1
    in
    let recoveries, unsynced_failure =
      Probe.span "crash" (fun () ->
          let ctx = ctx ~strategy:crash_strategy () in
          ( (match V.Crash.check_ctx ~ctx edges with
            | V.Budget.Complete (Ok r) -> r.V.Crash.total_recoveries
            | _ -> -1),
            match V.Crash.check_ctx ~ctx unsynced with
            | V.Budget.Complete (Error f) ->
              Printf.sprintf "%s@%d" f.V.Crash.f_sched f.V.Crash.f_index
            | _ -> "certified" ))
    in
    let litmus = Probe.span "litmus" (fun () -> V.Litmus.run_both ~ctx:(ctx ()) ()) in
    let ok which = List.length (List.filter (fun p -> V.Litmus.ok (which p)) litmus) in
    let verdict =
      List.map (fun (k, n) -> k, count n) stack
      @ [
          "kv.checks", count kv;
          "crash.recoveries", count recoveries;
          "crash.unsynced", unsynced_failure;
          "litmus.sc_ok", count (ok fst);
          "litmus.tso_ok", count (ok snd);
        ]
    in
    ( verdict,
      [
        "stack.checks", float_of_int (List.fold_left (fun n (_, c) -> n + c) 0 stack);
        "kv.checks", float_of_int kv;
        "crash.recoveries", float_of_int recoveries;
        "litmus.conforming", float_of_int (ok fst + ok snd);
      ] )
  in
  let setup ~seed:_ =
    let edges = crash_edges () and unsynced = unsynced_edges () in
    let traced = List.map Recover.wrap edges in
    let traced_unsynced = List.map Recover.wrap unsynced in
    {
      run = (fun () -> fst (corpus ~edges ~unsynced ()));
      run_traced = (fun () -> corpus ~edges:traced ~unsynced:traced_unsynced ());
      warm = (fun () -> ignore (V.Litmus.run_both ~ctx:(seq_ctx ()) ()));
    }
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let cache_leg ~dir =
    rm_rf dir;
    let cache = V.Cache.create ~dir () in
    let pass () =
      let t0 = now_ns () in
      let v, _ = corpus ~cache ~edges:(crash_edges ()) ~unsynced:(unsynced_edges ()) () in
      v, secs (now_ns () - t0)
    in
    let cold, cold_s = pass () in
    let warm, warm_s = pass () in
    let session = V.Cache.session_stats cache in
    let disk = V.Cache.disk_stats cache in
    rm_rf dir;
    ( [ cold; warm ],
      [
        "cache.cold_s", cold_s;
        "cache.warm_s", warm_s;
        "cache.hits", float_of_int session.V.Cache.hits;
        "cache.misses", float_of_int session.V.Cache.misses;
        "cache.bytes", float_of_int disk.V.Cache.bytes;
      ] )
  in
  {
    name = "certify-corpus";
    expected =
      [
        "stack.ticket.sc", "409";
        "stack.ticket.tso", "409";
        "stack.mcs.sc", "409";
        "stack.mcs.tso", "409";
        "kv.checks", "2845";
        "crash.recoveries", "42524";
        "crash.unsynced", "dpor:[1,1,1,1,1,1,1,1,1,2]@7";
        "litmus.sc_ok", "9";
        "litmus.tso_ok", "9";
      ];
    setup;
    client_ops = 0;
    cache_leg = Some cache_leg;
  }

let workloads = [ dpor_ticket4; oracle_llock5; kv_ycsb; certify_corpus ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* The metric names and units, in the order BENCHMARK.json lists them;
   every run reports each one. *)
let end_to_end = [ "verdict_s", "s"; "setup_s", "s"; "peak_rss_mb", "MB" ]

let per_layer =
  [
    "dpor.walk_s", "s";
    "dpor.prefixes", "count";
    "dpor.sleep_prunes", "count";
    "dpor.run_ratio", "ratio";
    "dpor.canonical_s", "s";
    "dpor.dedup_s", "s";
    "dpor.distinct_logs", "count";
    "dpor.distinct_ratio", "ratio";
    "explore.replay_s", "s";
    "explore.games", "count";
    "explore.sched_gen_s", "s";
    "explore.distinct_s", "s";
    "explore.distinct_logs", "count";
    "game.steps", "count";
    "game.minor_words", "words";
    "game.nonprim_s", "s";
    "log.events", "count";
    "gc.major_collections", "count";
  ]
  (* The primitive layers of the workloads' underlays: L0_ticket under
     dpor-ticket4, Llock under oracle-llock5 and kv-ycsb.  A metric of a
     layer or phase that a workload never calls reads 0. *)
  @ List.concat_map
      (fun p ->
        [
          p ^ ".calls", "count";
          p ^ ".s", "s";
          p ^ ".log_events", "count";
          p ^ ".blocked", "count";
          p ^ ".useful_ratio", "ratio";
        ])
      [ "prim.l0_ticket"; "prim.llock" ]
  @ [
      "stack.s", "s";
      "stack.checks", "count";
      "kv.s", "s";
      "kv.checks", "count";
      "crash.s", "s";
      "crash.recoveries", "count";
      "disk.recover_s", "s";
      "disk.recover_calls", "count";
      "litmus.s", "s";
      "litmus.conforming", "count";
      "cache.cold_s", "s";
      "cache.warm_s", "s";
      "cache.hits", "count";
      "cache.misses", "count";
      "cache.bytes", "bytes";
      "trace.verdict_s", "s";
      "trace.overhead", "ratio";
      "trace.coverage", "ratio";
    ]

(* The per-layer metrics of one traced run that come from its spans and
   from the wrapped closures; [counts] are those read from its results. *)
let traced_metrics ~spans ~counts =
  let replay_s = top_s spans [ "dpor.replay"; "explore.run_all"; "game.replay" ] in
  let prim =
    if !Underlay.name = "" then []
    else
      let p = !Underlay.name and g = Underlay.game in
      let steps = int_of_float (Option.value (List.assoc_opt "game.steps" counts) ~default:0.) in
      [
        p ^ ".calls", float_of_int g.calls;
        p ^ ".s", secs g.ns;
        p ^ ".log_events", float_of_int g.log_events;
        p ^ ".blocked", float_of_int g.blocked;
        p ^ ".useful_ratio", ratio steps g.calls;
        "game.nonprim_s", replay_s -. secs g.ns;
        "game.minor_words", !Underlay.gap_words /. float_of_int (max 1 !Underlay.gaps);
      ]
  in
  let recover =
    if !Recover.calls = 0 then []
    else [ "disk.recover_s", secs !Recover.ns; "disk.recover_calls", float_of_int !Recover.calls ]
  in
  List.map (fun (m, names) -> m, top_s spans names) span_metrics @ prim @ recover

(* What a traced run observed in two independent ways must agree: the
   probe's counters against the results' counts, and the games the
   wrapped underlay saw start against the games played.  Each pair is
   (what, observed, expected). *)
let consistency ~counts =
  let result name = Option.map int_of_float (List.assoc_opt name counts) in
  let pair what observed name =
    match result name with Some n -> [ what, observed, n ] | None -> []
  in
  pair "probe schedules_run" (Probe.get "schedules_run") "explore.games"
  @ pair "probe sleep_set_prunes" (Probe.get "sleep_set_prunes") "dpor.sleep_prunes"
  @ pair "probe logs_distinct" (Probe.get "logs_distinct") "dpor.distinct_logs"
  @
  if !Underlay.name = "" then []
  else pair "underlay game starts" !Underlay.games "explore.games"

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_number x = Printf.sprintf "%.12g" x

let json_metrics units values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (json_number (List.assoc name values))
           unit)
       units)

(* Repeat [f] until about [seconds] have passed: a run starts only when
   it is expected to end within the budget, but at least [min_runs] are
   made.  Each run starts on a collected heap. *)
let repeat ~seconds ~min_runs f =
  let t0 = now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let rec go acc n =
    let elapsed = now_ns () - t0 in
    if n >= min_runs && (n = 0 || elapsed + (elapsed / n) > budget) then
      List.rev acc
    else begin
      Gc.full_major ();
      let r = f n in
      go (r :: acc) (n + 1)
    end
  in
  go [] 0

let timed f =
  let t0 = now_ns () in
  let r = f () in
  r, secs (now_ns () - t0)

(* Processor time of the process, which excludes time spent waiting for a
   CPU, and wall time, of one call. *)
let cpu_timed f =
  let c0 = Sys.time () and t0 = now_ns () in
  let r = f () in
  r, Sys.time () -. c0, secs (now_ns () - t0)

(* Host speed.  Runs and set-ups are timed in processor time, which leaves
   out the time the process waits for a CPU that other processes or other
   guests hold.  What it still contains is how fast the CPU runs while it
   is ours, and on a shared host cache and core sharing change that by
   tens of percent for seconds to minutes at a time, far more than a run's
   own noise.  So a fixed reference unit -- allocation, maps, hashing and
   polymorphic compare on the standard library alone, none of this
   repository's code -- is timed right before and after every timed run
   and set-up, and each time is scaled by [nominal_s /. mean of the units
   around it]: it reads as processor seconds on a host where the unit
   takes [nominal_s], about its time on a quiet 2-vCPU Xeon.  The
   unscaled processor and wall times are printed beside the scaled ones. *)
module Host = struct
  module IM = Map.Make (Int)

  let nominal_s = 0.03

  (* Unit, set-up and run times in the order they were taken. *)
  let trail = ref []
  let record kind s = trail := (kind, s) :: !trail

  (* Two halves: map and hash-table work on ints, then closures,
     polymorphic compare and hashing over small variants and lists. *)
  let unit () =
    Gc.full_major ();
    let c0 = Sys.time () in
    let acc = ref 0 in
    let l = List.init 25_000 (fun i -> i, [ i; 1 ]) in
    let m =
      List.fold_left (fun m (k, v) -> IM.add ((k * 7919) land 0xfffff) v m) IM.empty l
    in
    let h = Hashtbl.create 1024 in
    List.iter (fun (k, v) -> Hashtbl.replace h (k land 0xffff) v) (List.rev l);
    acc := IM.cardinal m + Hashtbl.length h;
    for r = 1 to 4 do
      let l = List.init 6_000 (fun i -> if i mod 3 = 0 then `A (i * r) else `B [ i; r; i * r ]) in
      let f = List.map (function `A n -> `B [ n ] | `B l -> `A (List.length l)) in
      let l = f l @ f (List.rev l) in
      let h = Hashtbl.create 64 in
      List.iter (fun k -> Hashtbl.replace h k (Hashtbl.hash k)) l;
      acc := !acc + Hashtbl.length h + List.length (List.sort_uniq compare l)
    done;
    ignore (Sys.opaque_identity !acc);
    record "unit" (Sys.time () -. c0)

  let sample n =
    for _ = 1 to n do
      unit ()
    done

  let times kind = List.rev (List.filter_map (fun (k, s) -> if k = kind then Some s else None) !trail)
  let unit_s () = median (times "unit")

  (* Units to time before each run: about a tenth of a run's time. *)
  let per_run ~run_s =
    max 1 (min 8 (int_of_float (Float.round (0.1 *. run_s /. unit_s ()))))

  (* The times of [kind], each scaled by the units next to it; every run
     and set-up has units on both sides. *)
  let scaled kind =
    let a = Array.of_list (List.rev !trail) in
    let rec units j step acc =
      if j < 0 || j >= Array.length a || fst a.(j) <> "unit" then acc
      else units (j + step) step (snd a.(j) :: acc)
    in
    List.concat
      (List.mapi
         (fun i (k, s) ->
           if k <> kind then []
           else
             let us = units (i - 1) (-1) (units (i + 1) 1 []) in
             let mean = List.fold_left ( +. ) 0. us /. float_of_int (List.length us) in
             [ s *. nominal_s /. mean ])
         (Array.to_list a))
end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Set-ups per process: at least [min_setups], then more until
   [setup_budget_s] is spent, so that short set-ups are sampled often. *)
let min_setups = 5
let max_setups = 60
let setup_budget_s = 2.

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--commit ID] [--out DIR]";
  exit 2

type traced = {
  t_s : float;
  coverage : float;
  metrics : (string * float) list;
  selfs : (string * float) list;
  outside : (string * float) list;  (** wrapped-closure time, by layer *)
  uncovered : (string * float) list;  (** top spans of no named layer *)
}

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      Hashtbl.replace args flag value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg ?default flag =
    match Hashtbl.find_opt args flag, default with
    | Some v, _ | None, Some v -> v
    | None, None -> usage ()
  in
  let int_arg flag =
    match int_of_string_opt (arg flag) with Some n -> n | None -> usage ()
  in
  let name = arg "--workload" in
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (expected %s)\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let seed = int_arg "--seed" in
  let seconds = float_of_int (int_arg "--seconds") in
  let traced = int_arg "--trace" = 1 in
  let commit = arg ~default:"unknown" "--commit" in
  let out = arg ~default:".bench_out" "--out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let wrong = ref 0 and attempted = ref 0 in
  (* Every verdict -- untraced, traced, cold or warm cache -- must equal
     the pinned answer exactly. *)
  let check v =
    incr attempted;
    if v <> w.expected then begin
      incr wrong;
      Printf.eprintf "wrong verdict on %s: %s\n" w.name
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) v))
    end
  in
  let run_once (inst : instance) =
    let v, c, s = cpu_timed inst.run in
    check v;
    c, s
  in
  (* One full run on an instance of its own before anything is timed, its
     verdict checked and its time unused: the first run in a process grows
     the heap to its working size, and set-ups and runs then all start
     from that heap. *)
  let warm_s, _ = run_once (w.setup ~seed) in
  Host.record "warm-up" warm_s;
  (* Set-up, several times, each after a reference unit; the last
     instance is measured. *)
  let setup_times, inst =
    let t0 = now_ns () in
    let rec go k acc =
      Host.unit ();
      Gc.full_major ();
      let inst, c, s =
        cpu_timed (fun () ->
            let inst = w.setup ~seed in
            inst.warm ();
            inst)
      in
      Host.record "setup" c;
      let spent = secs (now_ns () - t0) in
      if k + 1 >= max_setups || (k + 1 >= min_setups && spent >= setup_budget_s)
      then List.rev (s :: acc), inst
      else go (k + 1) (s :: acc)
    in
    let r = go 0 [] in
    Host.unit ();
    r
  in
  let setups = List.length setup_times in
  let untraced_run _ = run_once inst in
  let all_spans = ref [] in
  let traced_run k =
    Probe.reset ();
    Underlay.reset ();
    Recover.reset ();
    let major0 = (Gc.quick_stat ()).Gc.major_collections in
    Probe.enable ();
    let (v, counts), s = timed inst.run_traced in
    Probe.disable ();
    let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
    check v;
    List.iter
      (fun (what, observed, expected) ->
        if observed <> expected then begin
          incr wrong;
          Printf.eprintf "traced run %d on %s: %s is %d, the result says %d\n"
            (k + 1) w.name what observed expected
        end)
      (consistency ~counts);
    let spans = run_spans ~run:(k + 1) in
    all_spans := spans @ !all_spans;
    let covered = top_s spans layer_spans in
    let uncovered =
      List.filter (fun (s : span) -> not (List.mem s.name layer_spans)) (top spans)
      |> List.map (fun (s : span) -> s.name, secs (dur s))
    in
    let outside =
      (if !Underlay.name = "" then []
       else
         (!Underlay.name ^ " (in games)", secs Underlay.game.ns)
         ::
         (if Underlay.walk.calls = 0 then []
          else [ !Underlay.name ^ " (in the DPOR walk)", secs Underlay.walk.ns ]))
      @ if !Recover.calls = 0 then [] else [ "disk.recover", secs !Recover.ns ]
    in
    {
      t_s = s;
      coverage = covered /. s;
      metrics =
        (("gc.major_collections", float_of_int major) :: counts)
        @ traced_metrics ~spans ~counts;
      selfs = self_times spans;
      outside;
      uncovered;
    }
  in
  (* The result file also records every unit, set-up and run time. *)
  let provenance ?(samples = false) ~runs () =
    Printf.sprintf
      "{\"workload\": %S, \"commit\": %S, \"nproc\": %d, \"ocaml\": %S, \
       \"jobs\": 1, \"seed\": %d, \"runs\": %d, \"setups\": %d, \"trace\": %b, \
       \"host_units\": %d, \"host_unit_s\": %s%s}"
      w.name commit
      (Domain.recommended_domain_count ())
      Sys.ocaml_version seed runs setups traced
      (List.length (Host.times "unit"))
      (json_number (Host.unit_s ()))
      (if not samples then ""
       else
         Printf.sprintf ", \"samples\": [%s]"
           (String.concat ", "
              (List.rev_map
                 (fun (k, s) -> Printf.sprintf "[%S, %s]" k (json_number s))
                 !Host.trail)))
  in
  let print_metric (name, unit) value note =
    Printf.printf "%-28s %s %s%s\n" name (json_number value) unit note
  in
  let finish ~runs ~units ~values ~ok =
    let correct = ok && !wrong = 0 in
    let result =
      Printf.sprintf
        "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
        correct !attempted !wrong (json_metrics units values)
    in
    let path =
      Filename.concat out
        (Printf.sprintf "result-%s-trace%d.json" w.name (if traced then 1 else 0))
    in
    let oc = open_out path in
    Printf.fprintf oc "{\"provenance\": %s,\n \"result\": %s}\n"
      (provenance ~samples:true ~runs ()) result;
    close_out oc;
    print_endline result
  in
  Printf.printf "workload %s seed %d trace %d\n" w.name seed
    (if traced then 1 else 0);
  if not traced then begin
    (* Reference units before each run and after the last. *)
    let per_run = Host.per_run ~run_s:warm_s in
    let times =
      repeat ~seconds ~min_runs:3 (fun n ->
          Host.sample per_run;
          Gc.full_major ();
          let c, s = untraced_run n in
          Host.record "run" c;
          s)
    in
    Host.sample per_run;
    let runs = List.length times in
    let verdict_s = median (Host.scaled "run") in
    let values =
      [
        "verdict_s", verdict_s;
        "setup_s", median (Host.scaled "setup");
        "peak_rss_mb", peak_rss_mb ();
      ]
    in
    Printf.printf "provenance %s\n" (provenance ~runs ());
    List.iter
      (fun ((name, _) as m) ->
        print_metric m (List.assoc name values)
          (match name with
          | "verdict_s" ->
            Printf.sprintf
              " (median of %d scaled runs after a warm-up run; cpu median %s s; wall median %s s: %s)"
              runs
              (json_number (median (Host.times "run")))
              (json_number (median times))
              (String.concat " " (List.map (Printf.sprintf "%.3f") times))
          | "setup_s" ->
            Printf.sprintf " (median of %d scaled set-ups; wall median %s s)" setups
              (json_number (median setup_times))
          | _ -> ""))
      end_to_end;
    print_metric ("host_unit_s", "s") (Host.unit_s ())
      (Printf.sprintf " (median of %d reference units; %.2f s nominal)"
         (List.length (Host.times "unit")) Host.nominal_s);
    if w.client_ops > 0 then
      print_metric ("kv_ops_per_s", "1/s")
        (float_of_int w.client_ops /. verdict_s)
        (Printf.sprintf " (%d client ops per run)" w.client_ops);
    print_metric ("wrong_verdicts", "share")
      (ratio !wrong !attempted)
      (Printf.sprintf " (%d of %d runs)" !wrong !attempted);
    finish ~runs ~units:end_to_end ~values ~ok:true
  end
  else begin
    let pairs =
      repeat ~seconds ~min_runs:2 (fun k ->
          let _, plain = untraced_run k in
          Gc.full_major ();
          plain, traced_run k)
    in
    let runs = List.length pairs in
    let plain_s = median (List.map fst pairs) in
    let traced_s = median (List.map (fun (_, t) -> t.t_s) pairs) in
    (* The per-layer numbers come from the median traced run, so that its
       coverage and its metrics describe the same run. *)
    let t =
      let sorted = List.sort (fun a b -> compare a.t_s b.t_s) (List.map snd pairs) in
      List.nth sorted ((runs - 1) / 2)
    in
    let cache_metrics =
      match w.cache_leg with
      | None -> []
      | Some leg ->
        let verdicts, metrics = leg ~dir:(Filename.concat out "cache") in
        List.iter check verdicts;
        metrics
    in
    let values =
      t.metrics @ cache_metrics
      @ [
          "trace.verdict_s", traced_s;
          "trace.overhead", (traced_s /. plain_s) -. 1.;
          "trace.coverage", t.coverage;
        ]
    in
    let values =
      List.map
        (fun (name, _) ->
          name, Option.value (List.assoc_opt name values) ~default:0.)
        per_layer
    in
    let covered = t.coverage >= 0.9 && t.coverage <= 1.1 in
    Printf.printf "provenance %s\n" (provenance ~runs ());
    List.iter (fun ((name, _) as m) -> print_metric m (List.assoc name values) "") per_layer;
    Printf.printf "self time of each span in the median traced run (%.4f s):\n" t.t_s;
    List.iter (fun (name, s) -> Printf.printf "  %-26s %.6f s\n" name s) t.selfs;
    List.iter
      (fun (name, s) -> Printf.printf "  wrapped: %-32s %.6f s\n" name s)
      t.outside;
    List.iter
      (fun (name, s) -> Printf.printf "  uncovered span: %-20s %.6f s\n" name s)
      t.uncovered;
    Printf.printf "untraced verdict_s %s s, traced %s s: tracing overhead %.1f%%\n"
      (json_number plain_s) (json_number traced_s)
      (100. *. ((traced_s /. plain_s) -. 1.));
    Printf.printf
      "coverage: the named layer calls take %.1f%% of the traced verdict_s (%s)\n"
      (100. *. t.coverage)
      (if covered then "ok, within 10%" else "FAILED, not within 10%");
    print_metric ("wrong_verdicts", "share")
      (ratio !wrong !attempted)
      (Printf.sprintf " (%d of %d runs)" !wrong !attempted);
    write_spans (Filename.concat out (Printf.sprintf "spans-%s.jsonl" w.name)) !all_spans;
    finish ~runs ~units:per_layer ~values ~ok:covered
  end
