(* The sleep-set DPOR explorer against the exhaustive oracle.

   The tentpole property: for every benchmark game, the set of logs reached
   by replaying the DPOR prefixes equals the set reached by exhaustive
   enumeration at the same depth — DPOR only skips schedules whose logs are
   already covered.  Under [Exact] independence the raw log sets must match;
   under [Commuting_events] they match up to canonical reordering of
   commuting events (Mazurkiewicz traces).  Every comparison goes through
   [Explore.oracle_ctx], the one the CLI runs.

   Plus: scheduler coverage properties ([Sched.of_trace], [Sched.biased],
   [Sched.splitmix]) and the regression for race classification — a stuck
   message merely *containing* "race" must not be reported as a data race
   now that the verdict rides on [Layer.stuck_kind]. *)
open Ccal_core
open Ccal_objects
open Util
module V = Ccal_verify

(* ---- the equivalence harness ---- *)

module E = V.Ctx.Engine

let sym_engine ~depth = { (E.dpor ~depth) with E.sym = true }

let explore_with ?independence ~engine layer threads depth =
  V.Budget.value
    (V.Dpor.explore_ctx ~ctx:V.Ctx.default ?independence ~engine ~depth layer
       threads)

let oracle ?(independence = V.Dpor.Exact) ~sym layer threads depth r =
  V.Budget.value
    (V.Explore.oracle_ctx ~ctx:V.Ctx.default ~independence ~sym ~depth layer
       threads r)

(* Run DPOR and the exhaustive oracle at equal depth; fail unless the
   (canonicalized) distinct-log sets coincide, sizes included.  Returns
   the DPOR stats so callers can also assert pruning. *)
let check_equiv ?independence layer threads depth =
  let r =
    explore_with ?independence ~engine:(E.dpor ~depth) layer threads depth
  in
  check_bool "log sets equal" true
    (oracle ?independence ~sym:false layer threads depth r).V.Explore.agree;
  r.V.Dpor.stats

let lock_client i =
  Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ ->
      Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (Prog.ret (vi i)))

let queue_client i =
  Prog.bind (Prog.call "enQ_s" [ vi 0; vi (10 * i) ]) (fun _ ->
      Prog.call "deQ_s" [ vi 0 ])

let ticket_threads n =
  let m = Ticket_lock.c_module () in
  List.init n (fun k -> k + 1, Prog.Module.link m (lock_client (k + 1)))

let mcs_threads n =
  let m = Mcs_lock.c_module () in
  List.init n (fun k -> k + 1, Prog.Module.link m (lock_client (k + 1)))

let queue_threads n =
  let m =
    Ccal_clight.Csem.module_of_fns [ Queue_shared.deq_fn; Queue_shared.enq_fn ]
  in
  List.init n (fun k -> k + 1, Prog.Module.link m (queue_client (k + 1)))

let test_ticket_2t () =
  ignore (check_equiv (Ticket_lock.l0 ()) (ticket_threads 2) 4)

let test_ticket_3t () =
  ignore (check_equiv (Ticket_lock.l0 ()) (ticket_threads 3) 3)

let test_ticket_2t_commuting () =
  ignore
    (check_equiv ~independence:V.Dpor.Commuting_events (Ticket_lock.l0 ())
       (ticket_threads 2) 4)

let test_mcs_2t () = ignore (check_equiv (Mcs_lock.l0 ()) (mcs_threads 2) 4)
let test_mcs_3t () = ignore (check_equiv (Mcs_lock.l0 ()) (mcs_threads 3) 3)

let test_queue_2t () =
  ignore (check_equiv (Queue_shared.underlay ()) (queue_threads 2) 4)

let test_queue_3t () =
  ignore (check_equiv (Queue_shared.underlay ()) (queue_threads 3) 3)

let test_queue_overlay_3t () =
  let threads = List.init 3 (fun k -> k + 1, queue_client (k + 1)) in
  ignore
    (check_equiv ~independence:V.Dpor.Commuting_events
       (Queue_shared.overlay ()) threads 4)

let test_llock_pruning_bound () =
  (* the acceptance game: the atomic lock interface blocks contending
     threads outright, so branching collapses wherever the lock is held —
     DPOR must find every distinct log while running at most half (in fact
     18/243) of the exhaustive schedules *)
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  let stats = check_equiv (Lock_intf.layer "Llock") threads 5 in
  check_bool "ran at most half the schedules" true
    (2 * stats.V.Dpor.schedules_run <= stats.V.Dpor.schedules_considered);
  check_int "considered = 3^5" 243 stats.V.Dpor.schedules_considered;
  check_bool "pruned + run covers considered" true
    (stats.V.Dpor.schedules_pruned + stats.V.Dpor.schedules_run
    = stats.V.Dpor.schedules_considered)

(* ---- equivalence on the newer objects ----

   The original corpus only exercised locks and queues; these pin the
   oracle equality on the games with qualitatively different branching:
   store buffers (TSO's silent commits), generation-counted blocking
   (barrier), asymmetric sharing (rwlock readers vs writers), and
   sleep/wakeup through the scheduler (condvar, IPC). *)

let test_tso_store_buffering () =
  (* the SB litmus game: buffered stores commit lazily, so the log sets
     include interleavings SC never shows — DPOR must find them all *)
  let t i j =
    Prog.seq (Prog.call "astore" [ vi i; vi 1 ]) (Prog.call "aload" [ vi j ])
  in
  ignore (check_equiv (Ccal_machine.Tso.layer ()) [ 1, t 1 2; 2, t 2 1 ] 4)

let test_tso_fenced () =
  let t i j =
    Prog.seq_all
      [ Prog.call "astore" [ vi i; vi 1 ]; Prog.call "mfence" [];
        Prog.call "aload" [ vi j ] ]
  in
  ignore (check_equiv (Ccal_machine.Tso.layer ()) [ 1, t 1 2; 2, t 2 1 ] 4)

let test_barrier_2t () =
  let placement = [ 1, 1; 2, 2 ] in
  let layer = Barrier.underlay ~placement () in
  let m = Barrier.c_module () in
  let client i =
    Prog.Module.link m
      (Prog.seq_all
         [ Prog.call "bar_wait" [ vi 7; vi 2 ]; Prog.call "texit" [];
           Prog.ret (vi i) ])
  in
  ignore (check_equiv layer [ 1, client 1; 2, client 2 ] 4)

let test_rwlock_readers_writer () =
  (* the atomic overlay, not the spinning C implementation: the spin
     retry loop can phase-lock with [of_trace]'s round-robin degradation
     (the writer's turn always lands while a reader holds the underlay
     lock), so those games livelock to the fuel limit and the exhaustive
     oracle drowns in quadratic log replays *)
  let layer = Rwlock.overlay () in
  let reader =
    Prog.seq (Prog.call "acq_r" [ vi 4 ]) (Prog.call "rel_r" [ vi 4 ])
  in
  let writer =
    Prog.seq (Prog.call "acq_w" [ vi 4 ]) (Prog.call "rel_w" [ vi 4 ])
  in
  ignore (check_equiv layer [ 1, reader; 2, reader; 3, writer ] 4)

let test_condvar_sleep_wake () =
  let placement = [ 1, 0; 2, 2 ] in
  let layer = Thread_sched.mt_layer placement (Lock_intf.layer "Llock") in
  let m = Condvar.c_module () in
  let sleeper =
    Prog.seq
      (Prog.call "acq" [ vi 0 ])
      (Prog.seq
         (Prog.Module.link m (Prog.call "cv_wait" [ vi 9; vi 0; vi 0 ]))
         (Prog.call Thread_sched.exit_tag []))
  in
  let waker =
    Prog.seq
      (Prog.Module.link m (Prog.call "cv_signal" [ vi 9 ]))
      (Prog.call Thread_sched.exit_tag [])
  in
  ignore (check_equiv layer [ 2, sleeper; 1, waker ] 4)

let test_ipc_producer_consumer () =
  let placement = [ 1, 1; 2, 2 ] in
  let layer = Ipc.underlay ~placement () in
  let m = Ipc.c_module () in
  let producer =
    Prog.Module.link m
      (Prog.seq
         (Prog.call "send" [ vi 5; vi 100 ])
         (Prog.call Thread_sched.exit_tag []))
  in
  let consumer =
    Prog.Module.link m
      (Prog.bind (Prog.call "recv" [ vi 5 ]) (fun _ ->
           Prog.call Thread_sched.exit_tag []))
  in
  ignore (check_equiv layer [ 1, producer; 2, consumer ] 3)

(* ---- frontier subtree splitting across the jobs grid ----

   [Dpor.explore ~jobs] splits the DFS frontier into independent subtrees
   (sleep sets stay domain-local); the whole result — the exact prefix
   list in order, every prune counter, the distinct-log count, and each
   replayed outcome — must be bit-identical to the sequential walk for
   every jobs count, including the oversubscribed ones. *)

let explore_fingerprint ?engine ~jobs ~depth layer threads =
  let r =
    V.Budget.value
      (V.Dpor.explore_ctx ~ctx:(V.Ctx.make ~jobs ()) ?engine ~depth layer
         threads)
  in
  ( r.V.Dpor.prefixes,
    r.V.Dpor.stats,
    List.map (fun (o : Game.outcome) -> o.Game.log, o.Game.status) r.V.Dpor.outcomes )

let check_split_equiv ?engine name layer threads depth =
  let ((_, stats, _) as seq) =
    explore_fingerprint ?engine ~jobs:1 ~depth layer threads
  in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "%s: split jobs=%d = sequential" name jobs)
        true
        (explore_fingerprint ?engine ~jobs ~depth layer threads = seq))
    [ 2; 4; 7 ];
  check_bool (name ^ ": pruned + run = considered") true
    (stats.V.Dpor.schedules_pruned + stats.V.Dpor.schedules_run
    = stats.V.Dpor.schedules_considered);
  stats

let test_split_ticket () =
  ignore (check_split_equiv "ticket" (Ticket_lock.l0 ()) (ticket_threads 2) 4)

let test_split_mcs () =
  ignore (check_split_equiv "mcs" (Mcs_lock.l0 ()) (mcs_threads 2) 4)

let test_split_queue () =
  ignore
    (check_split_equiv "queue" (Queue_shared.underlay ()) (queue_threads 2) 4)

let test_split_rwlock () =
  let reader =
    Prog.seq (Prog.call "acq_r" [ vi 4 ]) (Prog.call "rel_r" [ vi 4 ])
  in
  let writer =
    Prog.seq (Prog.call "acq_w" [ vi 4 ]) (Prog.call "rel_w" [ vi 4 ])
  in
  ignore
    (check_split_equiv "rwlock" (Rwlock.overlay ())
       [ 1, reader; 2, reader; 3, writer ] 4)

let test_split_condvar () =
  let placement = [ 1, 0; 2, 2 ] in
  let layer = Thread_sched.mt_layer placement (Lock_intf.layer "Llock") in
  let m = Condvar.c_module () in
  let sleeper =
    Prog.seq
      (Prog.call "acq" [ vi 0 ])
      (Prog.seq
         (Prog.Module.link m (Prog.call "cv_wait" [ vi 9; vi 0; vi 0 ]))
         (Prog.call Thread_sched.exit_tag []))
  in
  let waker =
    Prog.seq
      (Prog.Module.link m (Prog.call "cv_signal" [ vi 9 ]))
      (Prog.call Thread_sched.exit_tag [])
  in
  ignore (check_split_equiv "condvar" layer [ 2, sleeper; 1, waker ] 4)

let test_split_llock_6t_depth7 () =
  (* the headline scale point: 6^7 = 279,936 schedules considered — well
     past 10^5 — with the lock interface collapsing the real frontier to
     a sliver the split walk must still cover exactly *)
  let threads = List.init 6 (fun k -> k + 1, lock_client (k + 1)) in
  let stats = check_split_equiv "llock-6t" (Lock_intf.layer "Llock") threads 7 in
  check_int "considered = 6^7" 279_936 stats.V.Dpor.schedules_considered;
  check_bool "considered >= 10^5" true
    (stats.V.Dpor.schedules_considered >= 100_000);
  check_bool "DPOR pruned the bulk of the tree" true
    (2 * stats.V.Dpor.schedules_run <= stats.V.Dpor.schedules_considered)

(* ---- the engine matrix ----

   For each corpus game, the distinct-log set reached by the [dpor]
   engine must equal the exhaustive oracle's, and the [dpor,sym] leaf
   logs must be a subset of it: symmetry reduction keeps one
   representative per orbit, so it may drop logs that are tid renamings
   of kept ones but never invent a log. *)

let check_engine_matrix name layer threads depth =
  ignore (check_equiv layer threads depth);
  let sym_r = explore_with ~engine:(sym_engine ~depth) layer threads depth in
  check_bool
    (Printf.sprintf "%s/dpor,sym: logs are a subset of the oracle's" name)
    true
    (oracle ~sym:true layer threads depth sym_r).V.Explore.agree

let test_matrix_ticket () =
  check_engine_matrix "ticket" (Ticket_lock.l0 ()) (ticket_threads 2) 4

let test_matrix_mcs () =
  check_engine_matrix "mcs" (Mcs_lock.l0 ()) (mcs_threads 2) 4

let test_matrix_queue () =
  check_engine_matrix "queue" (Queue_shared.underlay ()) (queue_threads 2) 4

let test_matrix_rwlock () =
  let reader =
    Prog.seq (Prog.call "acq_r" [ vi 4 ]) (Prog.call "rel_r" [ vi 4 ])
  in
  let writer =
    Prog.seq (Prog.call "acq_w" [ vi 4 ]) (Prog.call "rel_w" [ vi 4 ])
  in
  check_engine_matrix "rwlock" (Rwlock.overlay ())
    [ 1, reader; 2, reader; 3, writer ]
    4

let test_matrix_kv () =
  let layer, threads = Ccal_kv.Kv_stack.ht_game ~shards:2 ~threads:2 () in
  check_engine_matrix "kv-ht" layer threads 4

(* ---- symmetry reduction ----

   [dpor,sym] prunes enabled moves of fresh threads whose programs are
   identical up to their own tid ([Fingerprint.prog_blind]); it keeps one
   representative per symmetry class, so its logs are a subset of the
   plain frontier and the distinct count collapses to the orbit
   count.  The lock game (every client is acq/rel/ret over its own tid)
   is fully symmetric: 3 threads at depth 5 collapse 18 runs to 3. *)

let lock_threads n = List.init n (fun k -> k + 1, lock_client (k + 1))

let test_sym_prunes_lock () =
  let threads = lock_threads 3 in
  let layer = Lock_intf.layer "Llock" in
  let flag_r = explore_with ~engine:(E.dpor ~depth:5) layer threads 5 in
  let sym_r = explore_with ~engine:(sym_engine ~depth:5) layer threads 5 in
  check_bool "sym pruned at least one branch" true
    (sym_r.V.Dpor.stats.V.Dpor.sym_prunes > 0);
  check_bool "sym ran strictly fewer schedules" true
    (sym_r.V.Dpor.stats.V.Dpor.schedules_run
    < flag_r.V.Dpor.stats.V.Dpor.schedules_run);
  check_bool "sym logs are a subset of the flagless logs" true
    (Log.subset sym_r.V.Dpor.distinct flag_r.V.Dpor.distinct);
  check_bool "sym kept at least one representative" true
    (List.length sym_r.V.Dpor.distinct >= 1)

(* ---- the oracle comparison ---- *)

(* [explore lock --threads 3 --depth 5 --strategy dpor:5,sym]: the walk
   keeps one of the six oracle logs, agreement by inclusion.  Mutants the
   comparison must still catch: a plain walk that lost a log, and a sym
   walk that reports a log the oracle never reaches. *)
let test_oracle_sym_and_mutants () =
  let threads = lock_threads 3 and layer = Lock_intf.layer "Llock" in
  let agree ~sym r = (oracle ~sym layer threads 5 r).V.Explore.agree in
  let r = explore_with ~engine:(E.dpor ~depth:5) layer threads 5 in
  let sym_r = explore_with ~engine:(sym_engine ~depth:5) layer threads 5 in
  check_int "sym keeps one of six logs" 1 (List.length sym_r.V.Dpor.distinct);
  check_bool "sym agrees by inclusion" true (agree ~sym:true sym_r);
  check_bool "dropped log disagrees" false
    (agree ~sym:false { r with V.Dpor.distinct = List.tl r.V.Dpor.distinct });
  check_bool "foreign log disagrees under sym" false
    (agree ~sym:true
       { sym_r with V.Dpor.distinct = Log.empty :: sym_r.V.Dpor.distinct })

(* The crash pseudo-thread (tid -1) is in the oracle's alphabet: 3^6
   schedules, and DPOR reaches every crash interleaving. *)
let test_oracle_wal_crash () =
  let module W = Ccal_disk.Wal in
  let m = W.module_ () and layer = W.underlay ~crashes:true () in
  let client i = Prog.Module.link m (W.client i) in
  let threads = [ 1, client 1; 2, client 2 ] in
  let r = explore_with ~engine:(E.dpor ~depth:6) layer threads 6 in
  let o = oracle ~sym:false layer threads 6 r in
  check_int "oracle runs 3^6" 729 o.V.Explore.runs;
  check_int "distinct logs" 24 (List.length o.V.Explore.logs);
  check_bool "agree" true o.V.Explore.agree

(* The sym decision is node-local (the node's own prefix and log
   integers), so a [sym] walk splits its frontier across domains like a
   plain one: prefixes, stats and outcomes bit-identical for every jobs
   count, with symmetry actually pruning in each game. *)
let test_split_sym () =
  let check name layer threads depth =
    let stats =
      check_split_equiv ~engine:(sym_engine ~depth) name layer threads depth
    in
    check_bool (name ^ ": sym pruned") true (stats.V.Dpor.sym_prunes > 0)
  in
  check "lock,sym" (Lock_intf.layer "Llock") (lock_threads 3) 5;
  check "ticket,sym" (Ticket_lock.l0 ()) (ticket_threads 3) 4

(* The depth-8 scaling point of [make check-sym]: ticket 4 threads under
   events independence, pinned count by count so a change to the sym
   decision or to the sleep sets it interacts with shows up here. *)
let test_sym_ticket_4t_depth8 () =
  let r =
    explore_with ~independence:V.Dpor.Commuting_events
      ~engine:(sym_engine ~depth:8) (Ticket_lock.l0 ()) (ticket_threads 4) 8
  in
  let s = r.V.Dpor.stats in
  check_int "runs" 1_550 s.V.Dpor.schedules_run;
  check_int "sleep-set skips" 389 s.V.Dpor.sleep_set_prunes;
  check_int "symmetry prunes" 108 s.V.Dpor.sym_prunes;
  check_int "distinct logs" 1_535 s.V.Dpor.distinct_logs

(* ---- the canonical form against its definition ----

   [canonical_events] is the canonical form as defined, the oracle for
   the one-pass DAG form of [Dpor.canonical_log]: at every output
   position it rescans the remaining events for those with no earlier
   dependent one and emits the [Event.compare]-least, the first of
   equals.  Its independence relation is written out here too, so the
   library's [dependent] is checked rather than shared. *)

let reads = [ "get_n"; "aload"; "read" ]

let obj (e : Event.t) =
  match e.args with Value.Vint b :: _ -> Some b | _ -> None

let independent_events (e1 : Event.t) (e2 : Event.t) =
  e1.src <> e2.src
  &&
  match obj e1, obj e2 with
  | Some a, Some b when a <> b -> true
  | Some _, Some _ -> List.mem e1.tag reads && List.mem e2.tag reads
  | _ -> false

let canonical_events indep events =
  let rec minimal_candidates rev_prefix = function
    | [] -> []
    | e :: rest ->
      let minimal = List.for_all (fun p -> indep p e) rev_prefix in
      let here =
        if minimal then [ e, List.rev_append rev_prefix rest ] else []
      in
      here @ minimal_candidates (e :: rev_prefix) rest
  in
  let rec build acc evs =
    match evs with
    | [] -> List.rev acc
    | first :: _ -> (
      match minimal_candidates [] evs with
      | [] -> List.rev_append acc [ first ] (* unreachable: the head is minimal *)
      | c :: cs ->
        let e, rest =
          List.fold_left
            (fun (be, br) (e, r) ->
              if Event.compare e be < 0 then e, r else be, br)
            c cs
        in
        build (e :: acc) rest)
  in
  build [] events

(* Small alphabets, so logs carry duplicate events, shared and distinct
   sources, shared objects, the read tags, and events with no object
   (no argument, or a non-integer first one); lengths start at 0.  Up to
   seven sources, the crash pseudo-thread's -1 included, and up to 40
   events, so the per-thread cursors of [canonical_log] see many threads
   with long runs of their own events. *)
let event_gen =
  QCheck.Gen.(
    map4
      (fun src tag args ret -> ev ~args ~ret:(vi ret) src tag)
      (int_range (-1) 5)
      (oneofl [ "get_n"; "aload"; "read"; "FAI_t"; "astore"; "switch" ])
      (oneof
         [
           return [];
           map (fun o -> [ vi o ]) (int_range 0 2);
           map (fun o -> [ vi o; vi 1 ]) (int_range 0 2);
           return [ Value.Vbool true ];
         ])
      (int_range 0 1))

let events_arb =
  QCheck.make
    ~print:(fun es -> String.concat " " (List.map Event.to_string es))
    QCheck.Gen.(list_size (int_range 0 40) event_gen)

let prop_canonical_matches_definition =
  qtc ~count:10_000 "canonical_log = the rescanning definition" events_arb
    (fun es ->
      Log.chronological (V.Dpor.canonical_log (log_of es))
      = canonical_events independent_events es)

(* Swap the first adjacent independent pair at or after position [k]
   (cyclically); [None] when the log has no such pair. *)
let swap_independent k es =
  let a = Array.of_list es in
  let n = Array.length a in
  let rec find tries i =
    if tries >= n - 1 then None
    else if independent_events a.(i) a.(i + 1) then begin
      let e = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- e;
      Some (Array.to_list a)
    end
    else find (tries + 1) ((i + 1) mod (n - 1))
  in
  if n < 2 then None else find 0 (k mod (n - 1))

let prop_canonical_commutes =
  qtc ~count:2_000 "canonical_log ignores an independent adjacent swap"
    QCheck.(pair events_arb small_nat)
    (fun (es, k) ->
      match swap_independent k es with
      | None -> true
      | Some swapped ->
        Log.equal
          (V.Dpor.canonical_log (log_of es))
          (V.Dpor.canonical_log (log_of swapped)))

let prop_canonical_idempotent =
  qtc ~count:2_000 "canonical_log is idempotent" events_arb (fun es ->
      let c = V.Dpor.canonical_log (log_of es) in
      Log.equal c (V.Dpor.canonical_log c))

(* The benchmark game (perfbench's dpor-ticket4): ticket over L0, 4
   threads, depth 6, events independence, pinned count by count against
   the oracle, with the canonical forms computed on the pool identical to
   the sequential ones. *)
let test_ticket_4t_commuting () =
  let independence = V.Dpor.Commuting_events and depth = 6 in
  let layer = Ticket_lock.l0 () and threads = ticket_threads 4 in
  let r = explore_with ~independence ~engine:(E.dpor ~depth) layer threads depth in
  let s = r.V.Dpor.stats in
  check_int "runs" 3_148 s.V.Dpor.schedules_run;
  check_int "distinct logs" 3_145 s.V.Dpor.distinct_logs;
  let o = oracle ~independence ~sym:false layer threads depth r in
  check_int "oracle logs" 3_145 (List.length o.V.Explore.logs);
  check_bool "log sets agree" true o.V.Explore.agree;
  let pooled =
    V.Budget.value
      (V.Dpor.explore_ctx ~ctx:(V.Ctx.make ~jobs:2 ()) ~independence
         ~engine:(E.dpor ~depth) ~depth layer threads)
  in
  check_bool "jobs 2 canonical forms = jobs 1" true
    (List.equal Log.equal pooled.V.Dpor.distinct r.V.Dpor.distinct)

(* The walk schedules the TSO flushers, so [considered] ranges over the
   same alphabet as the oracle: SB's 2 CPUs plus 2 flushers at depth 6. *)
let test_considered_counts_pseudo_threads () =
  let t i j =
    Prog.seq (Prog.call "astore" [ vi i; vi 1 ]) (Prog.call "aload" [ vi j ])
  in
  let ctx = V.Ctx.make ~memory:Memory.Tso () in
  let layer = Ccal_machine.Tso.layer () and threads = [ 1, t 1 2; 2, t 2 1 ] in
  let depth = 6 in
  let r =
    V.Budget.value
      (V.Dpor.explore_ctx ~ctx ~engine:(E.dpor ~depth) ~depth layer threads)
  in
  let o =
    V.Budget.value
      (V.Explore.oracle_ctx ~ctx ~independence:V.Dpor.Exact ~sym:false ~depth
         layer threads r)
  in
  let s = r.V.Dpor.stats in
  check_int "considered = oracle runs" o.V.Explore.runs
    s.V.Dpor.schedules_considered;
  check_int "considered = 4^6" 4_096 s.V.Dpor.schedules_considered;
  check_int "pruned + run = considered" s.V.Dpor.schedules_considered
    (s.V.Dpor.schedules_pruned + s.V.Dpor.schedules_run)

(* ---- saturation ---- *)

let test_considered_saturates () =
  (* 3^40 overflows 63-bit ints; the counter must pin at [max_int] and
     render as ">max-int", never wrap to a small or negative number *)
  let threads = List.init 3 (fun k -> k + 1, lock_client (k + 1)) in
  let r = explore_with ~engine:(E.dpor ~depth:40) (Lock_intf.layer "Llock") threads 40 in
  check_int "considered saturates at max_int" max_int
    r.V.Dpor.stats.V.Dpor.schedules_considered;
  let rendered = Format.asprintf "%a" V.Dpor.pp_stats r.V.Dpor.stats in
  check_bool "saturated count renders as >max-int" true
    (let needle = ">max-int" in
     let n = String.length needle and m = String.length rendered in
     let rec scan i =
       i + n <= m && (String.sub rendered i n = needle || scan (i + 1))
     in
     scan 0)

(* ---- the --strategy grammar ---- *)

let test_engine_of_string_accepts () =
  let ok s expected =
    match E.of_string s with
    | Ok e -> check_bool ("parse " ^ s) true (E.to_string e = expected)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "dpor" "dpor:4";
  ok "dpor:7" "dpor:7";
  ok "default" "dpor:4";
  ok "dpor,sym" "dpor:4,sym";
  ok "dpor:8,sym" "dpor:8,sym";
  ok "exhaustive:3" "exhaustive:3";
  ok "random:5" "random:5"

let test_engine_of_string_rejects () =
  let rejects s fragment =
    match E.of_string s with
    | Ok e -> Alcotest.failf "%s accepted as %s" s (E.to_string e)
    | Error msg ->
      check_bool
        (Printf.sprintf "%s rejection names the problem (%S in %S)" s fragment
           msg)
        true
        (let n = String.length fragment and m = String.length msg in
         let rec scan i =
           i + n <= m && (String.sub msg i n = fragment || scan (i + 1))
         in
         scan 0)
  in
  rejects "dpor,dedup" "use dpor[:DEPTH],sym";
  rejects "dpor:8,sym,dedup" "use dpor[:DEPTH],sym";
  rejects "optimal" "use dpor[:DEPTH],sym";
  rejects "optimal:8,sym" "use dpor[:DEPTH],sym";
  rejects "optimal:8,dedup,sym" "use dpor[:DEPTH],sym";
  rejects "dpor,sym,sym" "duplicate";
  rejects "exhaustive:2,sym" "sym";
  rejects "dpor:0" "positive";
  rejects "dpor:x" "integer";
  rejects "default:3" "no depth";
  rejects "frobnicate" "unknown strategy"

(* ---- scheduler coverage properties ---- *)

let test_splitmix_corner_cases () =
  List.iter
    (fun x -> check_bool "splitmix >= 0" true (Sched.splitmix x >= 0))
    [ 0; 1; -1; max_int; min_int; min_int + 1; 0x9E3779B9 ]

let prop_splitmix_nonneg =
  qtc "splitmix non-negative on arbitrary ints" QCheck.int (fun x ->
      Sched.splitmix x >= 0)

let prop_of_trace_follows_then_round_robin =
  (* with runnable fixed at [1;2;3], of_trace must yield exactly the
     runnable entries of the trace in order (silently skipping the rest),
     then degrade to round-robin on the global step count *)
  qtc "of_trace skips non-runnable, then round-robin"
    QCheck.(list_of_size Gen.(0 -- 8) (int_range 0 5))
    (fun trace ->
      let runnable = [ 1; 2; 3 ] in
      let pick = Sched_oracle.pick (Sched.of_trace trace) in
      let expected_prefix = List.filter (fun i -> List.mem i runnable) trace in
      let total = List.length expected_prefix + 4 in
      let picks =
        List.init total (fun step ->
            pick ~step Log.empty ~runnable)
      in
      let expected =
        List.map Option.some expected_prefix
        @ List.init 4 (fun k ->
              let step = List.length expected_prefix + k in
              Sched_oracle.round_robin ~step Log.empty ~runnable)
      in
      picks = expected)

let prop_biased_picks_runnable =
  qtc "biased never picks a non-runnable thread"
    QCheck.(triple (int_range 0 4) (int_range 1 5) small_nat)
    (fun (favored, ratio, seed) ->
      List.for_all
        (fun runnable ->
          let pick = Sched_oracle.pick (Sched.biased ~favored ~ratio ~seed) in
          List.for_all
            (fun step ->
              match pick ~step Log.empty ~runnable with
              | Some i -> List.mem i runnable
              | None -> false)
            [ 0; 1; 2; 3; 7; 11 ])
        [ [ 1 ]; [ 2; 3 ]; [ 1; 2; 3; 4 ]; [ 4 ] ])

(* ---- race classification regression ---- *)

let test_stuck_message_mentioning_race_is_not_a_race () =
  (* a primitive that gets stuck for an ordinary reason, with "race" in the
     message: under the old substring scan this was misreported as a data
     race; with structured [stuck_kind] it must be Other_failure *)
  let layer =
    Layer.make "Ltrap"
      [ Layer.shared_prim "trap" (fun _ _ _ ->
            Layer.Stuck "trace replay hit a race-detector bracket mismatch")
      ]
  in
  match
    V.Races.check_ctx ~ctx:V.Ctx.default ~scheds:[ Sched.round_robin ] layer
      [ 1, Prog.call "trap" [] ]
  with
  | V.Races.Other_failure msg ->
    check_bool "classified by kind, not by message" true
      (String.length msg > 0)
  | V.Races.Race _ -> Alcotest.fail "Invalid_transition misreported as race"
  | V.Races.Race_free _ -> Alcotest.fail "stuck run reported race-free"
  | V.Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_structured_race_is_still_a_race () =
  (* the positive control: a primitive that witnesses a genuine data race
     reports Layer.Race, and the checker surfaces it whatever the text *)
  let layer =
    Layer.make "Lracy"
      [ Layer.shared_prim "collide" (fun c _ _ ->
            Layer.Race (Printf.sprintf "CPU %d collided" c))
      ]
  in
  match
    V.Races.check_ctx ~ctx:V.Ctx.default ~scheds:[ Sched.round_robin ] layer
      [ 1, Prog.call "collide" [] ]
  with
  | V.Races.Race { detail; _ } ->
    check_bool "detail kept" true (String.length detail > 0)
  | V.Races.Other_failure msg -> Alcotest.failf "race demoted: %s" msg
  | V.Races.Race_free _ -> Alcotest.fail "racy run reported race-free"
  | V.Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let test_pushpull_race_detected_end_to_end () =
  (* the real thing: two CPUs pulling the same location through the
     push/pull machine — the Fig. 8 replay refuses the second pull and the
     verdict carries the owner in the detail *)
  let layer = Layer.make "Lpp" Ccal_machine.Pushpull.prims in
  let grab i = Prog.seq (Prog.call "pull" [ vi 7 ]) (Prog.ret (vi i)) in
  match
    V.Races.check_ctx ~ctx:V.Ctx.default ~scheds:[ Sched.of_trace [ 1; 2 ] ]
      layer
      [ 1, grab 1; 2, grab 2 ]
  with
  | V.Races.Race { detail; _ } ->
    check_bool "mentions ownership" true
      (String.length detail > 0
      && String.exists (fun c -> c = '7') detail)
  | V.Races.Other_failure msg -> Alcotest.failf "race demoted: %s" msg
  | V.Races.Race_free _ -> Alcotest.fail "racing pulls reported race-free"
  | V.Races.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"

let suite =
  [
    tc "equiv: ticket L0, 2 threads, depth 4" test_ticket_2t;
    tc "equiv: ticket L0, 3 threads, depth 3" test_ticket_3t;
    tc "equiv: ticket L0, commuting events" test_ticket_2t_commuting;
    tc "equiv: MCS L0, 2 threads, depth 4" test_mcs_2t;
    tc "equiv: MCS L0, 3 threads, depth 3" test_mcs_3t;
    tc "equiv: shared queue, 2 threads, depth 4" test_queue_2t;
    tc "equiv: shared queue, 3 threads, depth 3" test_queue_3t;
    tc "equiv: atomic queue overlay, commuting events" test_queue_overlay_3t;
    tc "Llock game: full coverage at <= half the schedules"
      test_llock_pruning_bound;
    tc "equiv: TSO store-buffering litmus, depth 4" test_tso_store_buffering;
    tc "equiv: TSO with mfence, depth 4" test_tso_fenced;
    tc "equiv: barrier episode, 2 threads, depth 4" test_barrier_2t;
    tc "equiv: rwlock reader vs writer, depth 4" test_rwlock_readers_writer;
    tc "equiv: condvar sleep/wake, depth 4" test_condvar_sleep_wake;
    tc "equiv: IPC producer/consumer, depth 3" test_ipc_producer_consumer;
    tc "split: ticket across jobs grid" test_split_ticket;
    tc "split: MCS across jobs grid" test_split_mcs;
    tc "split: shared queue across jobs grid" test_split_queue;
    tc "split: rwlock across jobs grid" test_split_rwlock;
    tc "split: condvar across jobs grid" test_split_condvar;
    tc "split: Llock 6 threads depth 7 (279,936 considered)"
      test_split_llock_6t_depth7;
    tc "engine matrix: ticket (dpor vs oracle, dpor,sym subset)"
      test_matrix_ticket;
    tc "engine matrix: MCS" test_matrix_mcs;
    tc "engine matrix: shared queue" test_matrix_queue;
    tc "engine matrix: rwlock" test_matrix_rwlock;
    tc "engine matrix: kv hash table" test_matrix_kv;
    tc "symmetry reduction prunes the lock game" test_sym_prunes_lock;
    tc "oracle: dpor,sym agrees by inclusion; mutants disagree"
      test_oracle_sym_and_mutants;
    tc "oracle: wal crash pseudo-thread in the alphabet" test_oracle_wal_crash;
    tc "split: dpor,sym across jobs grid" test_split_sym;
    tc "dpor:8,sym pins ticket 4t depth 8 (1,550 runs)"
      test_sym_ticket_4t_depth8;
    tc "schedules_considered saturates at max_int" test_considered_saturates;
    tc "schedules_considered counts the TSO flushers"
      test_considered_counts_pseudo_threads;
    prop_canonical_matches_definition;
    prop_canonical_commutes;
    prop_canonical_idempotent;
    tc "equiv: ticket L0, 4 threads, depth 6, commuting events"
      test_ticket_4t_commuting;
    tc "Engine.of_string accepts the grammar" test_engine_of_string_accepts;
    tc "Engine.of_string rejects by name" test_engine_of_string_rejects;
    tc "splitmix corner cases" test_splitmix_corner_cases;
    prop_splitmix_nonneg;
    prop_of_trace_follows_then_round_robin;
    prop_biased_picks_runnable;
    tc "stuck message containing 'race' is not a race"
      test_stuck_message_mentioning_race_is_not_a_race;
    tc "structured Layer.Race is reported as a race"
      test_structured_race_is_still_a_race;
    tc "push/pull collision detected end to end"
      test_pushpull_race_detected_end_to_end;
  ]
