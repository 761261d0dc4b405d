(* The sleep-set DPOR explorer against the exhaustive oracle.

   The tentpole property: for every benchmark game, the set of logs reached
   by replaying the DPOR prefixes equals the set reached by exhaustive
   enumeration at the same depth — DPOR only skips schedules whose logs are
   already covered.  Under [Exact] independence the raw log sets must match;
   under [Commuting_events] they match up to canonical reordering of
   commuting events (Mazurkiewicz traces).  Every comparison goes through
   [Explore.oracle_ctx], the one the CLI runs.

   Plus: scheduler coverage properties ([Sched.of_trace],
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
   distinct-log sets (trace classes under events independence)
   coincide, sizes included.  Returns
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

(* ---- the replay merge across the jobs grid ----

   The walk is one sequential DFS; [ctx.jobs] splits only the replay of
   its prefixes over the pool, and the merge puts the outcomes back in
   prefix order.  The whole result — the exact prefix list in order,
   every prune counter, the distinct-log count, and each replayed
   outcome — must be bit-identical to the jobs-1 run for every jobs
   count, including the oversubscribed ones. *)

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
     a sliver the walk must still cover exactly *)
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

(* A [sym] walk replays on the pool like a plain one: prefixes, stats
   and outcomes bit-identical for every jobs count, with symmetry
   actually pruning in each game. *)
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

(* ---- golden walks ----

   [Dpor.walk]'s whole output — every prefix in DFS pre-order, then both
   prune counts — over games that reach each feature of the walk: events
   and exact independence, the crash pseudo-thread, the TSO flushers and
   symmetry.  The digests were recorded on the frontier-split walk this
   one recursive DFS replaced; any change to the order or the pruning
   shows here. *)
let walk_digest ?(independence = V.Dpor.Exact) ?(memory = Memory.default)
    ?(sym = false) ~depth layer threads =
  let prefixes, (st : E.walk_stats) =
    V.Dpor.walk ~independence ~engine:{ (E.dpor ~depth) with E.sym }
      (Game.table ~memory layer threads)
  in
  let trace p = String.concat "," (List.map string_of_int p) in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|sleep=%d sym=%d"
          (String.concat ";" (List.map trace prefixes))
          st.E.sleep_prunes st.E.sym_prunes))

let test_golden_walks () =
  let sb = Option.get (Ccal_machine.Litmus.find "SB") in
  let wal =
    let module W = Ccal_disk.Wal in
    let m = W.module_ () in
    List.map (fun i -> i, Prog.Module.link m (W.client i)) [ 1; 2 ]
  in
  List.iter
    (fun (name, expected, digest) -> check_string name expected (digest ()))
    [
      ( "ticket 4t depth 6 events", "0564df05724d16c4547979e4188fe445",
        fun () ->
          walk_digest ~independence:V.Dpor.Commuting_events ~depth:6
            (Ticket_lock.l0 ()) (ticket_threads 4) );
      ( "lock 5t depth 6 exact", "4571615a8a0ca3bd4e8d19b10c4a32e4",
        fun () ->
          walk_digest ~depth:6 (Lock_intf.layer "Llock") (lock_threads 5) );
      ( "wal 2t depth 6 (crash thread)", "67dffa7d6f287ab4b66f122c94c7d63d",
        fun () ->
          walk_digest ~depth:6 (Ccal_disk.Wal.underlay ~crashes:true ()) wal );
      ( "litmus SB tso depth 6 (flushers)", "c29577fad543843bf2c7539af46aaf7b",
        fun () ->
          walk_digest ~memory:Memory.Tso ~depth:6
            (Ccal_machine.Tso.machine_layer Memory.Tso)
            sb.Ccal_machine.Litmus.threads );
      ( "ticket 3t depth 4 sym", "532976d8f9730b05e9c61a79df7405f6",
        fun () ->
          walk_digest ~sym:true ~depth:4 (Ticket_lock.l0 ())
            (ticket_threads 3) );
    ]

(* ---- trace identity against its definition ----

   [canonical_events] is the canonical form as defined: at every output
   position it rescans the remaining events for those with no earlier
   dependent one and emits the [Event.compare]-least, the first of
   equals.  Two logs are equal up to commuting independent events iff
   their canonical forms are equal, so it is the oracle for
   [Dpor.equivalent] and [Dpor.trace_key].  Its independence relation is
   written out here too, so the library's [dependent] is checked rather
   than shared. *)

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

let same_trace a b =
  canonical_events independent_events a = canonical_events independent_events b

(* Small alphabets, so logs carry duplicate events, shared and distinct
   sources, shared objects, the read tags, and events with no object
   (no argument, or a non-integer first one); lengths start at 0.  Up to
   seven sources, the crash pseudo-thread's -1 included, and up to 40
   events, so the key's per-thread and per-object counters see many
   threads with long runs of their own events. *)
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

(* Swap the adjacent pair at or after position [k] (cyclically) that
   [ok] accepts; [None] when the log has no such pair. *)
let swap_adjacent ok k es =
  let a = Array.of_list es in
  let n = Array.length a in
  let rec find tries i =
    if tries >= n - 1 then None
    else if ok a.(i) a.(i + 1) then begin
      let e = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- e;
      Some (Array.to_list a)
    end
    else find (tries + 1) ((i + 1) mod (n - 1))
  in
  if n < 2 then None else find 0 (k mod (n - 1))

let swap_independent = swap_adjacent independent_events

(* A log and a second one near it: a few swaps of adjacent independent
   events (an equivalent log), then up to three swaps of any adjacent
   pair (usually not equivalent: a read moved across a write on its
   object, an event across an object-less one, one thread's events
   reordered).  About three pairs in eight come out equivalent. *)
let near_pair_arb =
  let swaps gen k es =
    List.fold_left
      (fun es k -> Option.value (gen k es) ~default:es)
      es k
  in
  QCheck.map
    ~rev:(fun (a, _) -> a, [], [])
    (fun (es, indep, any) ->
      es, swaps (swap_adjacent (fun _ _ -> true)) any (swaps swap_independent indep es))
    QCheck.(
      triple events_arb
        (list_of_size Gen.(int_range 0 6) small_nat)
        (list_of_size Gen.(int_range 0 3) small_nat))

let key es = V.Dpor.trace_key (log_of es)

let prop_equivalent_matches_definition =
  qtc ~count:10_000 "equivalent = equal canonical forms, and keys agree"
    near_pair_arb (fun (a, b) ->
      let eq = V.Dpor.equivalent (log_of a) (log_of b) in
      eq = same_trace a b && ((not eq) || key a = key b))

let prop_key_commutes =
  qtc ~count:2_000 "trace_key ignores an independent adjacent swap"
    QCheck.(pair events_arb small_nat)
    (fun (es, k) ->
      match swap_independent k es with
      | None -> true
      | Some swapped ->
        key es = key swapped
        && V.Dpor.equivalent (log_of es) (log_of swapped))

(* The canonical form is a member of its class: keying it gives the
   log's own key. *)
let prop_key_of_canonical_form =
  qtc ~count:2_000 "trace_key of the canonical form is the log's" events_arb
    (fun es ->
      let c = canonical_events independent_events es in
      key c = key es && V.Dpor.equivalent (log_of c) (log_of es))

(* [dedup_traces] and [subset_traces] bucket by key but must decide
   classes by [equivalent] alone: under a constant key (every log in one
   bucket) and under [trace_key] they agree with the naive definitions
   over canonical forms.  Dedup keeps the first log of each class, in
   order. *)
let prop_keyed_dedup_subset =
  qtc "keyed dedup and subset = the naive definitions"
    QCheck.(list_of_size Gen.(int_range 0 6) near_pair_arb)
    (fun pairs ->
      (* each log with its canonical form, computed once *)
      let logs =
        List.concat_map
          (fun (a, b) ->
            List.map (fun es -> es, canonical_events independent_events es) [ a; b ])
          pairs
      in
      let mem (_, c) in_ = List.exists (fun (_, c') -> c = c') in_ in
      let naive =
        List.rev
          (List.fold_left
             (fun acc l -> if mem l acc then acc else l :: acc)
             [] logs)
      in
      let half = List.filteri (fun i _ -> i mod 2 = 0) logs in
      let agrees hash =
        let keyed = List.map (fun (es, _) -> hash es, log_of es) in
        List.equal Log.equal
          (List.map (fun (es, _) -> log_of es) naive)
          (List.map snd (V.Dpor.dedup_traces (keyed logs)))
        && List.for_all
             (fun (a, b) ->
               V.Dpor.subset_traces (keyed a) (keyed b)
               = List.for_all (fun l -> mem l b) a)
             [ half, logs; logs, half; logs, [] ]
      in
      agrees (fun _ -> 0) && agrees key)

(* The benchmark game (perfbench's dpor-ticket4): ticket over L0, 4
   threads, depth 6, events independence, pinned count by count against
   the oracle, with the leaves keyed on the pool deduplicated to the
   sequential ones. *)
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
  check_bool "jobs 2 distinct leaves = jobs 1" true
    (List.equal Log.equal pooled.V.Dpor.distinct r.V.Dpor.distinct)

(* The small events-mode games of CI's agreement step, pinned at jobs 1
   and 4 with the counts the canonical-form dedup gave: DPOR runs, DPOR
   distinct logs, oracle distinct logs, agreement.  They reach the crash
   pseudo-thread (wal, durable-kv), the TSO flushers (SB) and the block
   cache's write-backs. *)
let test_small_events_games () =
  let module D = Ccal_disk in
  let disk m client =
    D.Wal.underlay ~crashes:true (),
    List.map (fun i -> i, Prog.Module.link m (client i)) [ 1; 2 ]
  in
  let sb = Option.get (Ccal_machine.Litmus.find "SB") in
  List.iter
    (fun (name, memory, (layer, threads), (runs, distinct, oracle_logs)) ->
      List.iter
        (fun jobs ->
          let ctx = V.Ctx.make ~jobs ~memory () in
          let independence = V.Dpor.Commuting_events and depth = 6 in
          let r =
            V.Budget.value
              (V.Dpor.explore_ctx ~ctx ~independence ~engine:(E.dpor ~depth)
                 ~depth layer threads)
          in
          let o =
            V.Budget.value
              (V.Explore.oracle_ctx ~ctx ~independence ~sym:false ~depth layer
                 threads r)
          in
          let label what = Printf.sprintf "%s jobs %d: %s" name jobs what in
          check_int (label "runs") runs r.V.Dpor.stats.V.Dpor.schedules_run;
          check_int (label "distinct logs") distinct
            r.V.Dpor.stats.V.Dpor.distinct_logs;
          check_int (label "oracle logs") oracle_logs
            (List.length o.V.Explore.logs);
          check_bool (label "agree") true o.V.Explore.agree)
        [ 1; 4 ])
    [
      "wal 2t", Memory.Sc, disk (D.Wal.module_ ()) D.Wal.client, (14, 10, 10);
      ( "durable-kv 2t", Memory.Sc,
        disk (D.Durable_kv.module_ ()) D.Durable_kv.client, (26, 13, 13) );
      ( "litmus SB tso", Memory.Tso,
        (Ccal_machine.Tso.machine_layer Memory.Tso, sb.Ccal_machine.Litmus.threads),
        (37, 8, 8) );
      ( "kv-cache 3t", Memory.Sc,
        Ccal_kv.Kv_stack.cache_game ~entries:2 ~threads:3 (), (19, 7, 7) );
    ]

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

(* A game with no threads: the walk plays the one empty game, and the
   oracle's empty alphabet has exactly that one (empty) trace. *)
let test_threadless_game_agrees () =
  let layer = Lock_intf.layer "Llock" in
  check_int "one exhaustive prefix over no tids" 1
    (List.length (V.Explore.exhaustive_scheds ~tids:[] ~depth:5));
  let r = explore_with ~engine:(E.dpor ~depth:5) layer [] 5 in
  let o = oracle ~sym:false layer [] 5 r in
  let s = r.V.Dpor.stats in
  check_int "one run" 1 s.V.Dpor.schedules_run;
  check_int "considered = oracle runs" o.V.Explore.runs
    s.V.Dpor.schedules_considered;
  check_int "one exhaustive run" 1 o.V.Explore.runs;
  check_bool "log sets agree" true o.V.Explore.agree

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
  | V.Races.Race f ->
    check_bool "detail kept" true (String.length f.Failure.f_reason > 0)
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
  | V.Races.Race { Failure.f_reason = detail; _ } ->
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
    tc "walk: golden digests of five walks" test_golden_walks;
    tc "schedules_considered saturates at max_int" test_considered_saturates;
    tc "oracle: a threadless game agrees" test_threadless_game_agrees;
    tc "schedules_considered counts the TSO flushers"
      test_considered_counts_pseudo_threads;
    prop_equivalent_matches_definition;
    prop_key_commutes;
    prop_key_of_canonical_form;
    prop_keyed_dedup_subset;
    tc "equiv: ticket L0, 4 threads, depth 6, commuting events"
      test_ticket_4t_commuting;
    tc "equiv: the small events-mode games, jobs 1 and 4"
      test_small_events_games;
    tc "Engine.of_string accepts the grammar" test_engine_of_string_accepts;
    tc "Engine.of_string rejects by name" test_engine_of_string_rejects;
    tc "splitmix corner cases" test_splitmix_corner_cases;
    prop_splitmix_nonneg;
    prop_of_trace_follows_then_round_robin;
    tc "stuck message containing 'race' is not a race"
      test_stuck_message_mentioning_race_is_not_a_race;
    tc "structured Layer.Race is reported as a race"
      test_structured_race_is_still_a_race;
    tc "push/pull collision detected end to end"
      test_pushpull_race_detected_end_to_end;
  ]
