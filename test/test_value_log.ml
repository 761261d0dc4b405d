(* Unit + property tests for Value, Event, Log and Replay (S1). *)
open Ccal_core
open Util

let test_value_equal () =
  check_bool "unit=unit" true (Value.equal Value.unit Value.unit);
  check_bool "int" true (Value.equal (vi 3) (vi 3));
  check_bool "int neq" false (Value.equal (vi 3) (vi 4));
  check_bool "pair" true
    (Value.equal (Value.pair (vi 1) (vi 2)) (Value.pair (vi 1) (vi 2)));
  check_bool "list" true
    (Value.equal (Value.list [ vi 1; vi 2 ]) (Value.list [ vi 1; vi 2 ]));
  check_bool "list length" false
    (Value.equal (Value.list [ vi 1 ]) (Value.list [ vi 1; vi 2 ]));
  check_bool "cross kind" false (Value.equal Value.unit (vi 0))

let test_value_projections () =
  check_int "to_int" 7 (Value.to_int (vi 7));
  Alcotest.(check (list int))
    "to_list" [ 1; 2 ]
    (List.map Value.to_int (Value.to_list (Value.list [ vi 1; vi 2 ])));
  Alcotest.check_raises "to_int of unit"
    (Value.Type_error "expected int, got ()") (fun () ->
      ignore (Value.to_int Value.unit))

let test_value_compare_total () =
  let sign n = compare n 0 in
  let vs =
    [ Value.unit; vi (-1); vi 0; Value.bool false; Value.pair (vi 1) (vi 2);
      Value.list []; Value.list [ vi 1 ] ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_int "antisymmetric" (sign (Value.compare a b))
            (-sign (Value.compare b a));
          check_bool "consistent with equal"
            (Value.equal a b)
            (Value.compare a b = 0))
        vs)
    vs

let test_event_basics () =
  let e = ev ~args:[ vi 0 ] ~ret:(vi 3) 1 "FAI_t" in
  check_string "to_string" "1.FAI_t(0)->3" (Event.to_string e);
  check_bool "equal" true (Event.equal e (ev ~args:[ vi 0 ] ~ret:(vi 3) 1 "FAI_t"));
  check_bool "ret matters" false
    (Event.equal e (ev ~args:[ vi 0 ] ~ret:(vi 4) 1 "FAI_t"));
  check_bool "src matters" false
    (Event.equal e (ev ~args:[ vi 0 ] ~ret:(vi 3) 2 "FAI_t"));
  check_bool "switch" true (Event.is_switch (Event.switch 2));
  check_bool "not switch" false (Event.is_switch e)

let test_log_append_order () =
  let l = log_of [ ev 1 "a"; ev 2 "b"; ev 1 "c" ] in
  check_int "length" 3 (Log.length l);
  Alcotest.(check (list string))
    "chronological" [ "a"; "b"; "c" ]
    (List.map (fun (e : Event.t) -> e.tag) (Log.chronological l));
  Alcotest.(check (list string))
    "newest first" [ "c"; "b"; "a" ]
    (List.map (fun (e : Event.t) -> e.tag) (Log.newest_first l))

let test_log_append_all () =
  let l1 = log_of [ ev 1 "a" ] in
  let l2 = Log.append_all [ ev 2 "b"; ev 1 "c" ] l1 in
  Alcotest.(check (list string))
    "appended after the prefix" [ "a"; "b"; "c" ]
    (List.map (fun (e : Event.t) -> e.tag) (Log.chronological l2));
  check_bool "nothing appended" true (Log.equal l1 (Log.append_all [] l1))

let test_log_count () =
  let l = log_of [ ev 1 "a"; ev 2 "b"; ev 1 "c"; ev 3 "d"; ev 1 "a" ] in
  check_int "count a" 2 (Log.count (fun e -> String.equal e.Event.tag "a") l)

let test_log_map_events () =
  let l = log_of [ ev 1 "hold"; ev 2 "get_n"; ev 1 "inc_n" ] in
  let translated =
    Log.map_events
      (fun e ->
        if String.equal e.Event.tag "hold" then [ { e with Event.tag = "acq" } ]
        else if String.equal e.Event.tag "get_n" then []
        else [ e ])
      l
  in
  Alcotest.(check (list string))
    "translated" [ "acq"; "inc_n" ]
    (List.map (fun (e : Event.t) -> e.tag) (Log.chronological translated))

let test_replay_fold () =
  let sum =
    Replay.fold ~init:0 ~step:(fun acc (e : Event.t) ->
        match e.ret with Value.Vint n -> Ok (acc + n) | _ -> Error "non-int")
  in
  let l = log_of [ ev ~ret:(vi 1) 1 "x"; ev ~ret:(vi 2) 2 "x" ] in
  check_int "sum" 3 (Result.get_ok (sum l));
  check_bool "wf" true (Replay.well_formed sum l);
  let bad = log_of [ ev 1 "x" ] in
  check_bool "stuck" false (Replay.well_formed sum bad)

(* Properties *)

let event_gen =
  QCheck.Gen.(
    let* src = int_range 1 5 in
    let* tag = oneofl [ "a"; "b"; "c"; "acq"; "rel" ] in
    let* arg = small_nat in
    return (Event.make ~args:[ Value.int arg ] src tag))
  |> QCheck.make

let events_gen = QCheck.list_of_size (QCheck.Gen.int_range 0 30) event_gen

let prop_chronological_reverses =
  qtc "chronological = rev newest_first" events_gen (fun evs ->
      let l = log_of evs in
      Log.chronological l = List.rev (Log.newest_first l))

let prop_append_length =
  qtc "append_all length" events_gen (fun evs ->
      Log.length (log_of evs) = List.length evs)

let prop_filter_keeps_order =
  qtc "filter preserves order" events_gen (fun evs ->
      let l = log_of evs in
      let f = Log.filter (fun e -> e.Event.src = 1) l in
      Log.chronological f
      = List.filter (fun (e : Event.t) -> e.src = 1) (Log.chronological l))

let prop_map_events_id =
  qtc "map_events id = id" events_gen (fun evs ->
      let l = log_of evs in
      Log.equal l (Log.map_events (fun e -> [ e ]) l))

let prop_append_all_extends =
  qtc "append_all extends the chronology" (QCheck.pair events_gen events_gen)
    (fun (pre, post) ->
      let l2 = Log.append_all post (log_of pre) in
      List.equal Event.equal (Log.chronological l2) (pre @ post))

let value_gen =
  QCheck.Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Value.unit; map Value.int int; map Value.bool bool;
                 map Value.int (int_range (-2) 9) ]
           in
           if n = 0 then leaf
           else
             frequency
               [ 3, leaf;
                 1, map2 Value.pair (self (n - 1)) (self (n - 1));
                 1, map Value.list (list_size (int_range 0 4) (self (n - 1))) ]))

(* [Event.hash] hashes the record itself; it must give the value the
   4-tuple hash gave, or [Log.hash] and every log set keyed on it would
   move. *)
let prop_event_hash_is_tuple_hash =
  qtc ~count:1_000 "Event.hash = hash of the (src, tag, args, ret) tuple"
    (QCheck.make
       QCheck.Gen.(
         let* src = int_range (-2) 9 in
         let* tag = oneof [ oneofl [ "acq"; "rel"; "switch"; "" ]; string_size (int_range 0 12) ] in
         let* args = list_size (int_range 0 5) value_gen in
         let* ret = value_gen in
         return (Event.make ~args ~ret src tag)))
    (fun (e : Event.t) -> Event.hash e = Hashtbl.hash (e.src, e.tag, e.args, e.ret))

let prop_value_equal_refl =
  qtc "value equality reflexive" QCheck.(list small_int) (fun xs ->
      let v = Value.list (List.map Value.int xs) in
      Value.equal v v && Value.compare v v = 0)

(* [Log.dedup] and [Log.subset] bucket by hash but must decide membership
   by [Log.equal] alone — under a hash that maps everything to one bucket
   (the worst collision case), and under the default hash, they must agree
   with the naive quadratic definitions.  Dedup keeps first occurrences,
   in order, like the naive version. *)
let naive_mem l logs = List.exists (Log.equal l) logs

let naive_dedup logs =
  List.rev
    (List.fold_left
       (fun acc l -> if naive_mem l acc then acc else l :: acc)
       [] logs)

let logs_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 0 12)
    (QCheck.map log_of events_gen)

let prop_dedup_collisions =
  qtc "dedup under forced hash collisions" logs_gen (fun logs ->
      let naive = naive_dedup logs in
      (* every other log: a subset of [logs], and usually not a superset *)
      let half = List.filteri (fun i _ -> i mod 2 = 0) logs in
      let subset_agrees hash =
        List.for_all
          (fun (a, b) ->
            Log.subset ~hash a b = List.for_all (fun l -> naive_mem l b) a)
          [ half, logs; logs, half; logs, [] ]
      in
      List.equal Log.equal naive (Log.dedup ~hash:(fun _ -> 0) logs)
      && List.equal Log.equal naive (Log.dedup logs)
      && subset_agrees (fun _ -> 0)
      && subset_agrees Log.hash)

(* ---- incremental replay (DESIGN.md S32) ---- *)

(* The reference the incremental fold must equal: a plain chronological
   fold over the materialised list, first error wins. *)
let reference_fold ~init ~step l =
  List.fold_left
    (fun acc e -> Result.bind acc (fun st -> step st e))
    (Ok init) (Log.chronological l)

(* The state counts the events seen, so an error message names the
   position of the failing event, and mixes their arguments in order, so
   a fold that skips, repeats or reorders events ends elsewhere. *)
let counting_step (n, mix) (e : Event.t) =
  match e.tag, e.args with
  | "bad", _ -> Error (Printf.sprintf "bad event at position %d" n)
  | _, [ Value.Vint a ] -> Ok (n + 1, Log.mix mix a)
  | _ -> Error "malformed"

(* One call sequence over a growing pool of logs.  [Again i] re-folds
   log [i] unchanged, as a [Block] retry does; [Extend (i, evs)] appends
   to log [i] and folds the result — extending an older log forks a
   sibling off a shared prefix; [Big i] appends enough events to cross
   the 16,384-event recursion bound. *)
type replay_op = Again of int | Extend of int * Event.t list | Big of int

let replay_op_gen =
  let open QCheck.Gen in
  let batch =
    list_size (int_range 0 6)
      (let* arg = small_nat and* bad = int_range 0 60 in
       let tag = if bad = 0 then "bad" else "x" in
       return (Event.make ~args:[ Value.int arg ] 1 tag))
  in
  frequency
    [
      3, map (fun i -> Again i) small_nat;
      8, map2 (fun i evs -> Extend (i, evs)) small_nat batch;
      1, map (fun i -> Big i) small_nat;
    ]

let replay_ops =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck.Gen.(list_size (int_range 1 24) replay_op_gen)

let big_batch = List.init 16_400 (fun k -> Event.make ~args:[ Value.int k ] 2 "x")

(* Every call of the incremental fold, inside a play's scope and outside
   any, answers exactly what the reference does — the same state, or the
   same message for the same failing position. *)
let prop_incremental_fold_is_chronological =
  qtc ~count:60 "incremental fold = chronological fold" replay_ops (fun ops ->
      let run () =
        let fold = Replay.fold ~init:(0, 0) ~step:counting_step in
        let pool = ref [| Log.empty |] in
        List.for_all
          (fun op ->
            let pick i = !pool.(i mod Array.length !pool) in
            let l =
              match op with
              | Again i -> pick i
              | Extend (i, evs) -> Log.append_all evs (pick i)
              | Big i -> Log.append_all big_batch (pick i)
            in
            pool := Array.append !pool [| l |];
            fold l = reference_fold ~init:(0, 0) ~step:counting_step l)
          ops
      in
      Replay.scoped run && run ())

(* The cost model, read off the [replay.events_folded] counter: in a
   scope, a log extended one event at a time is folded in linear total
   work and a repeated call steps nothing; outside a scope every call
   folds the whole log; a fork off the spine refolds from scratch. *)
let test_incremental_fold_cost () =
  let folded f =
    Probe.reset ();
    Probe.enable ();
    Fun.protect
      ~finally:(fun () ->
        Probe.disable ();
        Probe.reset ())
      (fun () ->
        f ();
        Probe.get "replay.events_folded")
  in
  let fold = Replay.fold ~init:(0, 0) ~step:counting_step in
  let grow n =
    Log.append_all (List.init n (fun k -> ev ~args:[ vi k ] 1 "x")) Log.empty
  in
  (* [fresh] also folds each log with a fold built for that call alone,
     as a per-call [Replay.fold] would *)
  let step_by_step ?(fresh = false) () =
    let rec go l k =
      ignore (fold l);
      if fresh then ignore (Replay.fold ~init:(0, 0) ~step:counting_step l);
      ignore (fold l);
      if k < 100 then go (Log.append (ev ~args:[ vi k ] 1 "x") l) (k + 1)
    in
    go Log.empty 0
  in
  check_int "scoped: each event stepped once" 100
    (folded (fun () -> Replay.scoped step_by_step));
  check_int "unscoped: every call folds the whole log" (2 * 5050)
    (folded step_by_step);
  check_int "per-call folds never evict a reused one" (100 + 5050)
    (folded (fun () -> Replay.scoped (step_by_step ~fresh:true)));
  let l = grow 50 in
  let sibling = Log.append (ev ~args:[ vi 0 ] 2 "x") l
  and child = Log.append (ev ~args:[ vi 0 ] 3 "x") l in
  check_int "sibling fork refolds" (50 + 1 + 51)
    (folded (fun () ->
         Replay.scoped (fun () ->
             ignore (fold l);
             ignore (fold sibling);
             ignore (fold child))));
  let stuck = Log.append_all [ ev 1 "bad"; ev ~args:[ vi 1 ] 1 "x" ] l in
  check_int "an error stops the stepping, and is remembered" 51
    (folded (fun () ->
         Replay.scoped (fun () ->
             ignore (fold stuck);
             ignore (fold (Log.append (ev 1 "x") stuck)))));
  (match
     Replay.scoped (fun () ->
         let first = fold stuck in
         first, fold (Log.append (ev 1 "x") stuck))
   with
  | Error a, Error b ->
    check_string "first error" "bad event at position 50" a;
    check_string "extension keeps the first error" a b
  | _ -> Alcotest.fail "expected the stuck log to stay stuck");
  check_bool "scope dropped after an exception" true
    (match Replay.scoped (fun () -> ignore (fold l); failwith "boom") with
     | () -> false
     | exception Failure _ -> folded (fun () -> ignore (fold l)) = 50)

(* ---- replay families (DESIGN.md S32) ---- *)

(* The per-call folds the families replaced, kept as the reference: each
   replays one key (a CPU, a lock, a channel, a queue) and steps the
   events of every other key as no-ops. *)
let int_args = List.filter_map (function Value.Vint n -> Some n | _ -> None)

let per_call_buffer t =
  Replay.fold ~init:[] ~step:(fun buf (e : Event.t) ->
      if String.equal e.tag Ccal_machine.Tso.buf_store_tag then
        if e.src <> t then Ok buf
        else
          match e.args, int_args e.args with
          | [ _; _ ], [ b; v ] -> Ok (buf @ [ (b, v) ])
          | _ -> Error "buf_store: bad arguments"
      else if String.equal e.tag Ccal_machine.Tso.commit_tag then
        match e.args, int_args e.args with
        | [ _; _; _ ], [ b; v; cpu ] ->
          if cpu <> t then Ok buf
          else (
            match buf with
            | head :: rest when head = (b, v) -> Ok rest
            | _ -> Error "commit does not match the oldest buffered store")
        | _ -> Error "commit: bad arguments"
      else Ok buf)

(* [step] sees only the events of object [k]. *)
let per_call_object k ~init ~step =
  Replay.fold ~init ~step:(fun st (e : Event.t) ->
      match Event.obj_of_args e.args with Some k' when k' = k -> step st e | _ -> Ok st)

let per_call_qlock l =
  per_call_object l ~init:None ~step:(fun holder (e : Event.t) ->
      if String.equal e.tag "acq_q" then
        match holder with
        | None -> Ok (Some e.src)
        | Some h ->
          Error
            (Printf.sprintf "invalid log: thread %d acquires qlock %d held by %d" e.src l h)
      else if String.equal e.tag "rel_q" then
        match holder with
        | Some h when h = e.src -> Ok None
        | _ -> Error (Printf.sprintf "invalid log: thread %d releases qlock %d" e.src l)
      else Ok holder)

let per_call_chan ch =
  per_call_object ch ~init:[] ~step:(fun buf (e : Event.t) ->
      if String.equal e.tag "send" then
        match e.args with
        | [ _; v ] ->
          if List.length buf >= 2 then Error "invalid log: send to a full channel"
          else Ok (buf @ [ v ])
        | _ -> Error "send: bad arguments"
      else if String.equal e.tag "recv" then
        match buf with
        | [] -> Error "invalid log: recv from an empty channel"
        | _ :: rest -> Ok rest
      else Ok buf)

let per_call_queue q =
  per_call_object q ~init:[] ~step:(fun vs (e : Event.t) ->
      if String.equal e.tag "enQ_s" then
        match e.args with [ _; v ] -> Ok (vs @ [ v ]) | _ -> Error "enQ_s: bad arguments"
      else if String.equal e.tag "deQ_s" then Ok (match vs with [] -> [] | _ :: rest -> rest)
      else Ok vs)

let per_call_rw l log =
  let rw_tags = [ "acq_r"; "rel_r"; "acq_w"; "rel_w" ] in
  let readers =
    per_call_object l ~init:(Some [], None) ~step:(fun st (e : Event.t) ->
        let rec remove_one = function
          | [] -> None
          | t :: rest -> if t = e.src then Some rest else Option.map (List.cons t) (remove_one rest)
        in
        match e.tag, st with
        | "acq_r", (Some readers, None) -> Ok (Some (e.src :: readers), None)
        | "rel_r", (Some readers, None) -> (
          match remove_one readers with
          | Some readers' -> Ok (Some readers', None)
          | None -> Error (Printf.sprintf "thread %d rel_r without acq_r" e.src))
        | "acq_w", (Some [], None) -> Ok (None, Some e.src)
        | "rel_w", (None, Some w) when w = e.src -> Ok (Some [], None)
        | tag, _ when List.mem tag rw_tags ->
          Error (Printf.sprintf "invalid rwlock log: %s by %d in the wrong state" tag e.src)
        | _ -> Ok st)
  in
  match readers log with
  | Error _ as e -> e
  | Ok (Some [], None) | Ok (None, None) -> Ok Ccal_objects.Rwlock.Free
  | Ok (Some readers, None) -> Ok (Ccal_objects.Rwlock.Readers (List.length readers))
  | Ok (_, Some w) -> Ok (Ccal_objects.Rwlock.Writer w)

(* Every tag a family reads, with its well-formed arity. *)
let family_tags =
  [ "buf_store", 2; "commit", 3; "acq_q", 1; "rel_q", 1; "send", 2; "recv", 1;
    "enQ_s", 2; "deQ_s", 1; "acq_r", 1; "rel_r", 1; "acq_w", 1; "rel_w", 1;
    "yield", 0; "texit", 0; "sleep", 1; "wakeup", 1; "acq", 1; "x", 1 ]

(* Mostly the family's own tags with well-formed arities over a few
   objects, values and CPUs, so that buffers fill and drain and locks
   change hands; sometimes another family's event, sometimes malformed
   arguments (a commit naming no cpu sticks every CPU). *)
let family_event_gen own =
  let open QCheck.Gen in
  let* tag = frequency [ 6, oneofl own; 1, map fst (oneofl family_tags) ] in
  let* src = int_range 1 3 and* k = int_range 0 2 and* v = int_range 0 1 and* c = int_range 1 3 in
  let well_formed = List.filteri (fun i _ -> i < List.assoc tag family_tags) [ vi k; vi v; vi c ] in
  let* args =
    frequency
      [ 9, return well_formed; 1, oneofl [ []; [ Value.list [] ]; [ vi k ]; [ vi k; vi v; vi c; vi c ] ] ]
  in
  return (Event.make ~args src tag)

(* [(i, evs, k)]: extend pooled log [i] by [evs] (none = a repeated call;
   an older log = a DPOR-style sibling) and replay key [k] there. *)
let family_ops own =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d calls" (List.length ops))
    QCheck.Gen.(
      list_size (int_range 1 30)
        (triple small_nat (list_size (int_range 0 4) (family_event_gen own)) (int_range 0 3)))

(* Every call of the family, inside one scope and outside any, answers
   what the per-call fold of its key does, first error included. *)
let family_agrees ~family ~per_call ops =
  let run () =
    let pool = ref [| Log.empty |] in
    List.for_all
      (fun (i, evs, k) ->
        let l = Log.append_all evs !pool.(i mod Array.length !pool) in
        pool := Array.append !pool [| l |];
        family k l = per_call k l)
      ops
  in
  Replay.scoped run && run ()

let prop_family name own ~family ~per_call =
  qtc ~count:300 (name ^ " family = per-call folds") (family_ops own)
    (family_agrees ~family ~per_call)

let placement = [ 1, 0; 2, 0; 3, 1 ]

let family_props =
  [
    prop_family "TSO store buffers" [ "buf_store"; "commit" ]
      ~family:Ccal_machine.Tso.replay_buffer ~per_call:per_call_buffer;
    prop_family "qlock" [ "acq_q"; "rel_q" ] ~family:Ccal_objects.Qlock.replay_qlock
      ~per_call:per_call_qlock;
    prop_family "ipc channel" [ "send"; "recv" ] ~family:Ccal_objects.Ipc.replay_chan
      ~per_call:per_call_chan;
    prop_family "shared queue" [ "enQ_s"; "deQ_s" ]
      ~family:Ccal_objects.Queue_shared.replay_queue ~per_call:per_call_queue;
    prop_family "rwlock" [ "acq_r"; "rel_r"; "acq_w"; "rel_w" ]
      ~family:Ccal_objects.Rwlock.replay_rw ~per_call:per_call_rw;
    (* one fold per layer, against one built afresh per call *)
    prop_family "scheduler" [ "yield"; "texit"; "sleep"; "wakeup" ]
      ~family:
        (let sched = Ccal_objects.Thread_sched.replay_sched placement in
         fun _ -> sched)
      ~per_call:(fun _ -> Ccal_objects.Thread_sched.replay_sched placement);
  ]

(* ---- log-growing loops in a replay scope ---- *)

(* The loops of [Simulation.drive] and [Machine.run_local] as they ran
   before they opened a scope of their own, kept as the reference: here no call finds a memo. *)
let unscoped_drive ?(max_moves = 10_000) ?(block_retries = 64) tid strat ~env :
    Simulation.driven =
  let stop ?ret ?(blocked = false) ?refused log moves =
    { Simulation.log; ret; moves; blocked; refused }
  in
  let rec loop strat log moves retries =
    if moves > max_moves then stop ~refused:Prog.steps_bound_exceeded log moves
    else
      let log = Log.append_all (env.Env_context.query ~focus:[ tid ] log) log in
      match strat.Strategy.step log with
      | Strategy.Move (evs, Strategy.Done v) -> stop ~ret:v (Log.append_all evs log) (moves + 1)
      | Strategy.Move (evs, Strategy.Next strat') ->
        loop strat' (Log.append_all evs log) (moves + 1) 0
      | Strategy.Blocked ->
        if retries >= block_retries then stop ~blocked:true log moves
        else loop strat log moves (retries + 1)
      | Strategy.Refuse msg -> stop ~refused:msg log moves
  in
  loop strat Log.empty 0 0

(* The outcome, log and move count of [Machine.run_local] without the
   guarantee check. *)
let unscoped_run_local ?(max_moves = 10_000) ?(block_retries = 64) layer tid ~env prog =
  let rec loop (st : Machine.thread_state) log moves retries =
    if moves > max_moves then Machine.Out_of_fuel, log, moves
    else
      let log =
        if st.crit then log else Log.append_all (env.Env_context.query ~focus:[ tid ] log) log
      in
      match Machine.step_move layer tid st log with
      | Machine.Finished (v, _) -> Machine.Done v, log, moves
      | Machine.Stuck (_, msg) -> Machine.Stuck_run msg, log, moves
      | Machine.Blocked_at (st, prim) ->
        if retries >= block_retries then Machine.No_progress ("blocked on " ^ prim), log, moves
        else if st.crit then
          Machine.No_progress ("blocked on " ^ prim ^ " in critical state"), log, moves
        else loop st log moves (retries + 1)
      | Machine.Moved (evs, st') -> loop st' (Log.append_all evs log) (moves + 1) 0
  in
  loop (Machine.initial layer tid prog) Log.empty 0 0

(* Random TSO programs and IPC programs over two channels: a focused
   thread 1, and a rival thread 2 as the environment context (under TSO
   with the environment draining the buffers). *)
type play_case = { tso : bool; mine : (string * Value.t list) list; rival : (string * Value.t list) list }

let play_case_gen =
  let open QCheck.Gen in
  let* tso = bool in
  let op =
    let* b = int_range 0 1 and* v = int_range 0 2 in
    if tso then
      oneofl
        [ Ccal_machine.Atomic.astore_tag, [ vi b; vi v ]; Ccal_machine.Atomic.aload_tag, [ vi b ];
          Ccal_machine.Atomic.faa_tag, [ vi b; vi 1 ]; Ccal_machine.Atomic.mfence_tag, [] ]
    else oneofl [ "send", [ vi b; vi v ]; "recv", [ vi b ] ]
  in
  let* mine = list_size (int_range 0 6) op and* rival = list_size (int_range 0 6) op in
  return { tso; mine; rival }

let play_cases =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "%s, %d and %d calls" (if c.tso then "tso" else "ipc")
                       (List.length c.mine) (List.length c.rival))
    play_case_gen

let prop_loops_scoped =
  qtc ~count:150 "Simulation.drive and Machine.run_local = their unscoped loops"
    play_cases (fun c ->
      let layer = if c.tso then Ccal_machine.Tso.layer () else Ccal_objects.Ipc.overlay () in
      let prog calls =
        Prog.seq_all (List.map (fun (p, args) -> Prog.call p args) calls @ [ Prog.ret (vi 7) ])
      in
      (* a fresh context per run: a strategy context is stateful *)
      let env () =
        let rival = Env_context.of_strategies "rival"
            [ 2, Machine.strategy_of_prog layer 2 (prog c.rival) ] ~rounds:1 in
        if c.tso then Ccal_machine.Tso.with_drain rival else rival
      in
      let d = Simulation.drive ~block_retries:3 1 (Machine.strategy_of_prog layer 1 (prog c.mine))
          ~env:(env ()) ~init_log:Log.empty in
      let d' =
        unscoped_drive ~block_retries:3 1 (Machine.strategy_of_prog layer 1 (prog c.mine))
          ~env:(env ())
      in
      let r = Machine.run_local ~block_retries:3 layer 1 ~env:(env ()) (prog c.mine) in
      let outcome, log, moves =
        unscoped_run_local ~block_retries:3 layer 1 ~env:(env ()) (prog c.mine)
      in
      Log.equal d.log d'.log && { d with log = d'.log } = d'
      && Log.equal r.log log && r.outcome = outcome && r.moves = moves)

let suite =
  [
    tc "value equal" test_value_equal;
    tc "value projections" test_value_projections;
    tc "value compare total" test_value_compare_total;
    tc "event basics" test_event_basics;
    tc "log append order" test_log_append_order;
    tc "log append_all" test_log_append_all;
    tc "log count" test_log_count;
    tc "log map_events" test_log_map_events;
    tc "replay fold" test_replay_fold;
    prop_chronological_reverses;
    prop_append_length;
    prop_filter_keeps_order;
    prop_map_events_id;
    prop_append_all_extends;
    prop_value_equal_refl;
    prop_event_hash_is_tuple_hash;
    prop_dedup_collisions;
    prop_incremental_fold_is_chronological;
    tc "incremental fold cost" test_incremental_fold_cost;
    prop_loops_scoped;
  ]
  @ family_props
