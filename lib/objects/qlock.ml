open Ccal_core
module C = Ccal_clight.Csyntax
module T = Thread_sched

let acq_q_tag = "acq_q"
let rel_q_tag = "rel_q"

let underlay ~placement () =
  T.mt_layer placement (Lock_intf.layer "Llock")

(* ------------------------------------------------------------------ *)
(* Atomic overlay: the thread-local world of Sec. 5.3                  *)
(* ------------------------------------------------------------------ *)

let replay_qlock l : Event.tid option Replay.t =
  Replay.fold ~init:None ~step:(fun holder (e : Event.t) ->
      match Event.obj_of_args e.args with
      | Some l' when l' = l ->
        if String.equal e.tag acq_q_tag then
          match holder with
          | None -> Ok (Some e.src)
          | Some h ->
            Error
              (Printf.sprintf
                 "invalid log: thread %d acquires qlock %d held by %d" e.src l h)
        else if String.equal e.tag rel_q_tag then
          match holder with
          | Some h when h = e.src -> Ok None
          | _ ->
            Error
              (Printf.sprintf "invalid log: thread %d releases qlock %d" e.src l)
        else Ok holder
      | Some _ | None -> Ok holder)

let acq_q_prim =
  ( acq_q_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "acq_q: expected a lock"
        | Some l -> (
          match replay_qlock l log with
          | Error msg -> Layer.Stuck msg
          | Ok (Some _) -> Layer.Block
          | Ok None ->
            Layer.Step
              {
                events = [ Event.make ~args t acq_q_tag ];
                ret = Value.unit;
                crit = Layer.Enter;
              })) )

let rel_q_prim =
  ( rel_q_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "rel_q: expected a lock"
        | Some l -> (
          match replay_qlock l log with
          | Error msg -> Layer.Stuck msg
          | Ok (Some h) when h = t ->
            Layer.Step
              {
                events = [ Event.make ~args t rel_q_tag ];
                ret = Value.unit;
                crit = Layer.Exit;
              }
          | Ok _ ->
            Layer.Stuck
              (Printf.sprintf "thread %d releases qlock %d it does not hold" t l))) )

let overlay ?bound () =
  let cond =
    Rg.lock_condition ?bound ~acq_tag:acq_q_tag ~rel_tag:rel_q_tag ()
  in
  Layer.make ~rely:cond ~guar:cond "Lqlock"
    [
      acq_q_prim;
      rel_q_prim;
      T.noop_event_prim T.yield_tag;
      T.noop_event_prim T.exit_tag;
    ]

(* ------------------------------------------------------------------ *)
(* Implementation (Fig. 11)                                            *)
(* ------------------------------------------------------------------ *)

(*  void acq_q(int l) {
      int busy = acq(l);
      if (busy != 0) { sleep(l, l, busy); wait(l); }
      else { rel(l, get_tid()); }
    } *)
let acq_q_fn =
  {
    C.name = acq_q_tag;
    params = [ "l" ];
    locals = [ "busy"; "me" ];
    body =
      C.seq
        [
          C.calla "busy" Lock_intf.acq_tag [ C.v "l" ];
          C.if_
            C.(v "busy" <> i 0)
            (C.seq
               [
                 C.call_ T.sleep_tag [ C.v "l"; C.v "l"; C.v "busy" ];
                 C.call_ T.wait_tag [ C.v "l" ];
               ])
            (C.seq
               [
                 C.calla "me" "get_tid" [];
                 C.call_ Lock_intf.rel_tag [ C.v "l"; C.v "me" ];
               ]);
          C.return_unit;
        ];
  }

(*  void rel_q(int l) {
      acq(l);
      int w = wakeup(l);
      rel(l, w);             // ql_busy[l] = wakeup(l)
    } *)
let rel_q_fn =
  {
    C.name = rel_q_tag;
    params = [ "l" ];
    locals = [ "busy"; "w" ];
    body =
      C.seq
        [
          C.calla "busy" Lock_intf.acq_tag [ C.v "l" ];
          C.calla "w" T.wakeup_tag [ C.v "l" ];
          C.call_ Lock_intf.rel_tag [ C.v "l"; C.v "w" ];
          C.return_unit;
        ];
  }

let fns = [ acq_q_fn; rel_q_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
let asm_module () = Ccal_compcertx.Compile.compile_module fns

(* ------------------------------------------------------------------ *)
(* The simulation relation                                             *)
(* ------------------------------------------------------------------ *)

type section = {
  lock : int;
  woken : Event.tid option;  (** a wakeup happened; the thread it woke *)
}

(* The linearization points: a fast-path acquire linearizes at its
   spinlock release (publishing the caller's id); a release linearizes at
   its spinlock release, and when it woke a sleeper the hand-off makes the
   sleeper's acquire linearize immediately after (the [ql_busy[l] =
   wakeup(l)] assignment of Fig. 11 transfers ownership directly) — the
   woken thread's later [wait] is scheduling noise at this level. *)
let r_qlock =
  Sim_rel.of_log_fn "R_qlock" (fun log ->
      let step (sections, out) (e : Event.t) =
        let in_section = List.assoc_opt e.src sections in
        if String.equal e.tag Lock_intf.acq_tag then
          match Event.obj_of_args e.args with
          | Some l -> (e.src, { lock = l; woken = None }) :: sections, out
          | None -> sections, e :: out
        else if String.equal e.tag T.wakeup_tag then
          match in_section, e.ret with
          | Some s, Value.Vint w ->
            (e.src, { s with woken = Some w }) :: List.remove_assoc e.src sections,
            out
          | _ -> sections, out
        else if String.equal e.tag Lock_intf.rel_tag then
          match e.args, in_section with
          | [ Value.Vint l; v ], Some s when s.lock = l ->
            let sections = List.remove_assoc e.src sections in
            (match s.woken with
            | Some w ->
              let out =
                Event.make ~args:[ Value.int l ] e.src rel_q_tag :: out
              in
              let out =
                if w > 0 then
                  Event.make ~args:[ Value.int l ] w acq_q_tag :: out
                else out
              in
              sections, out
            | None ->
              if Value.equal v (Value.int e.src) then
                (* fast path: published own id *)
                sections, Event.make ~args:[ Value.int l ] e.src acq_q_tag :: out
              else
                (* the release half of a sleep: no overlay event *)
                sections, out)
          | _ -> sections, e :: out
        else if
          String.equal e.tag T.wait_tag || String.equal e.tag T.sleep_tag
        then sections, out
        else sections, e :: out
      in
      let _, out = List.fold_left step ([], []) (Log.chronological log) in
      Log.append_all (List.rev out) Log.empty)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

let prim_tests ?(locks = [ 3 ]) () : Calculus.prim_tests =
  List.concat_map
    (fun l ->
      let il = Value.int l in
      [
        acq_q_tag,
          [
            Calculus.case [ il ];
            Calculus.case ~pre:[ acq_q_tag, [ il ]; rel_q_tag, [ il ] ] [ il ];
          ];
        rel_q_tag, [ Calculus.case ~pre:[ acq_q_tag, [ il ] ] [ il ] ];
      ])
    locks

let rival_prog l =
  Prog.seq
    (Prog.call acq_q_tag [ Value.int l ])
    (Prog.seq
       (Prog.call rel_q_tag [ Value.int l ])
       (Prog.call T.exit_tag []))

(* Unfolded lazily through the continuation, so construction terminates. *)
let yield_forever_prog =
  let rec loop () = Prog.bind (Prog.call T.yield_tag []) (fun _ -> loop ()) in
  loop ()

let env_suite ~placement () : Calculus.env_suite =
 fun i ->
  let layer = underlay ~placement () in
  let impl = c_module () in
  let rivals = List.filter (fun j -> j <> i) [ 9; 8 ] in
  let rival j =
    j, Machine.strategy_of_prog layer j (Prog.Module.link impl (rival_prog 3))
  in
  (* Threads sharing the focused thread's CPU must keep yielding, or the
     focused thread would never be rescheduled after sleeping. *)
  let my_cpu = List.assoc_opt i placement in
  let siblings =
    List.filter_map
      (fun (t, c) ->
        if t <> i && (not (List.mem t rivals)) && Some c = my_cpu then
          Some (t, Machine.strategy_of_prog layer t yield_forever_prog)
        else None)
      placement
  in
  (* With siblings on the focused CPU the silent context is not valid —
     the focused thread may start descheduled and needs their yields. *)
  (match siblings with
  | [] -> Env_context.empty
  | _ -> Env_context.of_strategies "siblings-only" siblings ~rounds:1)
  :: List.concat_map
       (fun per_query ->
         match rivals with
         | [] -> []
         | [ j ] ->
           [
             Env_context.of_strategies
               (Printf.sprintf "one-rival(r%d)" per_query)
               (rival j :: siblings) ~rounds:per_query;
           ]
         | j :: k :: _ ->
           [
             Env_context.of_strategies
               (Printf.sprintf "one-rival(r%d)" per_query)
               (rival j :: siblings) ~rounds:per_query;
             Env_context.of_strategies
               (Printf.sprintf "two-rivals(r%d)" per_query)
               (rival j :: rival k :: siblings)
               ~rounds:per_query;
           ])
       [ 1; 2 ]

let certify ?max_moves ?placement ?(focus = [ 1; 2 ]) ?(use_asm = false) () =
  let rivals = [ 9; 8 ] in
  let placement =
    match placement with
    | Some p -> p
    | None -> T.default_placement focus rivals
  in
  let impl = if use_asm then asm_module () else c_module () in
  Calculus.fun_rule ?max_moves ~underlay:(underlay ~placement ())
    ~overlay:(overlay ()) ~impl ~rel:r_qlock ~focus
    ~prim_tests:(prim_tests ())
    ~envs:(env_suite ~placement ()) ()
