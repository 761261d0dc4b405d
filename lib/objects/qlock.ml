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

let replay_qlock : int -> Event.tid option Replay.t =
  Replay.family ~route:(Replay.on_objects [ acq_q_tag; rel_q_tag ]) ~init:None
    ~step:(fun holder (e : Event.t) ->
      (* [on_objects] routed [e] here by the lock it names *)
      let l = Option.get (Event.obj_of_args e.args) in
      if String.equal e.tag acq_q_tag then
        match holder with
        | None -> Ok (Some e.src)
        | Some h ->
          Error
            (Printf.sprintf "invalid log: thread %d acquires qlock %d held by %d"
               e.src l h)
      else
        match holder with
        | Some h when h = e.src -> Ok None
        | _ -> Error (Printf.sprintf "invalid log: thread %d releases qlock %d" e.src l))

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

let overlay () =
  let cond = Rg.lock_condition ~acq_tag:acq_q_tag ~rel_tag:rel_q_tag () in
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

(* Lock 3, rivals 9 and 8 taking it, and the focused CPU's yielding
   siblings. *)
let recipe =
  let l = Value.int 3 in
  {
    Object_intf.underlay = (fun _ placement -> underlay ~placement ());
    overlay = overlay ();
    c_module;
    asm_module = Some asm_module;
    rel = r_qlock;
    prim_tests =
      [
        acq_q_tag,
          [
            Calculus.case [ l ];
            Calculus.case ~pre:[ acq_q_tag, [ l ]; rel_q_tag, [ l ] ] [ l ];
          ];
        rel_q_tag, [ Calculus.case ~pre:[ acq_q_tag, [ l ] ] [ l ] ];
      ];
    rival =
      (fun () ->
        Prog.Module.link (c_module ())
          (Prog.seq_all
             [ Prog.call acq_q_tag [ l ]; Prog.call rel_q_tag [ l ];
               Prog.call T.exit_tag [] ]));
    rivals = [ 9; 8 ];
    groups = [ 1; 2 ];
    siblings = true;
    focus = [ 1; 2 ];
  }
