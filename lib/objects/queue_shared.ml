open Ccal_core
module C = Ccal_clight.Csyntax

let deq_tag = "deQ_s"
let enq_tag = "enQ_s"

(* Silent list helpers used inside the critical section; an int-valued
   protected cell (the initial 0) reads as the empty queue. *)
let as_list = function
  | Value.Vlist vs -> vs
  | _ -> []

let q_hd_prim =
  Layer.pure_private "q_hd" (fun args ->
      match args with
      | [ l ] -> ( match as_list l with [] -> Value.int (-1) | v :: _ -> v)
      | _ -> Value.int (-1))

let q_tl_prim =
  Layer.pure_private "q_tl" (fun args ->
      match args with
      | [ l ] -> (
        match as_list l with [] -> Value.list [] | _ :: rest -> Value.list rest)
      | _ -> Value.list [])

let q_snoc_prim =
  Layer.pure_private "q_snoc" (fun args ->
      match args with
      | [ l; v ] -> Value.list (as_list l @ [ v ])
      | _ -> Value.list [])

let q_len_prim =
  Layer.pure_private "q_len" (fun args ->
      match args with
      | [ l ] -> Value.int (List.length (as_list l))
      | _ -> Value.int 0)

let helpers = [ q_hd_prim; q_tl_prim; q_snoc_prim; q_len_prim ]

let underlay () = Lock_intf.layer ~extra:helpers "Lq"

(* ------------------------------------------------------------------ *)
(* Atomic overlay                                                      *)
(* ------------------------------------------------------------------ *)

let replay_queue : int -> Value.t list Replay.t =
  Replay.family ~route:(Replay.on_objects [ enq_tag; deq_tag ]) ~init:[]
    ~step:(fun vs (e : Event.t) ->
      if String.equal e.tag enq_tag then
        match e.args with
        | [ _; v ] -> Ok (vs @ [ v ])
        | _ -> Error "enQ_s: bad arguments"
      else Ok (match vs with [] -> [] | _ :: rest -> rest))

let deq_prim =
  Layer.event_prim deq_tag (fun _c args log ->
      match Event.obj_of_args args with
      | Some q ->
        Result.map
          (function [] -> Value.int (-1) | v :: _ -> v)
          (replay_queue q log)
      | None -> Error "deQ_s: expected a queue")

let enq_prim =
  Layer.event_prim enq_tag (fun _c args log ->
      match Event.obj_of_args args with
      | Some q -> Result.map (fun _ -> Value.unit) (replay_queue q log)
      | None -> Error "enQ_s: expected queue and value")

let overlay () =
  let cond = Lock_intf.condition () in
  Layer.make ~rely:cond ~guar:cond "Lq_high" [ deq_prim; enq_prim ]

(* ------------------------------------------------------------------ *)
(* Implementation (Sec. 4.2): wrap the queue operation in the lock     *)
(* ------------------------------------------------------------------ *)

let deq_fn =
  {
    C.name = deq_tag;
    params = [ "q" ];
    locals = [ "l"; "r"; "l2" ];
    body =
      C.seq
        [
          C.calla "l" Lock_intf.acq_tag [ C.v "q" ];
          C.calla "r" "q_hd" [ C.v "l" ];
          C.calla "l2" "q_tl" [ C.v "l" ];
          C.call_ Lock_intf.rel_tag [ C.v "q"; C.v "l2" ];
          C.return (C.v "r");
        ];
  }

let enq_fn =
  {
    C.name = enq_tag;
    params = [ "q"; "val" ];
    locals = [ "l"; "l2" ];
    body =
      C.seq
        [
          C.calla "l" Lock_intf.acq_tag [ C.v "q" ];
          C.calla "l2" "q_snoc" [ C.v "l"; C.v "val" ];
          C.call_ Lock_intf.rel_tag [ C.v "q"; C.v "l2" ];
          C.return_unit;
        ];
  }

let fns = [ deq_fn; enq_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
let asm_module () = Ccal_compcertx.Compile.compile_module fns

(* Rlock (Sec. 4.2): merge each thread's [acq(q) … rel(q, l')] pair into
   the single atomic event, inferred from how the published list differs
   from the acquired one. *)
let r_lock =
  Sim_rel.of_log_fn "Rlock" (fun log ->
      let translate (pending, out) (e : Event.t) =
        if String.equal e.tag Lock_intf.acq_tag then
          match e.args with
          | [ Value.Vint q ] ->
            (e.src, (q, as_list e.ret)) :: pending, out
          | _ -> pending, e :: out
        else if String.equal e.tag Lock_intf.rel_tag then
          match e.args, List.assoc_opt e.src pending with
          | [ Value.Vint q; l2v ], Some (q', l) when q = q' ->
            let pending = List.remove_assoc e.src pending in
            let l2 = as_list l2v in
            let ev =
              if List.length l2 > List.length l then
                let v = List.nth l2 (List.length l2 - 1) in
                Event.make ~args:[ Value.int q; v ] e.src enq_tag
              else
                let ret =
                  match l with [] -> Value.int (-1) | v :: _ -> v
                in
                Event.make ~args:[ Value.int q ] ~ret e.src deq_tag
            in
            pending, ev :: out
          | _ -> pending, e :: out
        else pending, e :: out
      in
      let _, out =
        List.fold_left translate ([], []) (Log.chronological log)
      in
      Log.append_all (List.rev out) Log.empty)

(* Queue 0, with rivals 9 and 8 together enqueuing and dequeuing on it. *)
let recipe =
  let q = Value.int 0 in
  let e v = enq_tag, [ q; Value.int v ] and d = deq_tag, [ q ] in
  {
    Object_intf.underlay = (fun _ _ -> underlay ());
    overlay = overlay ();
    c_module;
    asm_module = Some asm_module;
    rel = r_lock;
    prim_tests =
      [
        deq_tag,
          [
            Calculus.case [ q ];
            Calculus.case ~pre:[ e 4 ] [ q ];
            Calculus.case ~pre:[ e 4; e 5; d ] [ q ];
          ];
        enq_tag,
          [
            Calculus.case [ q; Value.int 9 ];
            Calculus.case ~pre:[ e 1; d; d ] [ q; Value.int 2 ];
          ];
      ];
    rival =
      (fun () ->
        Prog.Module.link (c_module ())
          (Prog.seq (Prog.call enq_tag [ q; Value.int 42 ])
             (Prog.bind (Prog.call deq_tag [ q ]) (fun _ -> Prog.ret_unit))));
    rivals = [ 9; 8 ];
    groups = [ 2 ];
    siblings = false;
    focus = [ 1; 2 ];
  }

(* The Fig. 5 pipeline extended to the queue: ticket lock under the shared
   queue.  The intermediate interface must carry the silent helpers
   through, so the lock certificate is taken against [Lq]-named layers. *)
let full_stack_certify ?(memory = Memory.default) ?(focus = [ 1; 2 ]) () =
  let l0q memory _ =
    let base = Ticket_lock.l0 ~memory () in
    Layer.make ~rely:base.Layer.rely ~guar:base.Layer.guar "L0_q"
      (base.Layer.prims @ helpers)
  in
  let lock =
    { Ticket_lock.recipe with Object_intf.underlay = l0q; overlay = underlay () }
  in
  match Object_intf.certify lock ~memory ~focus () with
  | Error _ as e -> e
  | Ok c1 -> (
    match Object_intf.certify recipe ~focus () with
    | Error _ as e -> e
    | Ok c2 -> Calculus.vcomp c1 c2)
