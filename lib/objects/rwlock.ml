open Ccal_core
module C = Ccal_clight.Csyntax

let acq_r_tag = "acq_r"
let rel_r_tag = "rel_r"
let acq_w_tag = "acq_w"
let rel_w_tag = "rel_w"

type rw_state =
  | Free
  | Readers of int
  | Writer of Event.tid

let underlay () = Lock_intf.layer "Llock"

(* ------------------------------------------------------------------ *)
(* Overlay                                                             *)
(* ------------------------------------------------------------------ *)

(* Internal replay tracks reader identities so that a stray [rel_r] is an
   invalid log, not a silent no-op. *)
let replay_readers : int -> (Event.tid list option * Event.tid option) Replay.t =
  (* (Some readers, None) or (None, Some writer); (Some [], None) = free *)
  Replay.family
    ~route:(Replay.on_objects [ acq_r_tag; rel_r_tag; acq_w_tag; rel_w_tag ])
    ~init:(Some [], None)
    ~step:(fun st (e : Event.t) ->
      match e.tag, st with
      | tag, (Some readers, None) when String.equal tag acq_r_tag ->
        Ok (Some (e.src :: readers), None)
      | tag, (Some readers, None) when String.equal tag rel_r_tag ->
        (* a thread may hold several read acquisitions; remove one *)
        let rec remove_one = function
          | [] -> None
          | t :: rest ->
            if t = e.src then Some rest
            else Option.map (fun r -> t :: r) (remove_one rest)
        in
        (match remove_one readers with
        | Some readers' -> Ok (Some readers', None)
        | None -> Error (Printf.sprintf "thread %d rel_r without acq_r" e.src))
      | tag, (Some [], None) when String.equal tag acq_w_tag -> Ok (None, Some e.src)
      | tag, (None, Some w) when String.equal tag rel_w_tag && w = e.src ->
        Ok (Some [], None)
      | tag, _ ->
        Error
          (Printf.sprintf "invalid rwlock log: %s by %d in the wrong state" tag e.src))

let replay_rw l : rw_state Replay.t =
 fun log ->
  match replay_readers l log with
  | Error _ as e -> e
  | Ok (Some [], None) -> Ok Free
  | Ok (Some readers, None) -> Ok (Readers (List.length readers))
  | Ok (_, Some w) -> Ok (Writer w)
  | Ok (None, None) -> Ok Free

let event_of t args tag = Event.make ~args t tag

let acq_r_prim =
  ( acq_r_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "acq_r: expected a lock"
        | Some l -> (
          match replay_rw l log with
          | Error msg -> Layer.Stuck msg
          | Ok (Writer _) -> Layer.Block
          | Ok (Free | Readers _) ->
            Layer.Step
              { events = [ event_of t args acq_r_tag ]; ret = Value.unit; crit = Layer.Keep })) )

let rel_r_prim =
  ( rel_r_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "rel_r: expected a lock"
        | Some l -> (
          match replay_readers l log with
          | Error msg -> Layer.Stuck msg
          | Ok (Some readers, None) when List.mem t readers ->
            Layer.Step
              { events = [ event_of t args rel_r_tag ]; ret = Value.unit; crit = Layer.Keep }
          | Ok _ ->
            Layer.Stuck (Printf.sprintf "thread %d rel_r without holding" t))) )

let acq_w_prim =
  ( acq_w_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "acq_w: expected a lock"
        | Some l -> (
          match replay_rw l log with
          | Error msg -> Layer.Stuck msg
          | Ok Free ->
            Layer.Step
              { events = [ event_of t args acq_w_tag ]; ret = Value.unit; crit = Layer.Enter }
          | Ok (Readers _ | Writer _) -> Layer.Block)) )

let rel_w_prim =
  ( rel_w_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "rel_w: expected a lock"
        | Some l -> (
          match replay_rw l log with
          | Error msg -> Layer.Stuck msg
          | Ok (Writer w) when w = t ->
            Layer.Step
              { events = [ event_of t args rel_w_tag ]; ret = Value.unit; crit = Layer.Exit }
          | Ok _ -> Layer.Stuck (Printf.sprintf "thread %d rel_w without holding" t))) )

let overlay () =
  let cond = Rg.lock_condition ~acq_tag:acq_w_tag ~rel_tag:rel_w_tag () in
  Layer.make ~rely:cond ~guar:cond "Lrwlock"
    [ acq_r_prim; rel_r_prim; acq_w_prim; rel_w_prim ]

(* ------------------------------------------------------------------ *)
(* Implementation over the spinlock                                    *)
(* ------------------------------------------------------------------ *)

(* The spinlock-protected word: 0 free, n > 0 readers, -1 writer. *)

let spin_loop_until ~publish_cond ~publish =
  (* ok = 0; while (!ok) { v = acq(l); if (cond v) { rel(l, publish v); ok = 1 }
     else { rel(l, v) } } *)
  C.seq
    [
      C.set "ok" (C.i 0);
      C.while_
        C.(v "ok" = i 0)
        (C.seq
           [
             C.calla "w" Lock_intf.acq_tag [ C.v "l" ];
             C.if_ publish_cond
               (C.seq
                  [
                    C.call_ Lock_intf.rel_tag [ C.v "l"; publish ];
                    C.set "ok" (C.i 1);
                  ])
               (C.call_ Lock_intf.rel_tag [ C.v "l"; C.v "w" ]);
           ]);
      C.return_unit;
    ]

let acq_r_fn =
  {
    C.name = acq_r_tag;
    params = [ "l" ];
    locals = [ "w"; "ok" ];
    body = spin_loop_until ~publish_cond:C.(v "w" >= i 0) ~publish:C.(v "w" + i 1);
  }

let rel_r_fn =
  {
    C.name = rel_r_tag;
    params = [ "l" ];
    locals = [ "w" ];
    body =
      C.seq
        [
          C.calla "w" Lock_intf.acq_tag [ C.v "l" ];
          C.call_ Lock_intf.rel_tag [ C.v "l"; C.(v "w" - i 1) ];
          C.return_unit;
        ];
  }

let acq_w_fn =
  {
    C.name = acq_w_tag;
    params = [ "l" ];
    locals = [ "w"; "ok" ];
    body = spin_loop_until ~publish_cond:C.(v "w" = i 0) ~publish:(C.i (-1));
  }

let rel_w_fn =
  {
    C.name = rel_w_tag;
    params = [ "l" ];
    locals = [ "w" ];
    body =
      C.seq
        [
          C.calla "w" Lock_intf.acq_tag [ C.v "l" ];
          C.call_ Lock_intf.rel_tag [ C.v "l"; C.i 0 ];
          C.return_unit;
        ];
  }

let fns = [ acq_r_fn; rel_r_fn; acq_w_fn; rel_w_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
let asm_module () = Ccal_compcertx.Compile.compile_module fns

(* ------------------------------------------------------------------ *)
(* Simulation relation                                                 *)
(* ------------------------------------------------------------------ *)

let r_rw =
  Sim_rel.of_log_fn "R_rw" (fun log ->
      let step (sections, out) (e : Event.t) =
        if String.equal e.tag Lock_intf.acq_tag then
          match e.args, e.ret with
          | [ Value.Vint l ], Value.Vint v -> (e.src, (l, v)) :: sections, out
          | _ -> sections, e :: out
        else if String.equal e.tag Lock_intf.rel_tag then
          match e.args, List.assoc_opt e.src sections with
          | [ Value.Vint l; Value.Vint v' ], Some (l', v) when l = l' ->
            let sections = List.remove_assoc e.src sections in
            let emit tag = Event.make ~args:[ Value.int l ] e.src tag :: out in
            if v' = v then sections, out (* failed attempt *)
            else if v >= 0 && v' = v + 1 then sections, emit acq_r_tag
            else if v > 0 && v' = v - 1 then sections, emit rel_r_tag
            else if v = 0 && v' = -1 then sections, emit acq_w_tag
            else if v = -1 && v' = 0 then sections, emit rel_w_tag
            else sections, e :: out
          | _ -> sections, e :: out
        else sections, e :: out
      in
      let _, out = List.fold_left step ([], []) (Log.chronological log) in
      Log.append_all (List.rev out) Log.empty)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

(* Lock 4, with rival 9 cycling a read round and a write round on it. *)
let recipe =
  let l = Value.int 4 in
  let ar = acq_r_tag, [ l ] and rr = rel_r_tag, [ l ] in
  let aw = acq_w_tag, [ l ] and rw = rel_w_tag, [ l ] in
  {
    Object_intf.underlay = (fun _ _ -> underlay ());
    overlay = overlay ();
    c_module;
    asm_module = Some asm_module;
    rel = r_rw;
    prim_tests =
      [
        acq_r_tag,
          [ Calculus.case [ l ];
            Calculus.case ~pre:[ ar ] [ l ];  (* second reader *)
            Calculus.case ~pre:[ aw; rw ] [ l ] ];
        rel_r_tag,
          [ Calculus.case ~pre:[ ar ] [ l ];
            Calculus.case ~pre:[ ar; ar; rr ] [ l ] ];
        acq_w_tag,
          [ Calculus.case [ l ];
            Calculus.case ~pre:[ ar; rr ] [ l ] ];
        rel_w_tag, [ Calculus.case ~pre:[ aw ] [ l ] ];
      ];
    rival =
      (fun () ->
        Prog.Module.link (c_module ())
          (Prog.seq_all
             (List.map (fun (tag, args) -> Prog.call tag args) [ ar; rr; aw; rw ])));
    rivals = [ 9 ];
    groups = [ 1 ];
    siblings = false;
    focus = [ 1; 2 ];
  }

(* A stuck fold stays stuck, so every prefix replays iff the whole log does. *)
let no_reader_writer_overlap log =
  let locks =
    List.sort_uniq Stdlib.compare
      (List.filter_map
         (fun (e : Event.t) ->
           if List.mem e.tag [ acq_r_tag; rel_r_tag; acq_w_tag; rel_w_tag ] then
             Event.obj_of_args e.args
           else None)
         (Log.newest_first log))
  in
  Replay.scoped (fun () -> List.for_all (fun l -> Replay.well_formed (replay_rw l) log) locks)
