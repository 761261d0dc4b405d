open Ccal_core
module C = Ccal_clight.Csyntax
module T = Thread_sched

let send_tag = "send"
let recv_tag = "recv"

(* Channel capacity: small enough that tests exercise the full/empty
   blocking paths. *)
let capacity = 2

(* Condition-variable channels of channel [ch]: not-full and not-empty. *)
let notfull ch = C.Binop (C.Add, C.Binop (C.Mul, ch, C.Const 2), C.Const 1000)
let notempty ch = C.Binop (C.Add, C.Binop (C.Mul, ch, C.Const 2), C.Const 1001)

let underlay ~placement () =
  T.mt_layer placement
    (Lock_intf.layer ~extra:Queue_shared.helpers "Lipc_under")

(* ------------------------------------------------------------------ *)
(* Atomic overlay                                                      *)
(* ------------------------------------------------------------------ *)

let replay_chan : int -> Value.t list Replay.t =
  Replay.family ~route:(Replay.on_objects [ send_tag; recv_tag ]) ~init:[]
    ~step:(fun buf (e : Event.t) ->
      if String.equal e.tag send_tag then
        match e.args with
        | [ _; v ] ->
          if List.length buf >= capacity then Error "invalid log: send to a full channel"
          else Ok (buf @ [ v ])
        | _ -> Error "send: bad arguments"
      else
        match buf with
        | [] -> Error "invalid log: recv from an empty channel"
        | _ :: rest -> Ok rest)

let send_prim =
  ( send_tag,
    Layer.Shared
      (fun t args log ->
        match args with
        | [ Value.Vint ch; _ ] -> (
          match replay_chan ch log with
          | Error msg -> Layer.Stuck msg
          | Ok buf ->
            if List.length buf >= capacity then Layer.Block
            else
              Layer.Step
                {
                  events = [ Event.make ~args t send_tag ];
                  ret = Value.unit;
                  crit = Layer.Keep;
                })
        | _ -> Layer.Stuck "send: expected channel and message") )

let recv_prim =
  ( recv_tag,
    Layer.Shared
      (fun t args log ->
        match Event.obj_of_args args with
        | None -> Layer.Stuck "recv: expected a channel"
        | Some ch -> (
          match replay_chan ch log with
          | Error msg -> Layer.Stuck msg
          | Ok [] -> Layer.Block
          | Ok (v :: _) ->
            Layer.Step
              {
                events = [ Event.make ~args ~ret:v t recv_tag ];
                ret = v;
                crit = Layer.Keep;
              })) )

let overlay () =
  Layer.make "Lipc"
    [
      send_prim;
      recv_prim;
      T.noop_event_prim T.yield_tag;
      T.noop_event_prim T.exit_tag;
    ]

(* ------------------------------------------------------------------ *)
(* Implementation: bounded buffer with two condition variables         *)
(* ------------------------------------------------------------------ *)

(*  void send(int ch, int msg) {
      int buf = acq(ch);
      int n = q_len(buf);
      while (n >= CAP) {
        cv_wait(notfull(ch), ch, buf);
        buf = acq(ch);
        n = q_len(buf);
      }
      int buf2 = q_snoc(buf, msg);
      cv_signal(notempty(ch));
      rel(ch, buf2);
    } *)
let send_fn =
  {
    C.name = send_tag;
    params = [ "ch"; "msg" ];
    locals = [ "buf"; "n"; "buf2"; "w" ];
    body =
      C.seq
        [
          C.calla "buf" Lock_intf.acq_tag [ C.v "ch" ];
          C.calla "n" "q_len" [ C.v "buf" ];
          C.while_
            C.(v "n" >= i capacity)
            (C.seq
               [
                 C.call_ "cv_wait" [ notfull (C.v "ch"); C.v "ch"; C.v "buf" ];
                 C.calla "buf" Lock_intf.acq_tag [ C.v "ch" ];
                 C.calla "n" "q_len" [ C.v "buf" ];
               ]);
          C.calla "buf2" "q_snoc" [ C.v "buf"; C.v "msg" ];
          C.calla "w" "cv_signal" [ notempty (C.v "ch") ];
          C.call_ Lock_intf.rel_tag [ C.v "ch"; C.v "buf2" ];
          C.return_unit;
        ];
  }

(*  int recv(int ch) {
      int buf = acq(ch);
      int n = q_len(buf);
      while (n == 0) {
        cv_wait(notempty(ch), ch, buf);
        buf = acq(ch);
        n = q_len(buf);
      }
      int m = q_hd(buf);
      int buf2 = q_tl(buf);
      cv_signal(notfull(ch));
      rel(ch, buf2);
      return m;
    } *)
let recv_fn =
  {
    C.name = recv_tag;
    params = [ "ch" ];
    locals = [ "buf"; "n"; "m"; "buf2"; "w" ];
    body =
      C.seq
        [
          C.calla "buf" Lock_intf.acq_tag [ C.v "ch" ];
          C.calla "n" "q_len" [ C.v "buf" ];
          C.while_
            C.(v "n" = i 0)
            (C.seq
               [
                 C.call_ "cv_wait" [ notempty (C.v "ch"); C.v "ch"; C.v "buf" ];
                 C.calla "buf" Lock_intf.acq_tag [ C.v "ch" ];
                 C.calla "n" "q_len" [ C.v "buf" ];
               ]);
          C.calla "m" "q_hd" [ C.v "buf" ];
          C.calla "buf2" "q_tl" [ C.v "buf" ];
          C.calla "w" "cv_signal" [ notfull (C.v "ch") ];
          C.call_ Lock_intf.rel_tag [ C.v "ch"; C.v "buf2" ];
          C.return (C.v "m");
        ];
  }

let fns = [ send_fn; recv_fn ]

let c_module () =
  Prog.Module.stack
    ~lower:(Condvar.c_module ())
    ~upper:(Ccal_clight.Csem.module_of_fns fns)

(* ------------------------------------------------------------------ *)
(* Simulation relation: merge each productive spinlock section into    *)
(* its atomic event; sleeping retries disappear.                       *)
(* ------------------------------------------------------------------ *)

let as_list = function
  | Value.Vlist vs -> vs
  | _ -> []

let r_ipc =
  Sim_rel.of_log_fn "R_ipc" (fun log ->
      let step (sections, out) (e : Event.t) =
        let in_section = List.assoc_opt e.src sections in
        if String.equal e.tag Lock_intf.acq_tag then
          match e.args with
          | [ Value.Vint ch ] -> (e.src, (ch, as_list e.ret)) :: sections, out
          | _ -> sections, e :: out
        else if String.equal e.tag Lock_intf.rel_tag then
          match e.args, in_section with
          | [ Value.Vint ch; bufv ], Some (ch', buf) when ch = ch' ->
            let sections = List.remove_assoc e.src sections in
            let buf2 = as_list bufv in
            let n = List.length buf and n2 = List.length buf2 in
            if n2 > n then
              let v = List.nth buf2 (n2 - 1) in
              sections,
              Event.make ~args:[ Value.int ch; v ] e.src send_tag :: out
            else if n2 < n then
              let ret = match buf with v :: _ -> v | [] -> Value.int (-1) in
              sections,
              Event.make ~args:[ Value.int ch ] ~ret e.src recv_tag :: out
            else (* unchanged: the release half of a sleeping retry *)
              sections, out
          | _ -> sections, e :: out
        else if
          List.mem e.tag [ T.sleep_tag; T.wait_tag; T.wakeup_tag ]
        then sections, out
        else sections, e :: out
      in
      let _, out = List.fold_left step ([], []) (Log.chronological log) in
      Log.append_all (List.rev out) Log.empty)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

(* Channel 5 and rival 9, sending and receiving on it.  Only
   non-blocking cases here: the sleeping paths need a cooperating peer and
   are exercised by the refinement games and the test-suite's
   producer/consumer scenarios. *)
let recipe =
  let ch = Value.int 5 in
  let s v = send_tag, [ ch; Value.int v ] and r = recv_tag, [ ch ] in
  {
    Object_intf.underlay = (fun _ placement -> underlay ~placement ());
    overlay = overlay ();
    c_module;
    asm_module = None;
    rel = r_ipc;
    prim_tests =
      [
        send_tag,
          [
            Calculus.case [ ch; Value.int 11 ];
            Calculus.case ~pre:[ s 1 ] [ ch; Value.int 12 ];
            Calculus.case ~pre:[ s 1; r ] [ ch; Value.int 13 ];
          ];
        recv_tag,
          [
            Calculus.case ~pre:[ s 21 ] [ ch ];
            Calculus.case ~pre:[ s 21; s 22 ] [ ch ];
            Calculus.case ~pre:[ s 21; s 22; r ] [ ch ];
          ];
      ];
    rival =
      (fun () ->
        Prog.Module.link (c_module ())
          (Prog.seq_all
             [ Prog.call send_tag [ ch; Value.int 42 ]; Prog.call recv_tag [ ch ];
               Prog.call T.exit_tag [] ]));
    rivals = [ 9 ];
    groups = [ 1 ];
    siblings = false;
    focus = [ 1; 2 ];
  }
