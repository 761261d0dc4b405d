open Ccal_core
module C = Ccal_clight.Csyntax
module Cx = Ccal_compcertx.Compile

let fai_tag = "FAI_t"
let get_n_tag = "get_n"
let inc_n_tag = "inc_n"

type ticket_state = {
  next : int;
  serving : int;
}

let wrap32 n = n land 0xFFFFFFFF

module Imap = Map.Make (Int)

let ticket_of b m = Option.value (Imap.find_opt b m) ~default:{ next = 0; serving = 0 }

let replay_tickets : ticket_state Imap.t Replay.t =
  Replay.fold ~init:Imap.empty ~step:(fun m (e : Event.t) ->
      match Event.obj_of_args e.args with
      | Some b when String.equal e.tag fai_tag ->
        let st = ticket_of b m in
        Ok (Imap.add b { st with next = wrap32 (st.next + 1) } m)
      | Some b when String.equal e.tag inc_n_tag ->
        let st = ticket_of b m in
        Ok (Imap.add b { st with serving = wrap32 (st.serving + 1) } m)
      | _ -> Ok m)

let replay_ticket b : ticket_state Replay.t =
 fun l -> Result.map (ticket_of b) (replay_tickets l)

let ticket_prim tag ret_of =
  Layer.event_prim tag (fun _c args log ->
      match Event.obj_of_args args with
      | Some b -> Result.map ret_of (replay_ticket b log)
      | None -> Error (tag ^ ": expected a lock argument"))

let fai_prim = ticket_prim fai_tag (fun st -> Value.int st.next)
let get_n_prim = ticket_prim get_n_tag (fun st -> Value.int st.serving)
let inc_n_prim = ticket_prim inc_n_tag (fun _ -> Value.unit)

(* At L0 the discipline on participants is over the raw events: pulled
   locations are pushed back within a bounded number of steps. *)
let l0_condition =
  Rg.lock_condition ~bound:96 ~acq_tag:Ccal_machine.Pushpull.pull_tag
    ~rel_tag:Ccal_machine.Pushpull.push_tag ()

(* The ticket implementation issues no plain stores (FAI_t/get_n/inc_n
   plus pull/push only), so under TSO its buffers stay empty and the
   certificates carry over with nothing but the layer swap. *)
let l0 ?(memory = Memory.default) () =
  let base = Ccal_machine.Tso.machine_layer memory in
  Layer.make ~rely:l0_condition ~guar:l0_condition "L0_ticket"
    (base.Layer.prims @ [ fai_prim; get_n_prim; inc_n_prim ])

(* Fig. 10:
     int acq(int b) {
       int myt = FAI_t(b);
       int n = get_n(b);
       while (n != myt) { n = get_n(b); }
       return pull(b);
     } *)
let acq_fn =
  {
    C.name = "acq";
    params = [ "b" ];
    locals = [ "myt"; "n"; "v" ];
    body =
      C.seq
        [
          C.calla "myt" fai_tag [ C.v "b" ];
          C.calla "n" get_n_tag [ C.v "b" ];
          C.while_ C.(v "n" <> v "myt") (C.calla "n" get_n_tag [ C.v "b" ]);
          C.calla "v" Ccal_machine.Pushpull.pull_tag [ C.v "b" ];
          C.return (C.v "v");
        ];
  }

(* Fig. 10:  void rel(int b, int v) { push(b, v); inc_n(b); } *)
let rel_fn =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [];
    body =
      C.seq
        [
          C.call_ Ccal_machine.Pushpull.push_tag [ C.v "b"; C.v "v" ];
          C.call_ inc_n_tag [ C.v "b" ];
          C.return_unit;
        ];
  }

let fns = [ acq_fn; rel_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
let asm_module () = Cx.compile_module fns

let r_ticket =
  Sim_rel.of_table "R_ticket"
    [
      fai_tag, `Drop;
      get_n_tag, `Drop;
      inc_n_tag, `Drop;
      Ccal_machine.Pushpull.pull_tag, `To Lock_intf.acq_tag;
      Ccal_machine.Pushpull.push_tag, `To Lock_intf.rel_tag;
    ]

(* The automaton φ'_acq[i] of Sec. 2. *)
let phi_acq_low i b =
  let barg = [ Value.int b ] in
  let pull_move =
    {
      Strategy.step =
        (fun l ->
          let ev = Event.make ~args:barg i Ccal_machine.Pushpull.pull_tag in
          match Ccal_machine.Pushpull.replay_loc b (Log.append ev l) with
          | Error msg -> Strategy.Refuse msg
          | Ok (v, _) ->
            Strategy.Move ([ { ev with ret = v } ], Strategy.Done v));
    }
  in
  let rec spin myt =
    {
      Strategy.step =
        (fun l ->
          match replay_ticket b l with
          | Error msg -> Strategy.Refuse msg
          | Ok { serving; _ } ->
            let ev =
              Event.make ~args:barg ~ret:(Value.int serving) i get_n_tag
            in
            if serving = myt then Strategy.Move ([ ev ], Strategy.Next pull_move)
            else Strategy.Move ([ ev ], Strategy.Next (spin myt)));
    }
  in
  {
    Strategy.step =
      (fun l ->
        match replay_ticket b l with
        | Error msg -> Strategy.Refuse msg
        | Ok { next; _ } ->
          let ev = Event.make ~args:barg ~ret:(Value.int next) i fai_tag in
          Strategy.Move ([ ev ], Strategy.Next (spin next)));
  }

let phi_rel_low i b v =
  Strategy.of_moves
    [
      (fun _ -> [ Event.make ~args:[ Value.int b; v ] i Ccal_machine.Pushpull.push_tag ]);
      (fun _ -> [ Event.make ~args:[ Value.int b ] i inc_n_tag ]);
    ]

let recipe =
  let b = Value.int 0 and v = Value.int 7 in
  {
    Object_intf.underlay = (fun memory _ -> l0 ~memory ());
    overlay = Lock_intf.layer "Llock";
    c_module;
    asm_module = Some asm_module;
    rel = r_ticket;
    (* [acq] from the free lock and after a release publishing 7; [rel]
       of 7 by the holder *)
    prim_tests =
      [
        Lock_intf.acq_tag,
          [
            Calculus.case [ b ];
            Calculus.case
              ~pre:[ Lock_intf.acq_tag, [ b ]; Lock_intf.rel_tag, [ b; v ] ]
              [ b ];
          ];
        Lock_intf.rel_tag,
          [ Calculus.case ~pre:[ Lock_intf.acq_tag, [ b ] ] [ b; v ] ];
      ];
    rival = (fun () -> Prog.Module.link (c_module ()) (Lock_intf.round 0));
    rivals = [ 9; 8 ];
    groups = [ 1; 2 ];
    siblings = false;
    focus = [ 1; 2 ];
  }
