open Ccal_core
module C = Ccal_clight.Csyntax
module Cx = Ccal_compcertx.Compile
module A = Ccal_machine.Atomic
module P = Ccal_machine.Pushpull

(* MCS is the genuinely buffered object: its handoff protocol runs on
   plain [astore]/[aload] cells.  Under TSO the rely/guarantee release
   bound doubles, because [Rg.releases_within] ages held locks by every
   log event and the buffering machinery ([buf_store] + [commit] per
   store, plus the environment's drains) roughly doubles the event count
   of an acquire/release round. *)
let l0 ?(memory = Memory.default) () =
  let base = Ccal_machine.Tso.machine_layer memory in
  let bound = match memory with Memory.Sc -> 96 | Memory.Tso -> 192 in
  let cond =
    Rg.lock_condition ~bound ~acq_tag:P.pull_tag ~rel_tag:P.push_tag ()
  in
  Layer.make ~rely:cond ~guar:cond "L0_mcs" base.Layer.prims

(* Cell addressing: tail(b) = b*1000, locked(b,j) = b*1000+100+j,
   next(b,j) = b*1000+200+j.  Expressed in C below. *)
let tail b = C.Binop (C.Mul, b, C.Const 1000)
let locked b j = C.Binop (C.Add, C.Binop (C.Add, tail b, C.Const 100), j)
let next_ b j = C.Binop (C.Add, C.Binop (C.Add, tail b, C.Const 200), j)

(*  int acq(int b) {
      me = cpuid();
      astore(next(b,me), 0);
      pred = xchg(tail(b), me);
      if (pred != 0) {
        astore(locked(b,me), 1);
        astore(next(b,pred), me);
        l = aload(locked(b,me));
        while (l == 1) { l = aload(locked(b,me)); }
      }
      return pull(b);
    } *)
let acq_fn =
  {
    C.name = "acq";
    params = [ "b" ];
    locals = [ "me"; "pred"; "l"; "v" ];
    body =
      C.seq
        [
          C.calla "me" "cpuid" [];
          C.call_ A.astore_tag [ next_ (C.v "b") (C.v "me"); C.i 0 ];
          C.calla "pred" A.xchg_tag [ tail (C.v "b"); C.v "me" ];
          C.if_
            C.(v "pred" <> i 0)
            (C.seq
               [
                 C.call_ A.astore_tag [ locked (C.v "b") (C.v "me"); C.i 1 ];
                 C.call_ A.astore_tag [ next_ (C.v "b") (C.v "pred"); C.v "me" ];
                 C.calla "l" A.aload_tag [ locked (C.v "b") (C.v "me") ];
                 C.while_
                   C.(v "l" = i 1)
                   (C.calla "l" A.aload_tag [ locked (C.v "b") (C.v "me") ]);
               ])
            C.Sskip;
          C.calla "v" P.pull_tag [ C.v "b" ];
          C.return (C.v "v");
        ];
  }

(*  void rel(int b, int v) {
      push(b, v);
      me = cpuid();
      nxt = aload(next(b,me));
      if (nxt == 0) {
        old = cas(tail(b), me, 0);
        if (old == me) { return; }
        nxt = aload(next(b,me));
        while (nxt == 0) { nxt = aload(next(b,me)); }
      }
      astore(locked(b,nxt), 0);
    } *)
let rel_fn =
  {
    C.name = "rel";
    params = [ "b"; "v" ];
    locals = [ "me"; "nxt"; "old" ];
    body =
      C.seq
        [
          C.call_ P.push_tag [ C.v "b"; C.v "v" ];
          C.calla "me" "cpuid" [];
          C.calla "nxt" A.aload_tag [ next_ (C.v "b") (C.v "me") ];
          C.if_
            C.(v "nxt" = i 0)
            (C.seq
               [
                 C.calla "old" A.cas_tag [ tail (C.v "b"); C.v "me"; C.i 0 ];
                 C.if_ C.(v "old" = v "me") C.return_unit
                   (C.seq
                      [
                        C.calla "nxt" A.aload_tag [ next_ (C.v "b") (C.v "me") ];
                        C.while_
                          C.(v "nxt" = i 0)
                          (C.calla "nxt" A.aload_tag [ next_ (C.v "b") (C.v "me") ]);
                        C.call_ A.astore_tag [ locked (C.v "b") (C.v "nxt"); C.i 0 ];
                        C.return_unit;
                      ]);
               ])
            (C.seq
               [
                 C.call_ A.astore_tag [ locked (C.v "b") (C.v "nxt"); C.i 0 ];
                 C.return_unit;
               ]);
          C.return_unit;
        ];
  }

let fns = [ acq_fn; rel_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
let asm_module () = Cx.compile_module fns

let r_mcs =
  Sim_rel.of_table "R_mcs"
    [
      A.xchg_tag, `Drop;
      A.cas_tag, `Drop;
      A.aload_tag, `Drop;
      A.astore_tag, `Drop;
      A.faa_tag, `Drop;
      P.pull_tag, `To Lock_intf.acq_tag;
      P.push_tag, `To Lock_intf.rel_tag;
    ]

let recipe =
  {
    Ticket_lock.recipe with
    Object_intf.underlay = (fun memory _ -> l0 ~memory ());
    c_module;
    asm_module = Some asm_module;
    rel = r_mcs;
    rival = (fun () -> Prog.Module.link (c_module ()) (Lock_intf.round 0));
  }
