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

let overlay ?bound () = Lock_intf.layer ?bound "Llock"

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

let prim_tests ?(locks = [ 0 ]) ?(values = [ 7 ]) () : Calculus.prim_tests =
  let acq_cases =
    List.concat_map
      (fun b ->
        Calculus.case [ Value.int b ]
        :: List.map
             (fun v ->
               Calculus.case
                 ~pre:
                   [
                     Lock_intf.acq_tag, [ Value.int b ];
                     Lock_intf.rel_tag, [ Value.int b; Value.int v ];
                   ]
                 [ Value.int b ])
             values)
      locks
  in
  let rel_cases =
    List.concat_map
      (fun b ->
        List.map
          (fun v ->
            Calculus.case
              ~pre:[ Lock_intf.acq_tag, [ Value.int b ] ]
              [ Value.int b; Value.int v ])
          values)
      locks
  in
  [ Lock_intf.acq_tag, acq_cases; Lock_intf.rel_tag, rel_cases ]

let rival_prog b rounds =
  let rec go k =
    if k = 0 then Prog.ret_unit
    else
      Prog.bind (Prog.call Lock_intf.acq_tag [ Value.int b ]) (fun v ->
          Prog.seq
            (Prog.call Lock_intf.rel_tag [ Value.int b; v ])
            (go (k - 1)))
  in
  go rounds

let env_suite ?(memory = Memory.default) () : Calculus.env_suite =
 fun i ->
  let layer = l0 ~memory () in
  let impl = c_module () in
  let rivals = List.filter (fun j -> j <> i) [ 9; 8 ] in
  let rival j =
    j, Machine.strategy_of_prog layer j (Prog.Module.link impl (rival_prog 0 1))
  in
  (* Under TSO the drain wrapper is load-bearing, not an option: the
     focused CPU's own buffered [locked(me) := 1] would otherwise be
     forwarded to its spin loop forever.  Draining at each environment
     query point is exactly x86-TSO's guarantee that buffers flush
     eventually, and lets the predecessor's [locked(me) := 0] handoff
     reach memory. *)
  let adapt env =
    match memory with
    | Memory.Sc -> env
    | Memory.Tso -> Ccal_machine.Tso.with_drain env
  in
  List.map adapt
    (Env_context.empty
    :: List.concat_map
         (fun per_query ->
           match rivals with
           | [] -> []
           | [ j ] ->
             [
               Env_context.of_strategies
                 (Printf.sprintf "one-rival(r%d)" per_query)
                 [ rival j ] ~rounds:per_query;
             ]
           | j :: k :: _ ->
             [
               Env_context.of_strategies
                 (Printf.sprintf "one-rival(r%d)" per_query)
                 [ rival j ] ~rounds:per_query;
               Env_context.of_strategies
                 (Printf.sprintf "two-rivals(r%d)" per_query)
                 [ rival j; rival k ] ~rounds:per_query;
             ])
         [ 1; 2 ])

let certify ?max_moves ?(memory = Memory.default) ?(focus = [ 1; 2 ])
    ?(use_asm = false) () =
  let impl = if use_asm then asm_module () else c_module () in
  Calculus.fun_rule ?max_moves ~underlay:(l0 ~memory ())
    ~overlay:(overlay ())
    ~impl
    ~rel:(Ccal_machine.Tso.under_memory memory r_mcs)
    ~focus ~prim_tests:(prim_tests ())
    ~envs:(env_suite ~memory ()) ()
