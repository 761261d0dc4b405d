(* Quickstart: the paper's Sec. 2 walkthrough (Fig. 3 and Fig. 5).

   The client program P has two threads, each calling [foo] once.  [foo]
   calls [f] and [g] in a critical section protected by a ticket lock
   (module M2 over interface L1); the lock itself is implemented with
   FAI_t/get_n/inc_n over L0 (module M1).  We build both certified layers
   with the Fun rule, stack them with Vcomp, and check the soundness
   theorem — every interleaved run over L0 is captured by an atomic run
   over L2, reproducing the paper's log pair (l'_g, l_g).

   Run with:  dune exec examples/quickstart.exe *)

open Ccal_core
module C = Ccal_clight.Csyntax

let vi = Value.int

(* ---------------- L0: ticket-lock words + f/g + hold ---------------- *)

(* Rticket: the lock state replayed from the log (Sec. 2). *)
let replay_ticket log =
  let count tag =
    Log.count (fun (e : Event.t) -> String.equal e.Event.tag tag) log
  in
  count "FAI_t", count "inc_n"

let event_prim name ret_of =
  Layer.event_prim name (fun _c _args log -> Ok (ret_of log))

let l0 =
  Layer.make "L0"
    [
      event_prim "FAI_t" (fun log -> vi (fst (replay_ticket log)));
      event_prim "get_n" (fun log -> vi (snd (replay_ticket log)));
      event_prim "inc_n" (fun _ -> Value.unit);
      event_prim "hold" (fun _ -> Value.unit);
      event_prim "f" (fun _ -> Value.unit);
      event_prim "g" (fun _ -> Value.unit);
    ]

(* ---------------- M1: the ticket lock of Fig. 3, in C --------------- *)

let acq_fn =
  {
    C.name = "acq"; params = []; locals = [ "myt"; "n" ];
    body =
      C.seq
        [
          C.calla "myt" "FAI_t" [];
          C.calla "n" "get_n" [];
          C.while_ C.(v "n" <> v "myt") (C.calla "n" "get_n" []);
          C.call_ "hold" [];
          C.return_unit;
        ];
  }

let rel_fn =
  { C.name = "rel"; params = []; locals = [];
    body = C.seq [ C.call_ "inc_n" []; C.return_unit ] }

let m1 = Ccal_clight.Csem.module_of_fns [ acq_fn; rel_fn ]

(* ---------------- L1: the atomic lock interface ---------------------- *)

(* Replay the holder from atomic acq/rel events. *)
let holder log =
  List.fold_left
    (fun h (e : Event.t) ->
      if String.equal e.tag "acq" then Some e.src
      else if String.equal e.tag "rel" then None
      else h)
    None (Log.chronological log)

let l1 =
  Layer.make "L1"
    [
      ( "acq",
        Layer.Shared
          (fun c _ log ->
            match holder log with
            | Some _ -> Layer.Block
            | None ->
              Layer.Step
                { events = [ Event.make c "acq" ]; ret = Value.unit; crit = Layer.Enter }) );
      ( "rel",
        Layer.Shared
          (fun c _ log ->
            match holder log with
            | Some h when h = c ->
              Layer.Step
                { events = [ Event.make c "rel" ]; ret = Value.unit; crit = Layer.Exit }
            | _ -> Layer.Stuck "rel of a lock not held") );
      event_prim "f" (fun _ -> Value.unit);
      event_prim "g" (fun _ -> Value.unit);
    ]

(* R1: map i.hold to i.acq, i.inc_n to i.rel, other lock events to ε. *)
let r1 =
  Sim_rel.of_table "R1"
    [ "hold", `To "acq"; "inc_n", `To "rel"; "FAI_t", `Drop; "get_n", `Drop ]

(* ---------------- M2: foo over L1 (Fig. 3) --------------------------- *)

let foo_fn =
  { C.name = "foo"; params = []; locals = [];
    body =
      C.seq
        [ C.call_ "acq" []; C.call_ "f" []; C.call_ "g" []; C.call_ "rel" [];
          C.return_unit ] }

let m2 = Ccal_clight.Csem.module_of_fns [ foo_fn ]

(* ---------------- L2: atomic foo ------------------------------------- *)

let l2 = Layer.make "L2" [ event_prim "foo" (fun _ -> Value.unit) ]

(* R2: merge acq•f•g•rel into a single foo at the rel. *)
let r2 =
  Sim_rel.of_log_fn "R2" (fun log ->
      let keep =
        List.filter_map
          (fun (e : Event.t) ->
            if String.equal e.tag "rel" then Some (Event.make e.src "foo")
            else if List.mem e.tag [ "acq"; "f"; "g" ] then None
            else Some e)
          (Log.chronological log)
      in
      Log.append_all keep Log.empty)

(* ---------------- the Fig. 5 pipeline -------------------------------- *)

let () =
  Format.printf "== CCAL quickstart: the ticket-lock example of Sec. 2 ==@.@.";

  (* (2.2)  L0[i] |-_R1 M1 : L1[i]   (fun-lift + log-lift in one step) *)
  let envs _ = [ Env_context.empty ] in
  let c1 =
    Calculus.fun_rule ~underlay:l0 ~overlay:l1 ~impl:m1 ~rel:r1 ~focus:[ 1; 2 ]
      ~prim_tests:
        [ "acq", [ Calculus.case [] ];
          "rel", [ Calculus.case ~pre:[ "acq", [] ] [] ] ]
      ~envs ()
    |> Result.get_ok
  in
  Format.printf "built  %s@." "L0[{1,2}] |-_R1 M1 : L1[{1,2}]";

  (* (2.3)  L1[i] |-_R2 M2 : L2[i] *)
  let c2 =
    Calculus.fun_rule ~underlay:l1 ~overlay:l2 ~impl:m2 ~rel:r2 ~focus:[ 1; 2 ]
      ~prim_tests:[ "foo", [ Calculus.case [] ] ]
      ~envs ()
    |> Result.get_ok
  in
  Format.printf "built  %s@." "L1[{1,2}] |-_R2 M2 : L2[{1,2}]";

  (* vertical composition *)
  let cert = Result.get_ok (Calculus.vcomp c1 c2) in
  Format.printf "@.%a@.@." Calculus.pp_cert cert;

  (* thread-safe compilation: CompCertX(M1 ⊕ M2), validated *)
  (match
     Ccal_compcertx.Validate.validate_module ~layer:l0 ~tids:[ 1 ]
       ~arg_cases:[] ~envs:(fun _ -> [ Env_context.empty ])
       (List.map (fun fn -> fn, Ccal_compcertx.Compile.compile_fn fn) [ acq_fn; rel_fn ])
   with
  | Ok r ->
    Format.printf "CompCertX validated %d lock functions (%d co-executions)@."
      r.Ccal_compcertx.Validate.fns_validated r.Ccal_compcertx.Validate.cases_run
  | Error f ->
    Format.printf "compilation validation failed: %a@!" Failure.pp f);

  (* the client program P of Fig. 3 and a concrete interleaved run *)
  let client _i = Prog.call "foo" [] in
  let threads =
    [ 1, Prog.Module.link cert.Calculus.judgment.Calculus.impl (client 1);
      2, Prog.Module.link cert.Calculus.judgment.Calculus.impl (client 2) ]
  in
  let o =
    Game.run
      (Game.config l0 threads (Sched.of_trace [ 1; 2; 2; 1; 1; 2; 1; 2; 1; 1; 2; 2 ]))
  in
  Format.printf "@.l'_g (over L0) = %a@." Log.pp o.Game.log;
  let lg = Sim_rel.apply cert.Calculus.judgment.Calculus.rel o.Game.log in
  Format.printf "l_g  (over L2) = %a@." Log.pp lg;

  (* soundness: every interleaving refines an atomic run *)
  match
    Ccal_verify.(
      Budget.value
        (Linearizability.refine_cert_ctx
           ~ctx:(Ctx.make ~strategy:(Ctx.Engine.random ~count:16) ())
           cert ~client))
  with
  | Ok r ->
    Format.printf
      "@.soundness (Thm 2.2): %d schedules of P over L0 all refine [[P]]_L2 -- OK@."
      r.Ccal_verify.Linearizability.runs
  | Error f -> Format.printf "@.soundness FAILED: %a@." Failure.pp f
