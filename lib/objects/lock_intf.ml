open Ccal_core

let acq_tag = "acq"
let rel_tag = "rel"

type lock_state = {
  holder : Event.tid option;
  value : Value.t;
}

module Imap = Map.Make (Int)

let free = { holder = None; value = Value.int 0 }
let state_of b m = Option.value (Imap.find_opt b m) ~default:free

let replay_locks : lock_state Imap.t Replay.t =
  Replay.fold ~init:Imap.empty ~step:(fun m (e : Event.t) ->
      if String.equal e.tag acq_tag then
        match e.args with
        | [ Value.Vint b ] -> (
          match state_of b m with
          | { holder = None; value } ->
            Ok (Imap.add b { holder = Some e.src; value } m)
          | { holder = Some h; _ } ->
            Error
              (Printf.sprintf "invalid log: thread %d acquires lock %d held by %d"
                 e.src b h))
        | _ -> Error "acq: bad arguments"
      else if String.equal e.tag rel_tag then
        match e.args with
        | [ Value.Vint b; v ] -> (
          match state_of b m with
          | { holder = Some h; _ } when h = e.src ->
            Ok (Imap.add b { holder = None; value = v } m)
          | { holder = Some h; _ } ->
            Error
              (Printf.sprintf "invalid log: thread %d releases lock %d held by %d"
                 e.src b h)
          | { holder = None; _ } ->
            Error
              (Printf.sprintf "invalid log: thread %d releases free lock %d" e.src b))
        | _ -> Error "rel: bad arguments"
      else Ok m)

let replay_lock b : lock_state Replay.t =
 fun l -> Result.map (state_of b) (replay_locks l)

let acq_prim =
  ( acq_tag,
    Layer.Shared
      (fun c args log ->
        match args with
        | [ Value.Vint b ] -> (
          match replay_lock b log with
          | Error msg -> Layer.Stuck msg
          | Ok { holder = Some _; _ } -> Layer.Block
          | Ok { holder = None; value } ->
            let ev = Event.make ~args ~ret:value c acq_tag in
            Layer.Step { events = [ ev ]; ret = value; crit = Layer.Enter })
        | _ -> Layer.Stuck "acq: expected one lock argument") )

let rel_prim =
  ( rel_tag,
    Layer.Shared
      (fun c args log ->
        match args with
        | [ Value.Vint b; _ ] -> (
          match replay_lock b log with
          | Error msg -> Layer.Stuck msg
          | Ok { holder = Some h; _ } when h = c ->
            let ev = Event.make ~args c rel_tag in
            Layer.Step { events = [ ev ]; ret = Value.unit; crit = Layer.Exit }
          | Ok _ ->
            Layer.Stuck
              (Printf.sprintf "thread %d releases lock %d it does not hold" c b))
        | _ -> Layer.Stuck "rel: expected lock and value arguments") )

let condition ?bound () = Rg.lock_condition ?bound ~acq_tag ~rel_tag ()

let layer ?bound ?(extra = []) name =
  let cond = condition ?bound () in
  Layer.make ~rely:cond ~guar:cond name ([ acq_prim; rel_prim ] @ extra)

let mutual_exclusion l =
  (* Mutual exclusion holds iff the log replays without violation: the
     replay function rejects exactly the overlapping-critical-section
     logs. *)
  Replay.well_formed replay_locks l

let handoffs b l =
  List.filter_map
    (fun (e : Event.t) ->
      if String.equal e.tag acq_tag && e.args = [ Value.int b ] then Some e.src
      else None)
    (Log.chronological l)

(* ---------------- the certification recipe (Sec. 6) ---------------- *)

type impl = {
  l0 : ?memory:Memory.t -> unit -> Layer.t;
  c_module : unit -> Prog.Module.t;
  asm_module : unit -> Prog.Module.t;
  rel : Sim_rel.t;
}

let prim_tests ?(locks = [ 0 ]) ?(values = [ 7 ]) () : Calculus.prim_tests =
  let acq_cases =
    List.concat_map
      (fun b ->
        Calculus.case [ Value.int b ]
        :: List.map
             (fun v ->
               (* re-acquisition after a release observing the published
                  value *)
               Calculus.case
                 ~pre:
                   [
                     acq_tag, [ Value.int b ];
                     rel_tag, [ Value.int b; Value.int v ];
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
            Calculus.case ~pre:[ acq_tag, [ Value.int b ] ]
              [ Value.int b; Value.int v ])
          values)
      locks
  in
  [ acq_tag, acq_cases; rel_tag, rel_cases ]

(* Environment participants run real lock rounds of the implementation,
   so their events carry replay-consistent return values. *)
let rival_prog b rounds =
  let rec go k =
    if k = 0 then Prog.ret_unit
    else
      Prog.bind (Prog.call acq_tag [ Value.int b ]) (fun v ->
          Prog.seq (Prog.call rel_tag [ Value.int b; v ]) (go (k - 1)))
  in
  go rounds

let env_suite impl ?(memory = Memory.default) () : Calculus.env_suite =
 fun i ->
  let layer = impl.l0 ~memory () in
  let m = impl.c_module () in
  let rivals = List.filter (fun j -> j <> i) [ 9; 8 ] in
  let rival j =
    j, Machine.strategy_of_prog layer j (Prog.Module.link m (rival_prog 0 1))
  in
  (* Under TSO every context gains the drain behaviour: the environment
     commits pending stores at each query point (x86-TSO's progress
     guarantee that buffers flush eventually).  For MCS this is
     load-bearing: the focused CPU's own buffered [locked(me) := 1] would
     otherwise be forwarded to its spin loop forever. *)
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

let certify impl ?max_moves ?(memory = Memory.default) ?underlay ?overlay
    ?(focus = [ 1; 2 ]) ?(use_asm = false) () =
  Calculus.fun_rule ?max_moves
    ~underlay:(Option.value underlay ~default:(impl.l0 ~memory ()))
    ~overlay:(Option.value overlay ~default:(layer "Llock"))
    ~impl:(if use_asm then impl.asm_module () else impl.c_module ())
    ~rel:(Ccal_machine.Tso.under_memory memory impl.rel)
    ~focus ~prim_tests:(prim_tests ())
    ~envs:(env_suite impl ~memory ()) ()
