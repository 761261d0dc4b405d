open Ccal_core

type t = {
  underlay : Memory.t -> Thread_sched.placement -> Layer.t;
  overlay : Layer.t;
  c_module : unit -> Prog.Module.t;
  asm_module : (unit -> Prog.Module.t) option;
  rel : Sim_rel.t;
  prim_tests : Calculus.prim_tests;
  rival : unit -> Prog.t;
  rivals : Event.tid list;
  groups : int list;
  siblings : bool;
  focus : Event.tid list;
}

(* Unfolded lazily through the continuation, so construction terminates. *)
let rec yield_forever () =
  Prog.bind (Prog.call Thread_sched.yield_tag []) (fun _ -> yield_forever ())

let group_name = function 1 -> "one-rival" | _ -> "two-rivals"

(* Environment participants run real rounds of the implementation, so
   their events carry replay-consistent return values. *)
let env_suite r ~memory ~placement : Calculus.env_suite =
 fun i ->
  let layer = r.underlay memory placement in
  let prog = r.rival () in
  let rivals = List.filter (fun j -> j <> i) r.rivals in
  let rival j = j, Machine.strategy_of_prog layer j prog in
  (* Threads sharing the focused thread's CPU must keep yielding, or the
     focused thread would never be rescheduled after sleeping. *)
  let siblings =
    if not r.siblings then []
    else
      let my_cpu = List.assoc_opt i placement in
      List.filter_map
        (fun (t, c) ->
          if t <> i && (not (List.mem t rivals)) && Some c = my_cpu then
            Some (t, Machine.strategy_of_prog layer t (yield_forever ()))
          else None)
        placement
  in
  (* With siblings on the focused CPU the silent context is not valid —
     the focused thread may start descheduled and needs their yields. *)
  let silent =
    match siblings with
    | [] -> Env_context.empty
    | _ -> Env_context.of_strategies "siblings-only" siblings ~rounds:1
  in
  let sizes =
    List.sort_uniq Int.compare
      (List.filter (fun n -> n > 0)
         (List.map (min (List.length rivals)) r.groups))
  in
  let group rounds n =
    Env_context.of_strategies
      (Printf.sprintf "%s(r%d)" (group_name n) rounds)
      (List.map rival (List.filteri (fun k _ -> k < n) rivals) @ siblings)
      ~rounds
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
    (silent :: List.concat_map (fun rounds -> List.map (group rounds) sizes) [ 1; 2 ])

let certify r ?(memory = Memory.default) ?placement ?focus ?(use_asm = false)
    () =
  let focus = Option.value focus ~default:r.focus in
  (* A thread left unplaced never runs, so an explicit placement must
     place every focused and rival thread. *)
  let placement =
    match placement with
    | None -> Thread_sched.default_placement focus r.rivals
    | Some p ->
      List.iter
        (fun t ->
          if not (List.mem_assoc t p) then
            invalid_arg
              (Printf.sprintf
                 "Object_intf.certify: placement leaves out thread %d" t))
        (focus @ r.rivals);
      p
  in
  let impl =
    match r.asm_module with
    | Some asm when use_asm -> asm ()
    | _ when use_asm -> invalid_arg "Object_intf.certify: no assembly module"
    | _ -> r.c_module ()
  in
  Calculus.fun_rule ~underlay:(r.underlay memory placement) ~overlay:r.overlay
    ~impl ~rel:(Ccal_machine.Tso.under_memory memory r.rel) ~focus
    ~prim_tests:r.prim_tests ~envs:(env_suite r ~memory ~placement) ()
