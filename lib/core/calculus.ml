type judgment = {
  underlay : Layer.t;
  impl : Prog.Module.t;
  overlay : Layer.t;
  rel : Sim_rel.t;
  focus : Event.tid list;
}

type rule_name = Empty | Fun | Vcomp | Hcomp | Wk | Pcomp

type cert = {
  judgment : judgment;
  rule : rule_name;
  premises : cert list;
  evidence : string list;
}

let rule_to_string = function
  | Empty -> "Empty"
  | Fun -> "Fun"
  | Vcomp -> "Vcomp"
  | Hcomp -> "Hcomp"
  | Wk -> "Wk"
  | Pcomp -> "Pcomp"

let pp_focus fmt focus =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       Format.pp_print_int)
    focus

let rec pp_cert fmt c =
  Format.fprintf fmt "@[<v 2>%s: %s[%a] |-_%s %s : %s[%a]  (%d checks)%a@]"
    (rule_to_string c.rule) c.judgment.underlay.Layer.name pp_focus
    c.judgment.focus c.judgment.rel.Sim_rel.name
    (match Prog.Module.names c.judgment.impl with
    | [] -> "(empty)"
    | names -> String.concat "+" names)
    c.judgment.overlay.Layer.name pp_focus c.judgment.focus
    (List.length c.evidence)
    (fun fmt premises ->
      List.iter (fun p -> Format.fprintf fmt "@ %a" pp_cert p) premises)
    c.premises

type prim_case = {
  args : Value.t list;
  pre : (string * Value.t list) list;
}

type prim_tests = (string * prim_case list) list
type env_suite = Event.tid -> Env_context.t list

let case ?(pre = []) args = { args; pre }

(* A rule's failure: structural (no run), or a run's failure prefixed
   with the rule and the obligation it broke. *)
let err rule message =
  Error (Failure.no_run (Printf.sprintf "%s rule: %s" (rule_to_string rule) message))

let failed rule message (f : Failure.t) =
  let rule = rule_to_string rule in
  Error { f with f_reason = Printf.sprintf "%s rule: %s: %s" rule message f.f_reason }

let pp_case prim case =
  let pp_call (p, args) =
    Printf.sprintf "%s(%s)" p (String.concat "," (List.map Value.to_string args))
  in
  String.concat "; " (List.map pp_call (case.pre @ [ prim, case.args ]))

let calls_of_case prim case =
  Prog.seq_all
    (List.map (fun (p, args) -> Prog.call p args) (case.pre @ [ prim, case.args ]))

let empty_rule layer focus =
  {
    judgment =
      { underlay = layer; impl = Prog.Module.empty; overlay = layer; rel = Sim_rel.id; focus };
    rule = Empty;
    premises = [];
    evidence = [ "L[A] |-_id (empty) : L[A]" ];
  }

(* Check one (prim, case, tid) simulation obligation of the Fun rule: both
   sides run the precondition prefix followed by the call under test — the
   implementation side through the module, the specification side over the
   overlay interface. *)
let check_prim_case ~underlay ~overlay ~impl ~rel ~envs prim case i =
  match Prog.Module.find prim impl with
  | None -> err Fun ("module does not implement " ^ prim)
  | Some _ ->
    if not (Layer.has_prim prim overlay) then err Fun ("overlay has no primitive " ^ prim)
    else (
      let calls = calls_of_case prim case in
      match
        Simulation.check_progs rel ~tid:i ~impl_layer:underlay
          ~impl:(Prog.Module.link impl calls) ~spec_layer:overlay ~spec:calls
          ~envs:(envs i)
      with
      | Ok report ->
        Ok
          (Printf.sprintf "[%s]@%d: %d envs, %d moves" (pp_case prim case) i
             report.Simulation.envs_checked report.Simulation.impl_moves)
      | Error f ->
        failed Fun
          (Printf.sprintf "[%s]@%d not simulated by its specification"
             (pp_case prim case) i)
          f)

let obligations_of prim_tests focus =
  List.concat_map
    (fun (prim, cases) ->
      List.concat_map
        (fun case -> List.map (fun i -> prim, case, i) focus)
        cases)
    prim_tests

let fun_rule ~underlay ~overlay ~impl ~rel ~focus ~prim_tests ~envs
    () =
  let rec go evidence = function
    | [] ->
      Ok
        {
          judgment = { underlay; impl; overlay; rel; focus };
          rule = Fun;
          premises = [];
          evidence = List.rev evidence;
        }
    | (prim, case, i) :: rest -> (
      match
        check_prim_case ~underlay ~overlay ~impl ~rel ~envs prim
          case i
      with
      | Ok line -> go (line :: evidence) rest
      | Error _ as e -> e)
  in
  go [] (obligations_of prim_tests focus)

let same_focus a b =
  List.sort_uniq Stdlib.compare a = List.sort_uniq Stdlib.compare b

let vcomp c1 c2 =
  if not (String.equal c1.judgment.overlay.Layer.name c2.judgment.underlay.Layer.name)
  then
    err Vcomp
      (Printf.sprintf "layers do not stack: %s is not %s"
         c1.judgment.overlay.Layer.name c2.judgment.underlay.Layer.name)
  else if not (same_focus c1.judgment.focus c2.judgment.focus) then
    err Vcomp "focused thread sets differ"
  else
    match Prog.Module.stack ~lower:c1.judgment.impl ~upper:c2.judgment.impl with
    | exception Invalid_argument msg -> err Vcomp msg
    | impl ->
      Ok
        {
          judgment =
            {
              underlay = c1.judgment.underlay;
              impl;
              overlay = c2.judgment.overlay;
              rel = Sim_rel.compose c1.judgment.rel c2.judgment.rel;
              focus = c1.judgment.focus;
            };
          rule = Vcomp;
          premises = [ c1; c2 ];
          evidence = [ "stacked " ^ c1.judgment.overlay.Layer.name ];
        }

let hcomp c1 c2 =
  if not (String.equal c1.judgment.underlay.Layer.name c2.judgment.underlay.Layer.name)
  then err Hcomp "underlays differ"
  else if not (same_focus c1.judgment.focus c2.judgment.focus) then
    err Hcomp "focused thread sets differ"
  else if not (String.equal c1.judgment.rel.Sim_rel.name c2.judgment.rel.Sim_rel.name)
  then err Hcomp "simulation relations differ"
  else
    match
      ( Prog.Module.union c1.judgment.impl c2.judgment.impl,
        Layer.union c1.judgment.overlay c2.judgment.overlay )
    with
    | exception Invalid_argument msg -> err Hcomp msg
    | impl, overlay ->
      Ok
        {
          judgment =
            {
              underlay = c1.judgment.underlay;
              impl;
              overlay;
              rel = c1.judgment.rel;
              focus = c1.judgment.focus;
            };
          rule = Hcomp;
          premises = [ c1; c2 ];
          evidence = [ "merged independent modules" ];
        }

type layer_sim = {
  lower : Layer.t;
  upper : Layer.t;
  sim_rel : Sim_rel.t;
  sim_focus : Event.tid list;
  sim_evidence : string list;
}

let layer_sim_id layer focus =
  {
    lower = layer;
    upper = layer;
    sim_rel = Sim_rel.id;
    sim_focus = focus;
    sim_evidence = [ "reflexivity" ];
  }

let check_layer_sim ~lower ~upper ~rel ~focus ~prim_tests ~envs () =
  let rec go evidence = function
    | [] ->
      Ok { lower; upper; sim_rel = rel; sim_focus = focus; sim_evidence = List.rev evidence }
    | (prim, case, i) :: rest -> (
      if not (Layer.has_prim prim lower) then
        err Wk ("lower interface has no primitive " ^ prim)
      else if not (Layer.has_prim prim upper) then
        err Wk ("upper interface has no primitive " ^ prim)
      else
        let calls = calls_of_case prim case in
        match
          Simulation.check_progs rel ~tid:i ~impl_layer:lower
            ~impl:calls ~spec_layer:upper ~spec:calls ~envs:(envs i)
        with
        | Ok report ->
          go
            (Printf.sprintf "%s@%d: %d envs" prim i report.Simulation.envs_checked
            :: evidence)
            rest
        | Error f ->
          failed Wk
            (Printf.sprintf "primitive %s of %s not simulated by %s" prim
               lower.Layer.name upper.Layer.name)
            f)
  in
  go [] (obligations_of prim_tests focus)

let wk low cert up =
  if not (String.equal low.upper.Layer.name cert.judgment.underlay.Layer.name) then
    err Wk
      (Printf.sprintf "lower simulation targets %s, certificate underlay is %s"
         low.upper.Layer.name cert.judgment.underlay.Layer.name)
  else if not (String.equal cert.judgment.overlay.Layer.name up.lower.Layer.name)
  then
    err Wk
      (Printf.sprintf "upper simulation starts at %s, certificate overlay is %s"
         up.lower.Layer.name cert.judgment.overlay.Layer.name)
  else if
    not
      (same_focus low.sim_focus cert.judgment.focus
      && same_focus cert.judgment.focus up.sim_focus)
  then err Wk "focused thread sets differ"
  else
    Ok
      {
        judgment =
          {
            underlay = low.lower;
            impl = cert.judgment.impl;
            overlay = up.upper;
            rel =
              Sim_rel.compose low.sim_rel
                (Sim_rel.compose cert.judgment.rel up.sim_rel);
            focus = cert.judgment.focus;
          };
        rule = Wk;
        premises = [ cert ];
        evidence = low.sim_evidence @ up.sim_evidence;
      }

(* The tested Compat implication: the first corpus log, for side [a]
   then side [b], on which a thread's guarantee holds and its rely does
   not. *)
let compat layer ~a ~b ~logs =
  let g = layer.Layer.guar and r = layer.Layer.rely in
  let breaks k l i =
    if g.Rely_guarantee.holds i l && not (r.Rely_guarantee.holds i l) then
      Some
        (Failure.underlay ~sched:(Printf.sprintf "corpus log %d" k) l
           (Printf.sprintf "guarantee %s of thread %d does not imply rely %s"
              g.Rely_guarantee.name i r.Rely_guarantee.name))
    else None
  in
  let threads tids = String.concat "," (List.map string_of_int tids) in
  match
    List.find_map
      (fun tids -> List.find_mapi (fun k l -> List.find_map (breaks k l) tids) logs)
      [ a; b ]
  with
  | Some f -> Error f
  | None ->
    Ok
      (Printf.sprintf "compat(%s[%s], %s[%s]) on %d logs" layer.Layer.name (threads a)
         layer.Layer.name (threads b) (List.length logs))

let pcomp c1 c2 ~compat_logs =
  let a = c1.judgment.focus and b = c2.judgment.focus in
  if List.exists (fun i -> List.mem i b) a then
    err Pcomp "focused thread sets are not disjoint"
  else if
    not (String.equal c1.judgment.underlay.Layer.name c2.judgment.underlay.Layer.name)
  then err Pcomp "underlays differ"
  else if
    not (String.equal c1.judgment.overlay.Layer.name c2.judgment.overlay.Layer.name)
  then err Pcomp "overlays differ"
  else if not (String.equal c1.judgment.rel.Sim_rel.name c2.judgment.rel.Sim_rel.name)
  then err Pcomp "simulation relations differ"
  else
    let overlay_logs = List.map (Sim_rel.apply c1.judgment.rel) compat_logs in
    match
      ( compat c1.judgment.underlay ~a ~b ~logs:compat_logs,
        compat c1.judgment.overlay ~a ~b ~logs:overlay_logs )
    with
    | Error f, _ | _, Error f -> failed Pcomp "Compat" f
    | Ok e1, Ok e2 ->
      Ok
        {
          judgment = { c1.judgment with focus = a @ b };
          rule = Pcomp;
          premises = [ c1; c2 ];
          evidence = [ e1; e2 ];
        }

let focus c = c.judgment.focus

let rec count_checks c =
  List.length c.evidence + List.fold_left (fun n p -> n + count_checks p) 0 c.premises
