type crit = Enter | Exit | Keep
type stuck_kind = Invalid_transition | Data_race

type shared_result =
  | Step of {
      events : Event.t list;
      ret : Value.t;
      crit : crit;
    }
  | Block
  | Stuck of string
  | Race of string

type shared_sem = Event.tid -> Value.t list -> Log.t -> shared_result

type private_sem =
  Event.tid -> Value.t list -> Abs.t -> (Abs.t * Value.t, string) result

type prim =
  | Shared of shared_sem
  | Private of private_sem

type t = {
  name : string;
  prims : (string * prim) list;
  rely : Rely_guarantee.t;
  guar : Rely_guarantee.t;
  init_abs : Event.tid -> Abs.t;
}

let make ?(rely = Rely_guarantee.always) ?(guar = Rely_guarantee.always)
    ?(init_abs = fun _ -> Abs.empty) name prims =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      if Hashtbl.mem seen n then
        invalid_arg ("Layer.make: duplicate primitive " ^ n)
      else Hashtbl.add seen n ())
    prims;
  { name; prims; rely; guar; init_abs }

(* Every move looks its primitive up by name, so the walk compares with
   [String.equal] rather than [List.assoc_opt]'s polymorphic compare.
   First match wins. *)
let rec find name = function
  | [] -> None
  | (n, p) :: rest -> if String.equal n name then Some p else find name rest

let find_prim name l = find name l.prims
let prim_names l = List.map fst l.prims
let has_prim name l = List.exists (fun (n, _) -> String.equal n name) l.prims

let union a b =
  if not (Rely_guarantee.same a.rely b.rely) then
    invalid_arg "Layer.union: rely conditions differ"
  else if not (Rely_guarantee.same a.guar b.guar) then
    invalid_arg "Layer.union: guarantee conditions differ"
  else
    let overlap =
      List.filter (fun (n, _) -> has_prim n b) a.prims
    in
    (match overlap with
    | [] -> ()
    | (n, _) :: _ -> invalid_arg ("Layer.union: primitive in both layers: " ^ n));
    {
      name = a.name ^ "+" ^ b.name;
      prims = a.prims @ b.prims;
      rely = a.rely;
      guar = a.guar;
      init_abs =
        (fun i ->
          List.fold_left
            (fun abs (k, v) -> Abs.set k v abs)
            (a.init_abs i)
            (Abs.fields (b.init_abs i)));
    }


let restrict names l =
  { l with prims = List.filter (fun (n, _) -> List.mem n names) l.prims }

let shared_prim name sem = name, Shared sem
let private_prim name sem = name, Private sem

let event_prim name ret =
  ( name,
    Shared
      (fun i args log ->
        match ret i args log with
        | Ok v ->
          Step { events = [ Event.make ~args ~ret:v i name ]; ret = v; crit = Keep }
        | Error msg -> Stuck msg) )

let pure_private name f =
  name, Private (fun _ args abs -> Ok (abs, f args))
