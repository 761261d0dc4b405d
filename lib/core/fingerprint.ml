type t = int
type state = int

let equal = Int.equal
let to_hex fp = Printf.sprintf "%016x" fp

(* Bump whenever any combinator below changes meaning, or a cached
   value's type changes under an unchanged key: stale entries written
   under the old scheme must become unreachable, not wrong (the cache
   unmarshals them at the type the key implies). *)
let version = 3

let int st n = Log.mix st n
let bool st b = int st (if b then 1 else 0)

(* Same seed constant as [Log.hash], then the version: a format bump
   re-keys every fingerprint at once. *)
let empty = int (int 0x2545F491 0x46505249 (* "FPRI" *)) version

let finish st =
  let st = int st (st lsr 11) in
  int st 0x464E (* "FN" *)

let string st s =
  String.fold_left (fun st c -> int st (Char.code c)) (int st (String.length s)) s

let option f st = function None -> int st 0x4E (* 'N' *) | Some x -> f (int st 0x53) x

let list f st xs = List.fold_left f (int st (List.length xs)) xs

let rec value st (v : Value.t) =
  match v with
  | Vunit -> int st 1
  | Vint n -> int (int st 2) n
  | Vbool b -> bool (int st 3) b
  | Vpair (a, b) -> value (value (int st 4) a) b
  | Vlist vs -> list value (int st 5) vs

(* Fixed probe set for continuations.  Covers the return shapes the
   object bodies actually branch on: unit, the 0/1 integers (ticket
   numbers, queue heads, boolean-as-int flags) and a genuine boolean.
   A probe whose type the continuation rejects raises; that is mixed as
   a marker, not an error — rejection is itself structure. *)
let probes = [ Value.Vunit; Value.Vint 0; Value.Vint 1; Value.Vbool true ]

(* The walk behind [prog], [prog_blind] and [modul]: [emit] mixes the
   values the program emits, [budget] bounds the nodes visited. *)
let walk emit budget st p =
  let remaining = ref budget in
  let rec go st (p : Prog.t) =
    if !remaining <= 0 then int st 0x544F (* truncation marker *)
    else begin
      decr remaining;
      match p with
      | Ret v -> emit (int st 0x52) v
      | Call { prim; args; k } ->
        let st = list emit (string (int st 0x43) prim) args in
        List.fold_left
          (fun st pv ->
            match k pv with
            | sub -> go (value (int st 0x4B) pv) sub
            | exception _ -> int (value (int st 0x58) pv) 0x454B (* probe rejected *))
          st probes
    end
  in
  go st p

let prog st p = walk value 2048 st p

(* Tid-blinded program fingerprint: like [prog], but every [Vint]
   occurrence of the thread's own id in the structure the program emits
   (primitive arguments, return values) is replaced by a marker.  Two
   sibling workers whose programs differ only in their own tid then
   fingerprint identically — the symmetry classes of the dpor engine's
   [sym] reduction (DESIGN.md S31).  Probe values fed INTO
   continuations are not blinded: they are ours and identical across
   threads. *)
let prog_blind ~tid st p =
  let rec blind (v : Value.t) =
    match v with
    | Vint n when n = tid -> Value.Vint 0x544944 (* "TID" marker *)
    | Vpair (a, b) -> Value.Vpair (blind a, blind b)
    | Vlist vs -> Value.Vlist (List.map blind vs)
    | Vunit | Vbool _ | Vint _ -> v
  in
  walk (fun st v -> value st (blind v)) 2048 st p

(* Argument vectors for probing module bodies: nullary, one int, two
   ints — the arities the case-study primitives use. *)
let arg_probes = [ []; [ Value.Vint 0 ]; [ Value.Vint 0; Value.Vint 1 ] ]

(* The budget of 512 nodes is per probed body, so whole-module work is
   bounded by [512 * |names| * |arg_probes|]. *)
let modul st m =
  List.fold_left
    (fun st name ->
      let st = string (int st 0x4D) name in
      match Prog.Module.find name m with
      | None -> int st 0x30
      | Some body ->
        List.fold_left
          (fun st args ->
            let st = list value st args in
            match body args with
            | p -> walk value 512 st p
            | exception _ -> int st 0x454B)
          st arg_probes)
    st (Prog.Module.names m)

let layer st (l : Layer.t) =
  let st = string (int st 0x4C) l.name in
  let st = string st l.rely.Rely_guarantee.name in
  let st = string st l.guar.Rely_guarantee.name in
  list
    (fun st (name, prim) ->
      int (string st name) (match prim with Layer.Shared _ -> 1 | Layer.Private _ -> 2))
    st l.prims

let engine st e = string st (Strategy.Engine.to_string e)

(* The memory mode enters every game-shaped key (DESIGN.md S29): an SC
   verdict must never be served for a TSO query, even for layers whose
   prim lists coincide. *)
let memory st (m : Memory.t) =
  int (int st 0x4D454D (* "MEM" *)) (match m with Memory.Sc -> 1 | Memory.Tso -> 2)

let rel st (r : Sim_rel.t) = string (int st 0x52454C (* "REL" *)) r.Sim_rel.name
