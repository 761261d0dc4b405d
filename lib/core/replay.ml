type 'a t = Log.t -> ('a, string) result

(* Replay functions run on every shared-primitive call, so re-folding the
   whole log each time made a play quadratic in its length.  The fold is
   incremental instead (DESIGN.md S32): [Log.t] is a persistent
   newest-first list, so a call whose log contains, physically, the spine
   cell this fold last stopped at resumes from the state it reached there
   ([step] is pure) and steps only the newer events.  A remembered [Error]
   is returned for every extension, so the first error still wins.

   Memos live in a scope that each game play opens ({!scoped}), private to
   its domain and dropped with it: nothing outlives the play, and a play's
   hits depend only on its own calls, so counters stay jobs-invariant.  A
   fold finds its slot by a local exception (a universal type).  Folds
   built afresh per call never hit, so they only take slots no hit has
   proven yet. *)
type scope = {
  memos : exn array;
  mutable proven : int;  (* bit i: slot i's fold has found its memo there *)
  mutable next : int;  (* round-robin victim among unproven slots *)
}

let slots = 8

let current : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scoped f =
  let cur = Domain.DLS.get current in
  let saved = !cur in
  cur := Some { memos = Array.make slots Exit; proven = 0; next = 0 };
  Fun.protect ~finally:(fun () -> cur := saved) f

(* Past this many newer events the fold reverses them into a list rather
   than recursing once per event on the native stack. *)
let deep = 16_384

(* [step] failed on the [n]-th event stepped. *)
exception Stuck_at of int * string

let rec fold_rec step base k = function
  | e :: older when k > 0 -> (
    match step (fold_rec step base (k - 1) older) e with
    | Ok acc -> acc
    | Error msg -> raise_notrace (Stuck_at (k, msg)))
  | _ -> base

(* Fold the newest [k] events of [spine] onto [start], oldest first. *)
let step_newest ~step start spine k =
  match start with
  | Error _ -> start
  | Ok base -> (
    match
      if k <= deep then fold_rec step base k spine
      else
        let i = ref 0 and suffix = List.filteri (fun j _ -> j < k) spine in
        let step acc e =
          incr i;
          match step acc e with Ok acc -> acc | Error m -> raise_notrace (Stuck_at (!i, m))
        in
        List.fold_left step base (List.rev suffix)
    with
    | acc ->
      Probe.add Probe.events_folded k;
      Ok acc
    | exception Stuck_at (stepped, msg) ->
      Probe.add Probe.events_folded stepped;
      Error msg)

let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l)

(* The slot holding this fold's memo, or -1. *)
let rec own mine s i =
  if i = slots then -1 else if mine s.memos.(i) then i else own mine s (i + 1)

(* A slot for a fold that has none: the next unproven one, or -1. *)
let rec victim s j =
  if j = slots then -1
  else
    let i = (s.next + j) mod slots in
    if s.proven land (1 lsl i) <> 0 then victim s (j + 1)
    else (
      s.next <- i + 1;
      i)

let fold (type a) ~(init : a) ~step : a t =
  let module M = struct
    exception Memo of int * Event.t list * (a, string) result
  end in
  let mine = function M.Memo _ -> true | _ -> false in
  let remember s i n spine r =
    if i >= 0 then s.memos.(i) <- M.Memo (n, spine, r);
    r
  in
  fun l ->
    let n = Log.length l and spine = Log.newest_first l in
    match !(Domain.DLS.get current) with
    | None -> step_newest ~step (Ok init) spine n
    | Some s -> (
      let i = own mine s 0 in
      match if i < 0 then Exit else s.memos.(i) with
      | M.Memo (m, cell, r) when m <= n && drop (n - m) spine == cell ->
        s.proven <- s.proven lor (1 lsl i);
        if m = n then r else remember s i n spine (step_newest ~step r spine (n - m))
      | _ ->
        let i = if i < 0 then victim s 0 else i in
        remember s i n spine (step_newest ~step (Ok init) spine n))

type route = Key of int | Every | Skip

module Imap = Map.Make (Int)

(* A family's one state: each key's own result, and what a key that no
   [Key] event has named yet would hold ([Every] events step it too). *)
type 'a keyed = { unseen : ('a, string) result; keys : ('a, string) result Imap.t }

let family ~route ~init ~step =
  let step_key r e = Result.bind r (fun s -> step s e) in
  let all =
    fold ~init:{ unseen = Ok init; keys = Imap.empty } ~step:(fun st e ->
        match route e with
        | Skip -> Ok st
        | Key k ->
          let r = Option.value (Imap.find_opt k st.keys) ~default:st.unseen in
          Ok { st with keys = Imap.add k (step_key r e) st.keys }
        | Every ->
          Ok { unseen = step_key st.unseen e; keys = Imap.map (fun r -> step_key r e) st.keys })
  in
  fun k l ->
    Result.bind (all l) (fun st -> Option.value (Imap.find_opt k st.keys) ~default:st.unseen)

let on_objects tags (e : Event.t) =
  match Event.obj_of_args e.args with
  | Some k when List.mem e.tag tags -> Key k
  | _ -> Skip

let well_formed r l = match r l with Ok _ -> true | Error _ -> false
