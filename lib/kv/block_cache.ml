open Ccal_core

let ( let* ) = Prog.( let* )

(* ---- the per-entry lock state machine (scache RWLock) ---- *)

type flag = Unmapped | Reading | Available | Writeback | Exc

type entry = {
  flag : flag;
  page : int;
  value : int;
  dirty : bool;
  pending : int;
  owner : int;
  readers : (int * int) list;
}

let initial_entry =
  { flag = Unmapped; page = -1; value = Map_spec.absent; dirty = false;
    pending = -1; owner = -1; readers = [] }

let open_tag = "c_open"
let fill_tag = "c_fill"
let fill_exc_tag = "c_fill_exc"
let end_read_tag = "c_end_read"
let exc_tag = "c_exc"
let exc_wait_tag = "c_exc_wait"
let update_tag = "c_update"
let wb_done_tag = "c_wb_done"
let disk_read_tag = "disk_read"
let disk_write_tag = "disk_write"

let is_cache_tag t =
  String.length t > 2 && t.[0] = 'c' && t.[1] = '_'
  && (String.equal t open_tag || String.equal t fill_tag
     || String.equal t fill_exc_tag || String.equal t end_read_tag
     || String.equal t exc_tag || String.equal t exc_wait_tag
     || String.equal t update_tag || String.equal t wb_done_tag)

let refcount t rs = match List.assoc_opt t rs with Some n -> n | None -> 0

let readers_incr t rs = (t, refcount t rs + 1) :: List.remove_assoc t rs

let readers_decr t rs =
  let n = refcount t rs - 1 in
  let rs' = List.remove_assoc t rs in
  if n <= 0 then rs' else (t, n) :: rs'

(* Enabledness predicates shared by the primitives and the replay
   validator, so the two can never drift. *)
let can_hit st k =
  st.page = k
  && (st.flag = Available || st.flag = Writeback)
  && st.pending = -1

let can_claim_clean st k =
  st.flag = Unmapped
  || (st.flag = Available && st.page <> k && st.readers = []
     && st.pending = -1 && not st.dirty)

let can_evict_dirty st k =
  st.flag = Available && st.page <> k && st.readers = [] && st.pending = -1
  && st.dirty

(* One transition of the entry state machine, dispatched on the recorded
   return shape; an event whose preconditions do not hold marks the log
   ill-formed (first error wins in the replay). *)
let step (st : entry) (e : Event.t) : (entry, string) result =
  let t = e.src in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let claim k =
    Ok { initial_entry with flag = Reading; page = k; owner = t }
  in
  if String.equal e.tag open_tag || String.equal e.tag exc_tag then
    match e.args, e.ret with
    | [ _; Value.Vint k ], Value.Vpair (Value.Vint 1, _)
      when String.equal e.tag open_tag ->
      if can_hit st k then Ok { st with readers = readers_incr t st.readers }
      else err "c_open: invalid hit by %d on page %d" t k
    | [ _; Value.Vint k ], Value.Vint 1 when String.equal e.tag exc_tag ->
      if st.page = k && st.flag = Available && st.readers = [] && st.pending = -1
      then Ok { st with flag = Exc; owner = t }
      else err "c_exc: invalid exclusive grab by %d on page %d" t k
    | [ _; Value.Vint k ], Value.Vint 3 when String.equal e.tag exc_tag ->
      if st.page = k && st.flag = Available && st.readers <> []
         && st.pending = -1
      then Ok { st with pending = t }
      else err "c_exc: invalid pending mark by %d on page %d" t k
    | [ _; Value.Vint k ], Value.Vint 0 ->
      if can_claim_clean st k then claim k
      else err "%s: invalid claim by %d on page %d" e.tag t k
    | [ _; Value.Vint k ], Value.Vpair (Value.Vint 2, _) ->
      if can_evict_dirty st k then Ok { st with flag = Writeback; owner = t }
      else err "%s: invalid dirty eviction by %d" e.tag t
    | _ -> err "%s: malformed event" e.tag
  else if String.equal e.tag exc_wait_tag then
    match e.args with
    | [ _; Value.Vint k ] ->
      if st.pending = t && st.page = k && st.flag = Available
         && st.readers = []
      then Ok { st with flag = Exc; owner = t; pending = -1 }
      else err "c_exc_wait: thread %d not the drained pending locker" t
    | _ -> Error "c_exc_wait: malformed event"
  else if String.equal e.tag fill_tag || String.equal e.tag fill_exc_tag then
    match e.args with
    | [ _; Value.Vint k; Value.Vint v ] ->
      if st.flag = Reading && st.page = k && st.owner = t then
        if String.equal e.tag fill_tag then
          Ok { st with flag = Available; value = v; dirty = false; owner = -1;
                       readers = [ t, 1 ] }
        else Ok { st with flag = Exc; value = v; dirty = false }
      else err "%s: thread %d is not reading page %d" e.tag t k
    | _ -> err "%s: malformed event" e.tag
  else if String.equal e.tag end_read_tag then
    match e.args with
    | [ _; Value.Vint k ] ->
      if st.page = k && refcount t st.readers >= 1
         && (st.flag = Available || st.flag = Writeback)
      then Ok { st with readers = readers_decr t st.readers }
      else err "c_end_read: thread %d holds no read reference on %d" t k
    | _ -> Error "c_end_read: malformed event"
  else if String.equal e.tag update_tag then
    match e.args with
    | [ _; Value.Vint k; Value.Vint v ] ->
      if st.flag = Exc && st.owner = t && st.page = k then
        Ok { st with flag = Available; value = v; dirty = true; owner = -1 }
      else err "c_update: thread %d does not hold page %d exclusively" t k
    | _ -> Error "c_update: malformed event"
  else if String.equal e.tag wb_done_tag then
    match e.args with
    | [ _; Value.Vint p ] ->
      if st.flag = Writeback && st.owner = t && st.page = p && st.readers = []
      then Ok initial_entry
      else err "c_wb_done: thread %d is not the drained writeback owner" t
    | _ -> Error "c_wb_done: malformed event"
  else Ok st

(* Every entry's state, each with its own first error: an ill-formed
   entry sticks only the primitives that touch it, never the others. *)
let replay_entry : int -> entry Replay.t =
  Replay.family ~init:initial_entry ~step ~route:(fun (e : Event.t) ->
      match Event.obj_of_args e.args with
      | Some eid when is_cache_tag e.tag -> Replay.Key eid
      | _ -> Replay.Skip)

let disk_lookup p log =
  let rec go = function
    | [] -> Map_spec.absent
    | (e : Event.t) :: older ->
      if String.equal e.tag disk_write_tag then
        match e.args with
        | Value.Vint p' :: Value.Vint v :: _ when p' = p -> v
        | _ -> go older
      else go older
  in
  go (Log.newest_first log)

(* ---- the cache primitives ---- *)

let with_entry name args log f =
  match args with
  | Value.Vint e :: _ -> (
    match replay_entry e log with
    | Error msg -> Layer.Stuck msg
    | Ok st -> f st)
  | _ -> Layer.Stuck (name ^ ": bad arguments")

let emit t tag args ret =
  Layer.Step
    { events = [ Event.make ~args ~ret t tag ]; ret; crit = Layer.Keep }

let open_prim =
  Layer.shared_prim open_tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint k ] ->
        with_entry open_tag args log (fun st ->
            if can_hit st k then
              emit t open_tag args
                (Value.pair (Value.int 1) (Value.int st.value))
            else if can_claim_clean st k then emit t open_tag args (Value.int 0)
            else if can_evict_dirty st k then
              emit t open_tag args
                (Value.pair (Value.int 2)
                   (Value.pair (Value.int st.page) (Value.int st.value)))
            else Layer.Block)
      | _ -> Layer.Stuck "c_open: bad arguments")

let exc_prim =
  Layer.shared_prim exc_tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint k ] ->
        with_entry exc_tag args log (fun st ->
            if st.page = k && st.flag = Available && st.pending = -1 then
              if st.readers = [] then emit t exc_tag args (Value.int 1)
              else emit t exc_tag args (Value.int 3)
            else if can_claim_clean st k then emit t exc_tag args (Value.int 0)
            else if can_evict_dirty st k then
              emit t exc_tag args
                (Value.pair (Value.int 2)
                   (Value.pair (Value.int st.page) (Value.int st.value)))
            else Layer.Block)
      | _ -> Layer.Stuck "c_exc: bad arguments")

let exc_wait_prim =
  Layer.shared_prim exc_wait_tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint k ] ->
        with_entry exc_wait_tag args log (fun st ->
            if st.pending <> t then
              Layer.Stuck
                (Printf.sprintf "c_exc_wait: thread %d never marked pending" t)
            else if st.page = k && st.flag = Available && st.readers = [] then
              emit t exc_wait_tag args (Value.int 1)
            else Layer.Block)
      | _ -> Layer.Stuck "c_exc_wait: bad arguments")

(* [c_fill] and [c_fill_exc] share enabledness (the reading owner lands
   the page); the replay distinguishes them by tag — shared vs exclusive
   continuation. *)
let fill_prim tag =
  Layer.shared_prim tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint k; Value.Vint v ] ->
        with_entry tag args log (fun st ->
            if st.flag = Reading && st.page = k && st.owner = t then
              emit t tag args (Value.int v)
            else
              Layer.Stuck
                (Printf.sprintf "%s: thread %d is not reading page %d" tag t k))
      | _ -> Layer.Stuck (tag ^ ": bad arguments"))

let end_read_prim =
  Layer.shared_prim end_read_tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint k ] ->
        with_entry end_read_tag args log (fun st ->
            if st.page = k && refcount t st.readers >= 1
               && (st.flag = Available || st.flag = Writeback)
            then emit t end_read_tag args (Value.int st.value)
            else
              Layer.Stuck
                (Printf.sprintf
                   "c_end_read: thread %d holds no read reference on %d" t k))
      | _ -> Layer.Stuck "c_end_read: bad arguments")

let update_prim =
  Layer.shared_prim update_tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint k; Value.Vint v ] when v >= 0 ->
        with_entry update_tag args log (fun st ->
            if st.flag = Exc && st.owner = t && st.page = k then
              emit t update_tag args (Value.int st.value)
            else
              Layer.Stuck
                (Printf.sprintf
                   "c_update: thread %d does not hold page %d exclusively" t k))
      | _ -> Layer.Stuck "c_update: bad arguments")

let wb_done_prim =
  Layer.shared_prim wb_done_tag (fun t args log ->
      match args with
      | [ Value.Vint _; Value.Vint p ] ->
        with_entry wb_done_tag args log (fun st ->
            if st.flag = Writeback && st.owner = t && st.page = p then
              if st.readers = [] then emit t wb_done_tag args (Value.int 0)
              else Layer.Block (* hit-during-writeback readers drain first *)
            else
              Layer.Stuck
                (Printf.sprintf "c_wb_done: thread %d is not writing back %d" t
                   p))
      | _ -> Layer.Stuck "c_wb_done: bad arguments")

let entry_prims () =
  [
    open_prim;
    fill_prim fill_tag;
    fill_prim fill_exc_tag;
    end_read_prim;
    exc_prim;
    exc_wait_prim;
    update_prim;
    wb_done_prim;
  ]

let disk_prims () =
  [
    Layer.event_prim disk_read_tag (fun _ args log ->
        match args with
        | [ Value.Vint p ] -> Ok (Value.int (disk_lookup p log))
        | _ -> Error "disk_read: bad arguments");
    Layer.event_prim disk_write_tag (fun _ args _log ->
        match args with
        | [ Value.Vint _; Value.Vint v ] when v >= 0 -> Ok (Value.int 0)
        | _ -> Error "disk_write: bad arguments");
  ]

let underlay () = Layer.make "Lcache_disk" (entry_prims () @ disk_prims ())

(* ---- the implementation module ---- *)

let bad_args = Prog.call "kv_bad_args" []

let entry_of k entries = ((k mod entries) + entries) mod entries

let get_body ~entries args =
  match args with
  | [ Value.Vint k ] ->
    let ei = Value.int (entry_of k entries) and ki = Value.int k in
    let rec attempt () =
      let* r = Prog.call open_tag [ ei; ki ] in
      match r with
      | Value.Vpair (Value.Vint 1, _) -> Prog.call end_read_tag [ ei; ki ]
      | Value.Vint 0 ->
        let* v = Prog.call disk_read_tag [ ki ] in
        let* _ = Prog.call fill_tag [ ei; ki; v ] in
        Prog.call end_read_tag [ ei; ki ]
      | Value.Vpair (Value.Vint 2, Value.Vpair (p, pv)) ->
        let* _ = Prog.call disk_write_tag [ p; pv ] in
        let* _ = Prog.call wb_done_tag [ ei; p ] in
        attempt ()
      | _ -> bad_args
    in
    attempt ()
  | _ -> bad_args

let put_body ~entries args =
  match args with
  | [ Value.Vint k; Value.Vint v ] when v >= 0 ->
    let ei = Value.int (entry_of k entries) and ki = Value.int k in
    let vi = Value.int v in
    let rec attempt () =
      let* r = Prog.call exc_tag [ ei; ki ] in
      match r with
      | Value.Vint 1 -> Prog.call update_tag [ ei; ki; vi ]
      | Value.Vint 3 ->
        let* _ = Prog.call exc_wait_tag [ ei; ki ] in
        Prog.call update_tag [ ei; ki; vi ]
      | Value.Vint 0 ->
        let* ov = Prog.call disk_read_tag [ ki ] in
        let* _ = Prog.call fill_exc_tag [ ei; ki; ov ] in
        Prog.call update_tag [ ei; ki; vi ]
      | Value.Vpair (Value.Vint 2, Value.Vpair (p, pv)) ->
        let* _ = Prog.call disk_write_tag [ p; pv ] in
        let* _ = Prog.call wb_done_tag [ ei; p ] in
        attempt ()
      | _ -> bad_args
    in
    attempt ()
  | _ -> bad_args

let module_ ?(tags = Hashtable.spec_tags) ~entries () =
  Prog.Module.of_bodies
    [ tags.Hashtable.get, get_body ~entries; tags.Hashtable.put, put_body ~entries ]

(* ---- the simulation relation ---- *)

let r_cache =
  Sim_rel.of_events "R_cache" (fun (e : Event.t) ->
      if String.equal e.tag end_read_tag then
        match e.args with
        | [ _; (Value.Vint _ as k) ] ->
          [ Event.make ~args:[ k ] ~ret:e.ret e.src Map_spec.get_tag ]
        | _ -> []
      else if String.equal e.tag update_tag then
        match e.args with
        | [ _; k; v ] ->
          [ Event.make ~args:[ k; v ] ~ret:e.ret e.src Map_spec.put_tag ]
        | _ -> []
      else [])
