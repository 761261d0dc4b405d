open Ccal_core
open Ccal_objects

let ( let* ) = Prog.( let* )

let meta_lock = 0
let bucket_of k shards = 1 + (((k mod shards) + shards) mod shards)

(* ---- lock-word encoding ----

   meta word:   Vint 0 (initial) | Vpair (Vint shard_count, desc)
   bucket word: Vint 0 (initial) | Vpair (Vlist entries, desc)

   where entries are Vpair (Vint key, Vint value) and desc is the ghost
   operation descriptor published at a linearization point:
   Vint 0 (none) | Vlist [Vint opcode; Vlist args; ret].  Decoders are
   total — an unexpected word reads as the initial state rather than
   crashing the game. *)

let no_desc = Value.int 0
let desc op args ret = Value.list [ Value.int op; Value.list args; ret ]
let meta_word n d = Value.pair (Value.int n) d
let bucket_word es d = Value.pair (Value.list es) d

let meta_count ~default w =
  match w with
  | Value.Vpair (Value.Vint n, _) when n >= 1 -> n
  | _ -> default

let bucket_entries w =
  match w with
  | Value.Vpair (Value.Vlist es, _) -> es
  | _ -> []

let find_entry k es =
  let rec go = function
    | [] -> Map_spec.absent
    | Value.Vpair (Value.Vint k', Value.Vint v) :: rest ->
      if k' = k then v else go rest
    | _ :: rest -> go rest
  in
  go es

let remove_entry k es =
  List.filter
    (function Value.Vpair (Value.Vint k', _) -> k' <> k | _ -> true)
    es

let add_entry k v es = Value.pair (Value.int k) (Value.int v) :: remove_entry k es

let op_get = 1
let op_put = 2
let op_del = 3
let op_resize = 4

let tag_of_op op =
  if op = op_get then Some Map_spec.get_tag
  else if op = op_put then Some Map_spec.put_tag
  else if op = op_del then Some Map_spec.del_tag
  else if op = op_resize then Some Map_spec.resize_tag
  else None

(* ---- implementation bodies (programs over the lock layer) ---- *)

let acq l = Prog.call Lock_intf.acq_tag [ Value.int l ]
let rel l w = Prog.call Lock_intf.rel_tag [ Value.int l; w ]

(* A body handed arguments it cannot type calls a primitive no layer
   exports: the machine gets stuck, which is the spec's behaviour too. *)
let bad_args = Prog.call "kv_bad_args" []

(* Lock-coupled descent to the bucket of [k]: meta pins the shard count
   until the bucket lock is held, so resize cannot slip in between. *)
let with_bucket ~shards k f =
  let* wm = acq meta_lock in
  let mc = meta_count ~default:shards wm in
  let b = bucket_of k mc in
  let* wb = acq b in
  let* _ = rel meta_lock (meta_word mc no_desc) in
  f b (bucket_entries wb)

let get_body ~shards args =
  match args with
  | [ Value.Vint k ] ->
    with_bucket ~shards k (fun b es ->
        let v = find_entry k es in
        let* _ =
          rel b (bucket_word es (desc op_get [ Value.int k ] (Value.int v)))
        in
        Prog.ret (Value.int v))
  | _ -> bad_args

let put_body ~shards args =
  match args with
  | [ Value.Vint k; Value.Vint v ] when v >= 0 ->
    with_bucket ~shards k (fun b es ->
        let old = find_entry k es in
        let* _ =
          rel b
            (bucket_word (add_entry k v es)
               (desc op_put [ Value.int k; Value.int v ] (Value.int old)))
        in
        Prog.ret (Value.int old))
  | _ -> bad_args

let del_body ~shards args =
  match args with
  | [ Value.Vint k ] ->
    with_bucket ~shards k (fun b es ->
        let old = find_entry k es in
        let* _ =
          rel b
            (bucket_word (remove_entry k es)
               (desc op_del [ Value.int k ] (Value.int old)))
        in
        Prog.ret (Value.int old))
  | _ -> bad_args

(* Resize takes meta plus every bucket (old and new range) in ascending
   id order — total order with the per-op lock coupling, so no deadlock —
   redistributes, and linearizes at the meta release. *)
let resize_body ~shards args =
  match args with
  | [ Value.Vint n ] when n >= 1 ->
    let* wm = acq meta_lock in
    let mc = meta_count ~default:shards wm in
    let hi = max mc n in
    let rec grab b acc =
      if b > hi then redistribute acc
      else
        let* wb = acq b in
        grab (b + 1) (acc @ bucket_entries wb)
    and redistribute all =
      let contents b =
        List.filter
          (function
            | Value.Vpair (Value.Vint k, _) -> bucket_of k n = b
            | _ -> false)
          all
      in
      let rec release b =
        if b > hi then
          let* _ =
            rel meta_lock
              (meta_word n (desc op_resize [ Value.int n ] (Value.int mc)))
          in
          Prog.ret (Value.int mc)
        else
          let* _ =
            rel b (bucket_word (if b <= n then contents b else []) no_desc)
          in
          release (b + 1)
      in
      release 1
    in
    grab 1 []
  | _ -> bad_args

(* ---- layer plumbing ---- *)

type tags = { get : string; put : string; del : string; resize : string }

let spec_tags =
  {
    get = Map_spec.get_tag;
    put = Map_spec.put_tag;
    del = Map_spec.del_tag;
    resize = Map_spec.resize_tag;
  }

let backing_tags =
  { get = "disk_read"; put = "disk_write"; del = "disk_del";
    resize = "disk_resize" }

let underlay () = Lock_intf.layer "Llock"

let module_ ?(tags = spec_tags) ~shards () =
  Prog.Module.of_bodies
    [
      tags.get, get_body ~shards;
      tags.put, put_body ~shards;
      tags.del, del_body ~shards;
      tags.resize, resize_body ~shards;
    ]

(* ---- the simulation relation ----

   Pointwise: a bucket (or meta) release whose published word carries a
   ghost descriptor is the operation's linearization point and maps to
   the corresponding atomic map event; every other lock event erases. *)

let r_kv =
  Sim_rel.of_events "R_kv" (fun (e : Event.t) ->
      if not (String.equal e.tag Lock_intf.rel_tag) then []
      else
        match e.args with
        | [ Value.Vint _;
            Value.Vpair (_, Value.Vlist [ Value.Vint op; Value.Vlist args; ret ])
          ] -> (
          match tag_of_op op with
          | Some tag -> [ Event.make ~args ~ret e.src tag ]
          | None -> [])
        | _ -> [])

let bucket_contents b log =
  match Lock_intf.replay_lock b log with
  | Error _ -> []
  | Ok { Lock_intf.value; _ } ->
    List.filter_map
      (function
        | Value.Vpair (Value.Vint k, Value.Vint v) -> Some (k, v)
        | _ -> None)
      (bucket_entries value)
