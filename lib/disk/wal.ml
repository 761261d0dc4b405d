open Ccal_core
open Ccal_objects
open Ccal_verify

let ( let* ) = Prog.( let* )

(* The write-ahead log object (DESIGN.md S30).

   Records live at page = LSN (1-based, contiguous); a record is
   [lsn; key; value; checksum] with the checksum mixed from the other
   three fields, so a torn or garbage page is recognised.  One lock
   serialises the log head; its published word carries the next LSN plus
   the ghost operation descriptor of the hashtable idiom, so appends are
   a single disk write under the lock and the release is the
   linearization point.  [w_sync] group-commits via [d_sync] and
   acknowledges every LSN appended before it.

   Recovery never trusts volatile state: it scans the platter from page
   1 and truncates at the first missing, torn, checksum-invalid or
   out-of-sequence record. *)

let append_tag = "w_append"
let sync_tag = "w_sync"

(* Disjoint by construction from the hashtable's lock range (meta 0,
   buckets 1..shards with the small shard counts the games use). *)
let wal_lock = 64

type op = Crash.op = { lsn : int; key : int; value : int }

let checksum lsn key value = Log.mix (Log.mix (Log.mix 0x5EED lsn) key) value

let record o =
  Value.list
    [ Value.int o.lsn; Value.int o.key; Value.int o.value;
      Value.int (checksum o.lsn o.key o.value) ]

let decode = function
  | Value.Vlist [ Value.Vint lsn; Value.Vint key; Value.Vint value; Value.Vint c ]
    when lsn >= 1 && c = checksum lsn key value ->
    Some { lsn; key; value }
  | _ -> None

(* ---- lock-word encoding ----

   word: Vint 0 (initial) | Vpair (Vint next_lsn, desc); the descriptor
   is the ghost linearization-point payload: Vint 0 (none) |
   Vlist [Vint 1; lsn; key; value] (append) | Vlist [Vint 2; upto]
   (sync acknowledging every lsn <= upto). *)

let desc_append o =
  Value.list [ Value.int 1; Value.int o.lsn; Value.int o.key; Value.int o.value ]
let desc_sync upto = Value.list [ Value.int 2; Value.int upto ]
let word next d = Value.pair (Value.int next) d

let next_of = function
  | Value.Vpair (Value.Vint n, _) when n >= 1 -> n
  | _ -> 1

(* ---- implementation bodies (programs over Llock+disk) ---- *)

let acq = Prog.call Lock_intf.acq_tag [ Value.int wal_lock ]
let rel w = Prog.call Lock_intf.rel_tag [ Value.int wal_lock; w ]
let bad_args = Prog.call "wal_bad_args" []

let append_body args =
  match args with
  | [ Value.Vint key; Value.Vint value ] ->
    let* w = acq in
    let o = { lsn = next_of w; key; value } in
    let* _ = Prog.call Disk.write_tag [ Value.int o.lsn; record o ] in
    let* _ = rel (word (o.lsn + 1) (desc_append o)) in
    Prog.ret (Value.int o.lsn)
  | _ -> bad_args

(* [unsynced] is the deliberately broken no-WAL variant: it skips the
   [d_sync] but still acknowledges — exactly the bug the crash
   certificate exists to catch. *)
let sync_body ~unsynced args =
  match args with
  | [] ->
    let* w = acq in
    let n = next_of w in
    let* _ = if unsynced then Prog.ret Value.unit else Prog.call Disk.sync_tag [] in
    let* _ = rel (word n (desc_sync (n - 1))) in
    Prog.ret (Value.int (n - 1))
  | _ -> bad_args

let module_ ?(unsynced = false) () =
  Prog.Module.of_bodies
    [ (append_tag, append_body); (sync_tag, sync_body ~unsynced) ]

let underlay ?crashes () =
  Lock_intf.layer ~extra:(Disk.prims ?crashes ()) "Llock+disk"

(* ---- recovery ---- *)

let recover st =
  let rec scan n acc =
    match Option.map decode (Disk.durable_page st n) with
    | Some (Some o) when o.lsn = n -> scan (n + 1) (o :: acc)
    | _ -> List.rev acc
  in
  scan 1 []

(* ---- log accounting for the crash edge ---- *)

let appended_of_log log =
  List.filter_map
    (fun (e : Event.t) ->
      if String.equal e.tag Disk.write_tag then
        match e.args with [ Value.Vint _; v ] -> decode v | _ -> None
      else None)
    (Log.chronological log)

let acked_of_log log =
  List.fold_left
    (fun acc (e : Event.t) ->
      if String.equal e.tag Lock_intf.rel_tag then
        match e.args with
        | [ Value.Vint l;
            Value.Vpair (_, Value.Vlist [ Value.Vint 2; Value.Vint upto ]) ]
          when l = wal_lock ->
          max acc upto
        | _ -> acc
      else acc)
    0 (Log.chronological log)

let recover_prefix log ~keep ~tear =
  match Disk.replay_log log with
  | Error msg -> Error msg
  | Ok st -> Ok (recover (Disk.crash_commit ~keep ~tear st))

(* ---- clients and the crash edge ---- *)

(* Two appends around a sync per thread, on per-thread keys: enough to
   put acknowledged, unacknowledged-but-written and in-flight records in
   every prefix the schedules reach. *)
let client i =
  let app k v =
    Prog.call append_tag [ Value.int k; Value.int v ]
  in
  Prog.seq (app (10 + i) (100 + i))
    (Prog.seq (Prog.call sync_tag []) (app (20 + i) (200 + i)))

let threads_of ~threads modul =
  List.init threads (fun idx ->
      let i = idx + 1 in
      (i, Prog.Module.link modul (client i)))

let crash_edge ?(threads = 2) ?(unsynced = false) () =
  let modul = module_ ~unsynced () in
  {
    Crash.name = (if unsynced then "wal-unsynced" else "wal");
    layer = underlay ();
    threads = threads_of ~threads modul;
    max_steps = 4_000;
    is_crash_point = Disk.changes_disk;
    inflight =
      (fun log ->
        match Disk.replay_log log with
        | Ok st -> List.length (Disk.inflight st)
        | Error _ -> 0);
    appended = appended_of_log;
    acked = acked_of_log;
    recover = recover_prefix;
    key_salt = (if unsynced then "wal:unsynced" else "wal:synced");
  }
