open Ccal_core
open Ccal_verify
open Ccal_kv

let ( let* ) = Prog.( let* )

(* The durable KV edge (DESIGN.md S30): lib/kv's sharded hash table
   retargeted onto the WAL.  Every mutation is logged before it is
   applied to the in-memory table — write-ahead in the program order of
   the calling thread — and [d_sync] (via [w_sync]) is the durability
   point.  Recovery folds the WAL's surviving record prefix back into a
   map; tombstones are records with value [-1].

   The in-memory table is the S28 hashtable verbatim, instantiated under
   private tags so its names cannot collide with a client-visible map
   layer, with bucket locks (meta 0, buckets 1..shards) disjoint from
   the WAL's log-head lock by construction. *)

let get_tag = "dget"
let put_tag = "dput"
let del_tag = "ddel"
let sync_tag = "dsync"

let tombstone = -1

let mem_tags =
  { Hashtable.get = "m_get"; put = "m_put"; del = "m_del"; resize = "m_resize" }

let bad_args = Prog.call "dkv_bad_args" []

let bodies =
  [
    ( get_tag,
      fun args ->
        match args with
        | [ Value.Vint _ ] -> Prog.call mem_tags.Hashtable.get args
        | _ -> bad_args );
    ( put_tag,
      fun args ->
        match args with
        | [ Value.Vint _; Value.Vint v ] when v >= 0 ->
          (* logged before applied *)
          let* _ = Prog.call Wal.append_tag args in
          Prog.call mem_tags.Hashtable.put args
        | _ -> bad_args );
    ( del_tag,
      fun args ->
        match args with
        | [ Value.Vint k ] ->
          let* _ =
            Prog.call Wal.append_tag [ Value.int k; Value.int tombstone ]
          in
          Prog.call mem_tags.Hashtable.del args
        | _ -> bad_args );
    ( sync_tag,
      fun args ->
        match args with [] -> Prog.call Wal.sync_tag [] | _ -> bad_args );
  ]

let module_ ?(shards = 2) ?(unsynced = false) () =
  Prog.Module.stack
    ~lower:
      (Prog.Module.union
         (Wal.module_ ~unsynced ())
         (Hashtable.module_ ~tags:mem_tags ~shards ()))
    ~upper:(Prog.Module.of_bodies bodies)

let underlay ?crashes () = Wal.underlay ?crashes ()

(* ---- clients and the crash edge ---- *)

(* Thread 1 also deletes its key after syncing; everyone else puts,
   syncs, puts again — acknowledged and unacknowledged mutations in
   every play. *)
let client i =
  let put k v = Prog.call put_tag [ Value.int k; Value.int v ] in
  let sync = Prog.call sync_tag [] in
  if i = 1 then
    Prog.seq (put 1 11) (Prog.seq sync (Prog.call del_tag [ Value.int 1 ]))
  else Prog.seq (put i (10 * i)) (Prog.seq sync (put (10 + i) (100 + i)))

let threads_of ~threads modul =
  List.init threads (fun idx ->
      let i = idx + 1 in
      (i, Prog.Module.link modul (client i)))

let crash_edge ?(threads = 2) ?(shards = 2) ?(unsynced = false) () =
  let modul = module_ ~shards ~unsynced () in
  let base = Wal.crash_edge ~threads ~unsynced () in
  {
    base with
    Crash.name = (if unsynced then "durable-kv-unsynced" else "durable-kv");
    threads = threads_of ~threads modul;
    max_steps = 8_000;
    key_salt =
      Printf.sprintf "durable-kv:shards=%d:%s" shards
        (if unsynced then "unsynced" else "synced");
  }
