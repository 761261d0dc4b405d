open Ccal_core
open Ccal_objects
open Ccal_verify

type report = Edges.report = {
  edges : Edges.row list;
  total_checks : int;
  total_millis : float;
}

let layout =
  { Edges.title = Some "kv stack"; total = "checks"; label_width = None;
    name_width = 68; after_name = " ok  "; millis_width = 8;
    columns =
      [ { count = "checks"; width = 5; unit = "schedules" };
        { count = "logs"; width = 3; unit = "logs" } ] }

(* ---- client workloads (programs over the overlay interface) ---- *)

(* Two keys, three roles: thread 1 also deletes its key, thread 2 grows
   the table mid-workload, everyone else puts and gets — enough to
   exercise every operation and the 2-key contention in one small game. *)
let ht_client ~shards i =
  let k = Value.int (i mod 2) in
  let put = Prog.call Map_spec.put_tag [ k; Value.int (10 + i) ] in
  let get = Prog.call Map_spec.get_tag [ k ] in
  if i = 1 then Prog.seq put (Prog.seq get (Prog.call Map_spec.del_tag [ k ]))
  else if i = 2 then
    Prog.seq put
      (Prog.seq (Prog.call Map_spec.resize_tag [ Value.int (shards + 1) ]) get)
  else Prog.seq put get

(* Three keys over (by default) two direct-mapped entries, so the eviction
   and write-back paths of the cache are reachable alongside the
   same-entry reader/writer contention. *)
let cache_client i =
  let k = Value.int (i mod 3) in
  Prog.seq
    (Prog.call Map_spec.put_tag [ k; Value.int (20 + i) ])
    (Prog.call Map_spec.get_tag [ k ])

(* Uniform workers for the symmetry-reduction gate: every thread runs
   put-then-get on the one key, and the only tid-dependent integer in its
   program is its own tid (the stored value) — so [Fingerprint.prog_blind]
   places all N workers in a single symmetry class and the dpor engine's
   [sym] flag can collapse the fresh-worker permutations. *)
let sym_client i =
  let k = Value.int 0 in
  Prog.seq
    (Prog.call Map_spec.put_tag [ k; Value.int i ])
    (Prog.call Map_spec.get_tag [ k ])

let composed_underlay () =
  Lock_intf.layer ~extra:(Block_cache.entry_prims ()) "Llock+cache"

(* ---- the edges ---- *)

type spec = {
  name : string;
  underlay : Layer.t;
  impl : Prog.Module.t;
  overlay : Layer.t;
  rel : Sim_rel.t;
  client : Event.tid -> Prog.t;
  tids : Event.tid list;
}

let edge_specs ~threads ~shards ~entries =
  let tids = List.init threads (fun i -> i + 1) in
  [
    {
      name = Printf.sprintf "Llock |- M_kv(shards=%d) : Lmap" shards;
      underlay = Hashtable.underlay ();
      impl = Hashtable.module_ ~shards ();
      overlay = Map_spec.layer ~shards ();
      rel = Hashtable.r_kv;
      client = ht_client ~shards;
      tids;
    };
    {
      name =
        Printf.sprintf "Lcache_disk |- M_cache(entries=%d) : Lmap[get,put]"
          entries;
      underlay = Block_cache.underlay ();
      impl = Block_cache.module_ ~entries ();
      overlay = Map_spec.cache_overlay ();
      rel = Block_cache.r_cache;
      client = cache_client;
      tids;
    };
    {
      name =
        Printf.sprintf
          "Llock+cache |- M_cache(entries=%d) . M_kv(shards=%d) : Lmap[get,put]"
          entries shards;
      underlay = composed_underlay ();
      impl =
        Prog.Module.stack
          ~lower:(Hashtable.module_ ~tags:Hashtable.backing_tags ~shards ())
          ~upper:(Block_cache.module_ ~entries ());
      overlay = Map_spec.cache_overlay ();
      rel = Block_cache.r_cache;
      client = cache_client;
      tids;
    };
  ]

(* One key per edge, covering exactly what the verdict depends on: both
   interfaces, the implementation module, the relation name, the client
   programs, and the strategy the scheduler suite derives from.  [jobs]
   is never part of a key (verdicts are jobs-identical). *)
let spec_fingerprint ~strategy s =
  let st = Fingerprint.string Fingerprint.empty "kv-edge" in
  let st = Fingerprint.string st s.name in
  let st = Fingerprint.layer st s.underlay in
  let st = Fingerprint.layer st s.overlay in
  let st = Fingerprint.modul st s.impl in
  let st = Fingerprint.rel st s.rel in
  let st = Fingerprint.list Fingerprint.int st s.tids in
  let st =
    List.fold_left (fun st i -> Fingerprint.prog st (s.client i)) st s.tids
  in
  let st = Fingerprint.engine st strategy in
  Fingerprint.finish st

let fingerprints ?(threads = 3) ?(shards = 2) ?(entries = 2)
    ?(strategy = Ctx.Engine.default) () =
  List.map
    (fun s -> s.name, spec_fingerprint ~strategy s)
    (edge_specs ~threads ~shards ~entries)

let verify_ctx ~ctx ?(threads = 3) ?(shards = 2) ?(entries = 2) () =
  Ctx.arm ctx @@ fun () ->
  let edge s =
    let run () =
      Result.map
        (fun (r : Linearizability.report) ->
          ( "Refine",
            [ "checks", r.Linearizability.runs; "logs", r.Linearizability.distinct_logs ] ))
        (Edges.value
           (Linearizability.check_ctx ~ctx ~underlay:s.underlay ~impl:s.impl
              ~overlay:s.overlay ~rel:s.rel ~client:s.client ~tids:s.tids ()))
    in
    {
      Edges.name = s.name;
      key = Some (fun () -> spec_fingerprint ~strategy:ctx.Ctx.strategy s);
      setup = ignore;
      run;
    }
  in
  Budget.map
    (Result.map (fun p -> p.Edges.completed))
    (Edges.run ~ctx ~kind:"kvedge" ~layout
       (List.map edge (edge_specs ~threads ~shards ~entries)))

(* ---- whole-machine games ---- *)

let linked m client tids =
  List.map (fun i -> i, Prog.Module.link m (client i)) tids

let ht_game ~shards ~threads () =
  let tids = List.init threads (fun i -> i + 1) in
  ( Hashtable.underlay (),
    linked (Hashtable.module_ ~shards ()) (ht_client ~shards) tids )

let sym_game ~shards ~threads () =
  let tids = List.init threads (fun i -> i + 1) in
  ( Hashtable.underlay (),
    linked (Hashtable.module_ ~shards ()) sym_client tids )

let cache_game ~entries ~threads () =
  let tids = List.init threads (fun i -> i + 1) in
  ( Block_cache.underlay (),
    linked (Block_cache.module_ ~entries ()) cache_client tids )

let composed_game ~shards ~entries ~threads () =
  let tids = List.init threads (fun i -> i + 1) in
  let impl =
    Prog.Module.stack
      ~lower:(Hashtable.module_ ~tags:Hashtable.backing_tags ~shards ())
      ~upper:(Block_cache.module_ ~entries ())
  in
  composed_underlay (), linked impl cache_client tids

(* ---- the YCSB-style workload ---- *)

(* A tiny deterministic LCG per thread; the bench and the CLI must see
   the same op stream for the same seed, so no [Random] state. *)
let ycsb_game ?(seed = 42) ~shards ~threads ~read_pct ~ops ~keyspace () =
  let m = Hashtable.module_ ~shards () in
  let thread i =
    let s = ref (((seed * 31) + (i * 7919)) land 0x3FFFFFFF) in
    let next () =
      s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
      !s
    in
    let op () =
      let r = next () mod 100 in
      let k = Value.int (next () mod keyspace) in
      if r < read_pct then Prog.call Map_spec.get_tag [ k ]
      else Prog.call Map_spec.put_tag [ k; Value.int (next () mod 1000) ]
    in
    let rec build n acc =
      if n = 0 then List.rev acc else build (n - 1) (op () :: acc)
    in
    Prog.Module.link m (Prog.seq_all (build ops []))
  in
  ( Hashtable.underlay (),
    List.init threads (fun idx -> idx + 1, thread (idx + 1)) )
