open Ccal_core

(* Bumped whenever a cached payload's type changes, since [find]
   unmarshals it unchecked: version 2 stores one [Edges.row] for every
   kind. *)
let format_version = 2
let magic = Printf.sprintf "CCAL-CACHE:%d:%d\n" format_version Fingerprint.version

(* Mirrored into telemetry so --stats/--trace runs see cache behaviour;
   the per-handle session counters below are always on. *)
let hits_c = Probe.counter "cache.hits"
let misses_c = Probe.counter "cache.misses"
let invalidations_c = Probe.counter "cache.invalidations"

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
  stores : int Atomic.t;
}

let dir t = t.dir

let default_dir () =
  match Sys.getenv_opt "CCAL_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    let cache_root =
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> d
      | _ ->
        let home = Option.value (Sys.getenv_opt "HOME") ~default:"." in
        Filename.concat home ".cache"
    in
    Filename.concat cache_root "ccal")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir () =
  let dir = Option.value dir ~default:(default_dir ()) in
  (try mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e))));
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  {
    dir;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
    stores = Atomic.make 0;
  }

let entry_suffix = Printf.sprintf ".v%d" format_version
let tmp_prefix = ".tmp-"

let path t ~kind fp =
  Filename.concat t.dir (kind ^ "-" ^ Fingerprint.to_hex fp ^ entry_suffix)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let has_magic s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

let find t ~kind fp =
  let file = path t ~kind fp in
  match read_file file with
  | exception _ ->
    Atomic.incr t.misses;
    Probe.incr misses_c;
    None
  | s -> (
    let invalidate () =
      (try Sys.remove file with Sys_error _ -> ());
      Atomic.incr t.invalidations;
      Probe.incr invalidations_c;
      Atomic.incr t.misses;
      Probe.incr misses_c;
      None
    in
    if not (has_magic s) then invalidate ()
    else
      match Marshal.from_string s (String.length magic) with
      | v ->
        Atomic.incr t.hits;
        Probe.incr hits_c;
        Some v
      | exception _ -> invalidate ())

let store t ~kind fp v =
  match
    let payload = magic ^ Marshal.to_string v [] in
    (* Fault injection (DESIGN.md S27): a corrupted store truncates the
       payload so the next [find] invalidates-as-miss and the verdict is
       recomputed live; an oversized store appends junk that
       [Marshal.from_string] never reads.  Either way the injected fault
       can move bytes and timings, never a verdict. *)
    let payload =
      if not (Fault.armed ()) then payload
      else begin
        let key = kind ^ "-" ^ Fingerprint.to_hex fp in
        if Fault.corrupt_store ~key then Fault.corrupt_payload payload
        else if Fault.oversize_store ~key then Fault.oversize_payload payload
        else payload
      end
    in
    let tmp =
      Filename.temp_file ~temp_dir:t.dir tmp_prefix entry_suffix
    in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc payload);
        Sys.rename tmp (path t ~kind fp))
  with
  | () -> Atomic.incr t.stores
  | exception (Sys_error _ | Unix.Unix_error _) -> ()

type session = { hits : int; misses : int; invalidations : int; stores : int }

let session_stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    invalidations = Atomic.get t.invalidations;
    stores = Atomic.get t.stores;
  }

(* An entry of any format version (stale ".v0" files still count and
   clear); in-flight temp files are not entries. *)
let is_entry name =
  (not (String.starts_with ~prefix:tmp_prefix name))
  &&
  match String.rindex_opt name '.' with
  | Some i ->
    String.length name > i + 2
    && name.[i + 1] = 'v'
    && int_of_string_opt (String.sub name (i + 2) (String.length name - i - 2))
       <> None
  | None -> false

type disk = { entries : int; bytes : int }

let disk_stats t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> { entries = 0; bytes = 0 }
  | names ->
    Array.fold_left
      (fun acc name ->
        if is_entry name then
          let size =
            match (Unix.stat (Filename.concat t.dir name)).Unix.st_size with
            | s -> s
            | exception Unix.Unix_error _ -> 0
          in
          { entries = acc.entries + 1; bytes = acc.bytes + size }
        else acc)
      { entries = 0; bytes = 0 } names

let clear t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun n name ->
        if is_entry name then (
          match Sys.remove (Filename.concat t.dir name) with
          | () -> n + 1
          | exception Sys_error _ -> n)
        else n)
      0 names
