(* The instrumentation engine behind Ccal_verify.Telemetry (DESIGN.md S25).

   Counters and spans live here in core — below Game and the machines —
   so the hot paths (Game.run, the linking bodies) can bump them without
   a dependency cycle; the exporters and the CLI/bench wiring live in
   lib/verify/telemetry.ml.

   Design constraints, in order:

   - Verdict-neutral and ~free when disabled.  Every entry point reads
     one atomic boolean and returns; the default is off.  Instrumentation
     must never change a certificate judgment, only observe it.
   - Domain-safe.  Counters are atomics (or per-capture local tables,
     see below); spans go to per-domain buffers registered once under a
     mutex — worker domains never contend on a shared span list.
   - Deterministic across jobs counts.  A counter bumped inside a
     [Parallel.games] judge would overcount under [jobs > 1]:
     workers may evaluate indices beyond the early-exit cut before the
     cut is published, indices the sequential oracle never runs.
     [captured] diverts a job's counts into a local delta; the executor
     commits the deltas of exactly the merged prefix, in index order, so
     totals are bit-identical for every jobs count.  Spans are exempt:
     they carry wall-clock timestamps and are inherently run-specific.  *)

let now_ns () = Monotonic_clock.now ()

(* ------------------------------------------------------------------ *)
(* the switch                                                          *)
(* ------------------------------------------------------------------ *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* ------------------------------------------------------------------ *)
(* named monotonic counters                                            *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; ccell : int Atomic.t }

let counters_mutex = Mutex.create ()
let counter_table : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 32

let counter name =
  Mutex.lock counters_mutex;
  let cell =
    match Hashtbl.find_opt counter_table name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add counter_table name c;
      c
  in
  Mutex.unlock counters_mutex;
  { cname = name; ccell = cell }

(* A capture delta: counter increments diverted away from the globals,
   waiting for a deterministic commit.  Single-domain, so plain refs. *)
type delta = (string, int ref) Hashtbl.t

(* The domain's active capture, if any. *)
let local_delta : delta option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let bump_delta (d : delta) name n =
  match Hashtbl.find_opt d name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add d name (ref n)

let add c n =
  if Atomic.get enabled && n <> 0 then
    match !(Domain.DLS.get local_delta) with
    | Some d -> bump_delta d c.cname n
    | None -> ignore (Atomic.fetch_and_add c.ccell n)

let incr c = add c 1

let add_named name n = if Atomic.get enabled && n <> 0 then add (counter name) n

let captured f =
  if not (Atomic.get enabled) then (
    f ();
    None)
  else begin
    let slot = Domain.DLS.get local_delta in
    let saved = !slot in
    let d : delta = Hashtbl.create 8 in
    slot := Some d;
    Fun.protect ~finally:(fun () -> slot := saved) f;
    Some d
  end

(* Commit through [add], not straight into the globals: a scan nested
   inside another capture must surface its jobs' counts into the
   enclosing delta so the outer merge stays deterministic too. *)
let commit = function
  | None -> ()
  | Some (d : delta) -> Hashtbl.iter (fun name r -> add_named name !r) d

let counters () =
  Mutex.lock counters_mutex;
  let snap =
    Hashtbl.fold
      (fun name cell acc ->
        let v = Atomic.get cell in
        if v = 0 then acc else (name, v) :: acc)
      counter_table []
  in
  Mutex.unlock counters_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) snap

let get name =
  Mutex.lock counters_mutex;
  let v =
    match Hashtbl.find_opt counter_table name with
    | Some c -> Atomic.get c
    | None -> 0
  in
  Mutex.unlock counters_mutex;
  v

let diff_counters before after =
  (* both snapshots are name-sorted; counters are monotone, so a merge
     walk yields the per-name growth *)
  let rec go acc before after =
    match before, after with
    | _, [] -> List.rev acc
    | [], (n, v) :: a -> go ((n, v) :: acc) [] a
    | (nb, vb) :: b', (na, va) :: a' ->
      let c = String.compare nb na in
      if c = 0 then
        go (if va = vb then acc else (na, va - vb) :: acc) b' a'
      else if c < 0 then go acc b' after
      else go ((na, va) :: acc) before a'
  in
  go [] before after

(* ------------------------------------------------------------------ *)
(* timed spans, one buffer per domain                                  *)
(* ------------------------------------------------------------------ *)

type span_ev = {
  name : string;
  ts_ns : int64;
  dur_ns : int64;
  dom : int;  (** the recording domain — one trace track each *)
  depth : int;  (** nesting depth within that domain at record time *)
}

(* Per-domain recorder.  Only its own domain mutates it; the exporter
   reads after the pools have quiesced. *)
type recorder = {
  rdom : int;
  mutable rdepth : int;
  mutable rspans : span_ev list;  (* newest first *)
  mutable rcount : int;
}

let span_cap = 200_000 (* per-domain; keeps a forgotten [enable] bounded *)

let recorders_mutex = Mutex.create ()
let recorders : recorder list ref = ref []

let recorder_key : recorder Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          rdom = (Domain.self () :> int);
          rdepth = 0;
          rspans = [];
          rcount = 0;
        }
      in
      Mutex.lock recorders_mutex;
      recorders := r :: !recorders;
      Mutex.unlock recorders_mutex;
      r)

let span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let r = Domain.DLS.get recorder_key in
    let depth = r.rdepth in
    r.rdepth <- depth + 1;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (now_ns ()) t0 in
        r.rdepth <- depth;
        if r.rcount < span_cap then begin
          r.rspans <-
            { name; ts_ns = t0; dur_ns = dur; dom = r.rdom; depth } :: r.rspans;
          r.rcount <- r.rcount + 1
        end)
      f
  end

let spans () =
  Mutex.lock recorders_mutex;
  let rs = !recorders in
  Mutex.unlock recorders_mutex;
  List.concat_map (fun r -> List.rev r.rspans) rs
  |> List.sort (fun a b ->
         let c = compare a.dom b.dom in
         if c <> 0 then c else Int64.compare a.ts_ns b.ts_ns)

(* ------------------------------------------------------------------ *)
(* reset (tests and benchmarks)                                        *)
(* ------------------------------------------------------------------ *)

let reset () =
  Mutex.lock counters_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counter_table;
  Mutex.unlock counters_mutex;
  Mutex.lock recorders_mutex;
  List.iter
    (fun r ->
      r.rspans <- [];
      r.rcount <- 0)
    !recorders;
  Mutex.unlock recorders_mutex

(* ------------------------------------------------------------------ *)
(* the standard counters                                               *)
(* ------------------------------------------------------------------ *)

let schedules_run = counter "schedules_run"
let replay_steps = counter "replay_steps"
let events_folded = counter "replay.events_folded"
let sleep_set_prunes = counter "sleep_set_prunes"
let logs_distinct = counter "logs_distinct"
let race_checks = counter "race_checks"
