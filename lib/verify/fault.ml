(* Deterministic fault injection for the verification service.

   The ROADMAP north-star is a checker that runs unattended against
   adversarial inputs; this module injects the faults such a deployment
   meets — worker crashes, cache-file corruption, clock skew, oversized
   on-disk artifacts — from a seeded plan, so every injection point fires
   (or not) as a pure function of the plan and the site.  The contract,
   pinned by test/test_robust.ml, is that verdicts are bit-identical with
   and without an armed plan on every jobs count: crashes are absorbed by
   the game scan's attempt chain, corrupt cache entries degrade to misses, skew
   only moves timings, oversize only moves disk bytes.

   The active plan is process-global (like the telemetry switch) so the
   leaf modules — the cache's writer, the attempt chain of [Parallel],
   [Verify_clock.now_ns] — can consult it without threading a context
   through every call; checkers arm the plan carried by their [Ctx] for
   the duration of one verification. *)

type plan = {
  seed : int;
  crash : float;  (** per (job index, attempt) worker-crash probability *)
  corrupt : float;  (** per cache store, corrupt the written entry *)
  skew : float;  (** per clock read, advance a monotonic skew offset *)
  oversize : float;  (** per cache store, pad the entry with junk *)
}

let none = { seed = 0; crash = 0.; corrupt = 0.; skew = 0.; oversize = 0. }
let is_none p = p.crash = 0. && p.corrupt = 0. && p.skew = 0. && p.oversize = 0.

(* --inject SPEC: comma-separated kind:rate pairs plus an optional
   seed:N, e.g. "crash:0.1,corrupt-cache:0.05,skew:0.2,oversize:0.01". *)
let parse s =
  let ( let* ) = Result.bind in
  let item acc field =
    match String.split_on_char ':' (String.trim field) with
    | [ "" ] -> Ok acc
    | [ "seed"; n ] -> (
      match int_of_string_opt n with
      | Some seed -> Ok { acc with seed }
      | None -> Error (Printf.sprintf "bad seed %S" n))
    | [ kind; r ] -> (
      match float_of_string_opt r with
      | Some rate when rate >= 0. && rate <= 1. -> (
        match kind with
        | "crash" -> Ok { acc with crash = rate }
        | "corrupt-cache" -> Ok { acc with corrupt = rate }
        | "skew" -> Ok { acc with skew = rate }
        | "oversize" -> Ok { acc with oversize = rate }
        | _ ->
          Error
            (Printf.sprintf
               "unknown fault kind %S (expected crash, corrupt-cache, skew \
                or oversize)"
               kind))
      | Some _ | None ->
        Error (Printf.sprintf "bad rate %S (expected a float in [0,1])" r))
    | _ -> Error (Printf.sprintf "bad fault %S (expected KIND:RATE)" field)
  in
  List.fold_left
    (fun acc field ->
      let* acc = acc in
      item acc field)
    (Ok { none with seed = 1 })
    (String.split_on_char ',' s)

let pp fmt p =
  if is_none p then Format.pp_print_string fmt "none"
  else begin
    let field name r rest =
      if r > 0. then Printf.sprintf "%s:%g" name r :: rest else rest
    in
    Format.fprintf fmt "%s,seed:%d"
      (String.concat ","
         (field "crash" p.crash
            (field "corrupt-cache" p.corrupt
               (field "skew" p.skew (field "oversize" p.oversize [])))))
      p.seed
  end

(* ------------------------------------------------------------------ *)
(* the armed plan                                                      *)
(* ------------------------------------------------------------------ *)

let armed_plan = Atomic.make none

let with_plan p f =
  if is_none p then f ()
  else begin
    let saved = Atomic.get armed_plan in
    Atomic.set armed_plan p;
    Fun.protect ~finally:(fun () -> Atomic.set armed_plan saved) f
  end

let armed () = not (is_none (Atomic.get armed_plan))

(* ------------------------------------------------------------------ *)
(* seeded decisions                                                    *)
(* ------------------------------------------------------------------ *)

(* splitmix64 finalizer (Int64 arithmetic — the constants exceed OCaml's
   63-bit native int); decisions are a pure function of (seed, site),
   never of time or domain identity. *)
let mix x =
  let open Int64 in
  let x = mul (of_int x) 0x9E3779B97F4A7C15L in
  let x = mul (logxor x (shift_right_logical x 30)) 0xBF58476D1CE4E5B9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94D049BB133111EBL in
  to_int (logand (logxor x (shift_right_logical x 31)) 0x3FFFFFFFFFFFFFFFL)

let unit_float h = float_of_int (h land 0x3FFFFFFF) /. 1073741824.0

let decide rate site =
  rate > 0.
  &&
  let p = Atomic.get armed_plan in
  unit_float (mix (mix (p.seed + site) + 0x5bd1)) < rate

let hash_string s =
  let h = ref 0 in
  String.iter (fun c -> h := mix ((!h * 131) + Char.code c)) s;
  !h

(* injection statistics: plain session counters, deliberately NOT Probe
   counters — which faults actually fire on speculated pool indices is
   execution-dependent, and the telemetry table must stay
   jobs-deterministic. *)
type stats = {
  crashes : int;
  corruptions : int;
  oversized : int;
  skew_jumps : int;
}

let crashes_c = Atomic.make 0
let corruptions_c = Atomic.make 0
let oversized_c = Atomic.make 0
let skew_jumps_c = Atomic.make 0

let stats () =
  {
    crashes = Atomic.get crashes_c;
    corruptions = Atomic.get corruptions_c;
    oversized = Atomic.get oversized_c;
    skew_jumps = Atomic.get skew_jumps_c;
  }

let reset_stats () =
  Atomic.set crashes_c 0;
  Atomic.set corruptions_c 0;
  Atomic.set oversized_c 0;
  Atomic.set skew_jumps_c 0

(* ------------------------------------------------------------------ *)
(* decision points                                                     *)
(* ------------------------------------------------------------------ *)

(* After [max_attempts] consecutive crashes an index runs uninjected, so
   the attempt chain always terminates even at crash rates near 1. *)
let max_attempts = 8

let crash ~index ~attempt =
  let p = Atomic.get armed_plan in
  attempt < max_attempts
  && p.crash > 0.
  && decide p.crash (mix ((index * 8191) + attempt) lxor 0x1)
  && (Atomic.incr crashes_c;
      true)

let corrupt_store ~key =
  let p = Atomic.get armed_plan in
  p.corrupt > 0.
  && decide p.corrupt (hash_string key lxor 0x2)
  && (Atomic.incr corruptions_c;
      true)

let oversize_store ~key =
  let p = Atomic.get armed_plan in
  p.oversize > 0.
  && decide p.oversize (hash_string key lxor 0x4)
  && (Atomic.incr oversized_c;
      true)

(* Clock skew: a monotone offset added to [Verify_clock.now_ns].  Each
   armed read rolls the per-call counter; a [skew]-fraction of reads
   advances the offset by a seeded jump of up to ~2ms.  The offset only
   grows, so skewed time is still monotonic — the fault moves every
   timing and deadline, never a verdict. *)
let skew_offset = Atomic.make 0L
let skew_calls = Atomic.make 0

let skew_ns () =
  let p = Atomic.get armed_plan in
  if p.skew = 0. then 0L
  else begin
    let call = Atomic.fetch_and_add skew_calls 1 in
    if decide p.skew (mix call lxor 0x8) then begin
      Atomic.incr skew_jumps_c;
      let jump = Int64.of_int (mix (call lxor p.seed) land 0x1FFFFF) in
      let rec bump () =
        let cur = Atomic.get skew_offset in
        if not (Atomic.compare_and_set skew_offset cur (Int64.add cur jump))
        then bump ()
      in
      bump ()
    end;
    Atomic.get skew_offset
  end

(* Corruption payloads for the cache's writer. *)

let corrupt_payload s =
  (* Truncate to half: the magic header may survive, but the marshaled
     value cannot deserialize, so a later [find] deletes-as-miss. *)
  String.sub s 0 (String.length s / 2)

let oversize_payload s =
  (* Trailing junk after the marshaled value: [Marshal.from_string] stops
     at its own length header, so the entry still deserializes — only the
     on-disk footprint balloons. *)
  s ^ String.make 65536 '\xAA'
