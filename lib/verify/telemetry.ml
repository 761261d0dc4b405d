(* Verification telemetry (DESIGN.md S25): the user-facing facade over
   the core instrumentation engine [Ccal_core.Probe].

   The engine (counters, spans, capture/commit) lives in core so the hot
   paths — [Game.run], the machine linking bodies — can bump it without a
   dependency cycle.  This module owns everything above that: the
   human-readable stats table ([pp_stats]) and the Chrome-trace exporter
   ([write_chrome_trace]), which turn a verification run's recorded
   counters, spans and pool statistics into artifacts for the CLI's
   [--stats] / [--trace] flags and the bench's [--only telemetry] rows.

   No JSON library ships in the container, so the trace writer emits the
   Trace Event Format by hand — the format is flat enough (one object per
   event, string/number fields only) that this stays readable.  The test
   suite round-trips the output through its own JSON parser. *)

include Ccal_core.Probe

(* ------------------------------------------------------------------ *)
(* stats table                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-span-name aggregate over the recorded spans. *)
type span_stat = {
  sname : string;
  calls : int;
  total_ms : float;
  max_ms : float;
  domains : int;  (** distinct domains that recorded this span *)
}

let span_stats () =
  let tbl : (string, int ref * int64 ref * int64 ref * (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (s : span_ev) ->
      let calls, total, mx, doms =
        match Hashtbl.find_opt tbl s.name with
        | Some entry -> entry
        | None ->
          let entry = (ref 0, ref 0L, ref 0L, Hashtbl.create 4) in
          Hashtbl.add tbl s.name entry;
          entry
      in
      Stdlib.incr calls;
      total := Int64.add !total s.dur_ns;
      if Int64.compare s.dur_ns !mx > 0 then mx := s.dur_ns;
      Hashtbl.replace doms s.dom ())
    (spans ());
  Hashtbl.fold
    (fun sname (calls, total, mx, doms) acc ->
      {
        sname;
        calls = !calls;
        total_ms = Verify_clock.ns_to_ms !total;
        max_ms = Verify_clock.ns_to_ms !mx;
        domains = Hashtbl.length doms;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (b.total_ms, b.sname) (a.total_ms, a.sname))

let pp_stats fmt () =
  let cs = counters () in
  Format.fprintf fmt "@[<v>telemetry:@,";
  if cs = [] then Format.fprintf fmt "  (no counters recorded)@,"
  else begin
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 0 cs
    in
    Format.fprintf fmt "  counters:@,";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "    %-*s %10d@," width n v)
      cs
  end;
  (match span_stats () with
  | [] -> ()
  | ss ->
    let width =
      List.fold_left (fun w s -> max w (String.length s.sname)) 0 ss
    in
    Format.fprintf fmt "  spans:  %-*s %8s %12s %12s %5s@," width "name"
      "calls" "total-ms" "max-ms" "doms";
    List.iter
      (fun s ->
        Format.fprintf fmt "          %-*s %8d %12.3f %12.3f %5d@," width
          s.sname s.calls s.total_ms s.max_ms s.domains)
      ss);
  let ps = Parallel.stats () in
  if ps.Parallel.batches > 0 then
    Format.fprintf fmt "  pool:   %d batches, %d jobs, %.3f ms busy@,"
      ps.Parallel.batches ps.Parallel.jobs_run
      (float_of_int ps.Parallel.busy_ns /. 1e6);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

(* about:tracing / Perfetto "Trace Event Format": a JSON object with a
   [traceEvents] array of complete events (ph = "X", microsecond ts/dur)
   plus one metadata event per domain naming its track.  tid = the OCaml
   domain id, so each pool worker gets its own row. *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let chrome_trace_string () =
  let evs = spans () in
  (* Relative timestamps: the monotonic epoch is arbitrary and the raw
     nanosecond values overflow the float mantissa viewers use. *)
  let t0 =
    List.fold_left
      (fun acc (s : span_ev) -> if Int64.compare s.ts_ns acc < 0 then s.ts_ns else acc)
      (match evs with [] -> 0L | s :: _ -> s.ts_ns)
      evs
  in
  let us_of ns = Int64.to_float ns /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  (* one name-metadata event per domain track *)
  let doms = Hashtbl.create 8 in
  List.iter
    (fun (s : span_ev) ->
      if not (Hashtbl.mem doms s.dom) then Hashtbl.add doms s.dom ())
    evs;
  Hashtbl.fold (fun d () acc -> d :: acc) doms []
  |> List.sort compare
  |> List.iter (fun d ->
         emit
           (Printf.sprintf
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
              d d));
  List.iter
    (fun (s : span_ev) ->
      let nb = Buffer.create 32 in
      json_escape nb s.name;
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"depth\":%d}}"
           (Buffer.contents nb)
           (us_of (Int64.sub s.ts_ns t0))
           (us_of s.dur_ns) s.dom s.depth))
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace_string ()))
