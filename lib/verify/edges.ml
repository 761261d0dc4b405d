(* The one edge loop and the one edge row (DESIGN.md S26/S27).

   A certified system is a chain of layer edges, each discharged on its
   own and then linked (Fig. 1, Fig. 5).  The Fig. 1 stack, the kv stack
   and the crash certifier all check their edges through [run]:

   - the budget is polled before each edge, so the frontier of an
     [Exhausted] run is the first edge that did not complete;
   - an edge whose inner checker ran out raises [Out_of_budget] with the
     checker's own [spent], which the loop reuses — one exhausted run
     counts one [budget.exhaustions];
   - every body runs in the one timed window and counter snapshot here;
   - with a cache attached, an edge with a key is looked up under
     [kind] before it runs and stored after it succeeds; failures and
     exhausted edges are never stored, so they always reproduce live;
   - a failure is the edge's [Failure.t], named here with the edge's
     name (DESIGN.md S40);
   - a partial report lists completed edges only.

   Every checker's rows print through [pp], from its [layout]. *)

open Ccal_core

type row = {
  name : string;
  label : string;
  counts : (string * int) list;
  millis : float;
  counters : (string * int) list;
}

let count r name = List.assoc name r.counts

type edge = {
  name : string;
  key : (unit -> Fingerprint.t) option;
  setup : unit -> unit;
  run : unit -> (string * (string * int) list, Failure.t) result;
}

type column = { count : string; width : int; unit : string }

type layout = {
  title : string option;
  total : string;
  label_width : int option;
  name_width : int;
  after_name : string;
  columns : column list;
  millis_width : int;
}

type report = { edges : row list; total_checks : int; total_millis : float }
type progress = { completed : report; next_edge : string option }

let report_of layout edges =
  {
    edges;
    total_checks = List.fold_left (fun n r -> n + count r layout.total) 0 edges;
    total_millis = List.fold_left (fun t (r : row) -> t +. r.millis) 0. edges;
  }

let pp ~millis l ppf rows =
  let r = report_of l rows in
  let ms sep = if millis then Printf.sprintf "%s%.1f ms" sep r.total_millis else "" in
  Option.iter
    (fun t ->
      Format.fprintf ppf "%s: %d edges, %d %s%s@." t (List.length rows) r.total_checks
        l.total (ms ", "))
    l.title;
  List.iter
    (fun (row : row) ->
      let label = Option.fold ~none:"" ~some:(fun w -> Printf.sprintf "[%-*s] " w row.label) in
      let column c = Printf.sprintf "%*d %s" c.width (count row c.count) c.unit in
      Format.fprintf ppf "  %s%-*s%s%s%s@." (label l.label_width) l.name_width row.name
        l.after_name
        (String.concat "  " (List.map column l.columns))
        (if millis then Printf.sprintf "  %*.1f ms" l.millis_width row.millis else "");
      if row.counters <> [] then
        Format.fprintf ppf "          %s@."
          (String.concat ", "
             (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) row.counters)))
    rows;
  if l.title = None then
    Format.fprintf ppf "  total: %d %s%s@." r.total_checks l.total (ms " in ")

exception Out_of_budget of Budget.spent

let value = function
  | Budget.Complete v -> v
  | Budget.Exhausted { spent; _ } -> raise (Out_of_budget spent)

let run ~ctx ~kind ~layout edges =
  (* [Probe.counters] snapshots are a handful of atomics, and empty when
     telemetry is off, so measuring every edge costs the uninstrumented
     path nothing. *)
  let measure e =
    e.setup ();
    let before = Probe.counters () in
    let r, millis = Verify_clock.timed e.run in
    let counters = Probe.diff_counters before (Probe.counters ()) in
    Result.map (fun (label, counts) -> { name = e.name; label; counts; millis; counters }) r
  in
  (* The key is forced, and the lookup timed, outside the edge body, so
     caching never moves a cold run's timings or counters.  A hit did no
     work, so it has no counters, and rows are stored without them: a
     store filled with telemetry on or off answers every later run
     alike. *)
  let check e =
    match ctx.Ctx.cache, e.key with
    | Some c, Some key -> (
      let key = key () in
      let found, lookup_ms = Verify_clock.timed (fun () -> Cache.find c ~kind key) in
      match found with
      | Some (r : row) -> Ok { r with millis = lookup_ms; counters = [] }
      | None ->
        let r = measure e in
        Result.iter (fun r -> Cache.store c ~kind key { r with counters = [] }) r;
        r)
    | _ -> measure e
  in
  let progress acc next_edge = Ok { completed = report_of layout (List.rev acc); next_edge } in
  let rec go acc = function
    | [] -> Budget.Complete (progress acc None)
    | (e : edge) :: rest -> (
      let stop spent = Budget.Exhausted { spent; partial = progress acc (Some e.name) } in
      if Budget.poll ctx.Ctx.token then stop (Budget.spent ctx.Ctx.token)
      else
        match check e with
        | exception Out_of_budget spent -> stop spent
        | Ok r -> go (r :: acc) rest
        | Error f -> Budget.Complete (Error { f with Failure.f_edge = e.name }))
  in
  go [] edges
