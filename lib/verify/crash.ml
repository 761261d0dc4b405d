open Ccal_core

(* Crash-refinement certificates (DESIGN.md S30).

   A crash edge is a whole-machine game over an async-disk underlay plus
   an accounting view of its logs: which operations the run appended to
   the log-structured store, which it acknowledged as synced, and what
   recovery reads back from a given post-crash platter.  The certificate
   quantifies over every schedule of the suite and, inside each play,
   over every crash point (the start of the run and the position after
   each disk-state-changing event) and every enumerated (keep, tear)
   mask over the writes in flight there — the same mask lattice the
   in-game crash pseudo-thread samples adversarially — and demands that
   post-crash recovery is a prefix-consistent refinement of the
   pre-crash history:

     - no invented ops: the recovered sequence is a prefix of the
       appended sequence;
     - no acknowledged op lost: the prefix extends at least to the
       highest LSN a completed [sync] acknowledged before the crash.

   The checker itself is generic — the edge closures carry all knowledge
   of the WAL encoding — so the disk library can define edges without
   this module depending on it.  Everything runs through {!Ctx}: the
   schedule scan is a {!Parallel.budgeted_scan} (verdicts identical for
   every jobs count, lowest-index failure wins), budgets and faults
   apply unchanged, and successful edge reports memoize under the
   ["crash"] cache kind. *)

type op = { lsn : int; key : int; value : int }

let pp_op ppf o = Format.fprintf ppf "lsn %d: (%d -> %d)" o.lsn o.key o.value

type edge = {
  name : string;
  layer : Layer.t;  (** the crash-free underlay (crashes are analytic) *)
  threads : (Event.tid * Prog.t) list;
  max_steps : int;
  is_crash_point : Event.t -> bool;
      (** events after which the machine may lose power with a changed
          platter (disk writes and syncs) *)
  inflight : Log.t -> int;  (** in-flight (unsynced) writes at a prefix *)
  appended : Log.t -> op list;
      (** the operations the prefix appended to the store, in log order,
          completed or still in flight *)
  acked : Log.t -> int;
      (** highest LSN a completed [sync] in the prefix acknowledged *)
  recover : Log.t -> keep:int -> tear:int -> (op list, string) result;
      (** crash the prefix's disk under the masks, run recovery, return
          the operations recovery reads back *)
  key_salt : string;
      (** distinguishes implementation variants behind identical layer
          shapes (e.g. the deliberately unsynced WAL) in cache keys *)
}

type failure = {
  f_edge : string;
  f_sched : string;
  f_index : int;  (** events played before the crash *)
  f_keep : int;
  f_tear : int;
  f_reason : string;
}

let pp_failure ppf f =
  Format.fprintf ppf
    "crash-refinement failure: edge %s, schedule %s, crash point %d \
     (keep=0x%x tear=0x%x): %s"
    f.f_edge f.f_sched f.f_index f.f_keep f.f_tear f.f_reason

type edge_report = {
  edge_name : string;
  schedules : int;
  crash_points : int;
  recoveries : int;
  distinct_logs : int;
  millis : float;
}

type report = {
  edges : edge_report list;
  total_recoveries : int;
  total_millis : float;
}

let report_of edges =
  {
    edges;
    total_recoveries = List.fold_left (fun n e -> n + e.recoveries) 0 edges;
    total_millis = List.fold_left (fun m e -> m +. e.millis) 0. edges;
  }

let pp_edge ~millis ppf e =
  Format.fprintf ppf "  %-44s ok  %4d schedules  %5d crash points  %6d recoveries  %3d logs"
    e.edge_name e.schedules e.crash_points e.recoveries e.distinct_logs;
  if millis then Format.fprintf ppf "  %8.1f ms" e.millis;
  Format.pp_print_newline ppf ()

let pp_report_gen ~millis ppf r =
  Format.fprintf ppf "crash refinement: %d edges, %d recoveries"
    (List.length r.edges) r.total_recoveries;
  if millis then Format.fprintf ppf ", %.1f ms" r.total_millis;
  Format.pp_print_newline ppf ();
  List.iter (pp_edge ~millis ppf) r.edges

let pp_report ppf r = pp_report_gen ~millis:true ppf r
let pp_report_canonical ppf r = pp_report_gen ~millis:false ppf r

(* ---- mask enumeration ----

   With [m] writes in flight, the full lattice is every keep subset,
   each paired with no tear and with each single torn kept write.  Past
   the bound (CLI [--crashes], default 4) full enumeration is 2^m and the
   suite degrades to the boundary cases — drop all, every contiguous
   prefix, keep all, and a torn head/tail — deterministically, so
   verdicts stay jobs- and cache-stable. *)

let masks ~bound m =
  let pairs =
    if m = 0 then [ (0, 0) ]
    else if m <= bound then
      List.concat_map
        (fun keep ->
          (keep, 0)
          :: List.filter_map
               (fun i ->
                 if Durability.keeps ~mask:keep i then Some (keep, 1 lsl i)
                 else None)
               (List.init m Fun.id))
        (List.init (1 lsl m) Fun.id)
    else
      let all = Durability.all_keep m in
      ((0, 0) :: (all, 0) :: (all, 1) :: (all, 1 lsl (m - 1))
      :: List.map (fun i -> (Durability.all_keep (i + 1), 0)) (List.init m Fun.id))
  in
  List.sort_uniq compare pairs

(* ---- the per-crash-point check ---- *)

let rec is_prefix recovered appended =
  match (recovered, appended) with
  | [], _ -> Ok ()
  | r :: _, [] ->
    Error
      (Format.asprintf "recovered op not in the appended sequence (invented op): %a"
         pp_op r)
  | r :: rt, a :: at ->
    if r = a then is_prefix rt at
    else
      Error
        (Format.asprintf "recovered op diverges from the appended sequence: %a, expected %a"
           pp_op r pp_op a)

let check_point edge prefix ~keep ~tear =
  match edge.recover prefix ~keep ~tear with
  | Error msg -> Error (Printf.sprintf "recovery failed: %s" msg)
  | Ok recovered -> (
    let appended = edge.appended prefix in
    let acked = edge.acked prefix in
    match is_prefix recovered appended with
    | Error _ as e -> e
    | Ok () ->
      let n = List.length recovered in
      if n < acked then
        Error
          (Printf.sprintf
             "acknowledged-synced op lost: sync acknowledged lsn %d but recovery \
              reads back only %d op%s"
             acked n (if n = 1 then "" else "s"))
      else Ok ())

(* ---- the per-schedule body ---- *)

type sched_outcome = {
  so_points : int;
  so_recoveries : int;
  so_cost : int;  (** deterministic budget cost of this schedule *)
  so_log : Log.t;
  so_failure : failure option;
}

let check_sched ~bound ?stop edge sched =
  let cfg =
    Game.config ~max_steps:edge.max_steps ?stop edge.layer edge.threads sched
  in
  let o = Game.run cfg in
  match o.Game.status with
  | Game.Cancelled -> `Interrupted
  | Game.All_done ->
    let events = Log.chronological o.Game.log in
    let fail i (keep, tear) reason =
      {
        f_edge = edge.name;
        f_sched = Sched.name sched;
        f_index = i;
        f_keep = keep;
        f_tear = tear;
        f_reason = reason;
      }
    in
    (* Crash points in play order: the empty start plus the position
       after every disk-state-changing event.  The first failing
       (point, keep, tear) in this deterministic order is the one
       reported, for every jobs count and cache temperature. *)
    let points = ref 0 and recoveries = ref 0 and failure = ref None in
    let at_point i prefix =
      incr points;
      let m = edge.inflight prefix in
      List.iter
        (fun (keep, tear) ->
          if !failure = None then begin
            incr recoveries;
            match check_point edge prefix ~keep ~tear with
            | Ok () -> ()
            | Error reason -> failure := Some (fail i (keep, tear) reason)
          end)
        (masks ~bound m)
    in
    at_point 0 Log.empty;
    let _ =
      List.fold_left
        (fun (i, prefix) e ->
          let prefix = Log.append e prefix in
          let i = i + 1 in
          if !failure = None && edge.is_crash_point e then at_point i prefix;
          (i, prefix))
        (0, Log.empty) events
    in
    `Checked
      {
        so_points = !points;
        so_recoveries = !recoveries;
        so_cost = o.Game.steps + !recoveries;
        so_log = o.Game.log;
        so_failure = !failure;
      }
  | status ->
    (* The crash-free underlay game must finish: a deadlock or stuck run
       here is an edge-construction bug, reported as a failure rather
       than silently skipped. *)
    `Checked
      {
        so_points = 0;
        so_recoveries = 0;
        so_cost = o.Game.steps;
        so_log = o.Game.log;
        so_failure =
          Some
            {
              f_edge = edge.name;
              f_sched = Sched.name sched;
              f_index = o.Game.steps;
              f_keep = 0;
              f_tear = 0;
              f_reason =
                Format.asprintf "underlay game did not complete: %a"
                  Game.pp_status status;
            };
      }

(* ---- the per-edge scan ---- *)

let check_edge_live ~ctx ~bound edge scheds =
  let replay =
    Parallel.budgeted_scan
      ?jobs:(Ctx.jobs_opt ctx)
      ~token:ctx.Ctx.token
      ~cost:(function `Checked so -> so.so_cost | `Interrupted -> 0)
      ~interrupted:(fun r -> r = `Interrupted)
      ~cut:(fun r ->
        match r with
        | `Checked { so_failure = Some _; _ } -> true
        | `Checked _ | `Interrupted -> false)
      (fun ~stop sched -> check_sched ~bound ?stop edge sched)
      scheds
  in
  if replay.Parallel.ran_out then
    raise (Edges.Out_of_budget (Budget.spent ctx.Ctx.token));
  let rec go schedules points recoveries logs = function
    | [] ->
      let distinct_logs = List.length (Log.dedup (List.rev logs)) in
      Probe.add Probe.logs_distinct distinct_logs;
      Ok
        {
          edge_name = edge.name;
          schedules;
          crash_points = points;
          recoveries;
          distinct_logs;
          millis = 0.;
        }
    | `Checked { so_failure = Some f; _ } :: _ -> Error f
    | `Checked so :: rest ->
      go (schedules + 1) (points + so.so_points) (recoveries + so.so_recoveries)
        (so.so_log :: logs) rest
    | `Interrupted :: _ ->
      (* excluded from the budgeted prefix by construction *)
      assert false
  in
  go 0 0 0 [] replay.Parallel.prefix

(* Cache key of a crash edge: the underlay, the client programs, the
   schedule suite, the mask bound, the fuel, the memory mode, and the
   variant salt.  The accounting closures are identified by
   [name]/[key_salt] — the same convention {!Sim_rel} uses for relations.
   [jobs] is absent by design. *)
let edge_key ~ctx ~bound edge scheds =
  let st = Fingerprint.string Fingerprint.empty "crash-edge" in
  let st = Fingerprint.string st edge.name in
  let st = Fingerprint.string st edge.key_salt in
  let st = Fingerprint.layer st edge.layer in
  let st =
    List.fold_left
      (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
      st edge.threads
  in
  let st = Fingerprint.scheds st scheds in
  let st = Fingerprint.int st bound in
  let st = Fingerprint.int st edge.max_steps in
  let st = Fingerprint.memory st ctx.Ctx.memory in
  Fingerprint.finish st

let check_ctx ~ctx ?(crashes = 4) edges =
  Ctx.arm ctx @@ fun () ->
  let edge e =
    (* The suite is a DPOR walk: derived at most once, by the key or the
       scan, whichever needs it first, and only for an edge the loop
       reaches.  It is built outside the edge's timed window. *)
    let scheds = lazy (Explore.scheds_of_strategy_ctx ~ctx e.layer e.threads) in
    let run () =
      let scheds = Lazy.force scheds in
      let r, millis =
        Verify_clock.timed (fun () -> check_edge_live ~ctx ~bound:crashes e scheds)
      in
      Result.map (fun er -> { er with millis }) r
    in
    {
      Edges.name = e.name;
      key = Some (fun () -> edge_key ~ctx ~bound:crashes e (Lazy.force scheds));
      run;
    }
  in
  Budget.map
    (Result.map (fun p -> report_of p.Edges.completed))
    (Edges.run ~ctx ~kind:"crash"
       ~with_millis:(fun e millis -> { e with millis })
       (List.map edge edges))
