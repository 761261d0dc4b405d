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
   schedule scan is {!Parallel.games} (verdicts identical for
   every jobs count, lowest-index failure wins), budgets apply
   unchanged, and successful edge rows memoize under the
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

type failure = Failure.t = {
  f_edge : string;
  f_sched : string;
  f_index : int;
  f_reason : string;
  f_lower : Log.t;
  f_upper : Log.t;
  f_masks : (int * int) option;
}

type report = {
  edges : Edges.row list;
  total_recoveries : int;
  total_millis : float;
}

let layout =
  { Edges.title = Some "crash refinement"; total = "recoveries"; label_width = None;
    name_width = 44; after_name = " ok  "; millis_width = 8;
    columns =
      [ { count = "schedules"; width = 4; unit = "schedules" };
        { count = "crash_points"; width = 5; unit = "crash points" };
        { count = "recoveries"; width = 6; unit = "recoveries" };
        { count = "logs"; width = 3; unit = "logs" } ] }

(* ---- mask enumeration ----

   With [m] writes in flight, the full lattice is every keep subset,
   each paired with no tear and with each single torn kept write.  Past
   the bound (CLI [--crashes], default 4) full enumeration is 2^m and the
   suite degrades to the boundary cases — drop all, every contiguous
   prefix, keep all, and a torn head/tail — deterministically, so
   verdicts stay jobs- and cache-stable. *)

let masks ~bound m =
  if m = 0 then [ (0, 0) ]
  else if m <= bound then
    (* generated in order: keeps ascending, each with its tears ascending *)
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
    List.sort_uniq compare
      ((0, 0) :: (all, 0) :: (all, 1) :: (all, 1 lsl (m - 1))
      :: List.map (fun i -> (Durability.all_keep (i + 1), 0)) (List.init m Fun.id))

(* ---- the per-crash-point check ---- *)

let rec is_prefix recovered appended =
  match (recovered, appended) with
  | [], _ -> Ok ()
  | r :: _, [] ->
    Error
      (Format.asprintf "recovered op not in the appended sequence (invented op): %a"
         pp_op r)
  | r :: rt, a :: at ->
    if Int.equal r.lsn a.lsn && Int.equal r.key a.key && Int.equal r.value a.value
    then is_prefix rt at
    else
      Error
        (Format.asprintf "recovered op diverges from the appended sequence: %a, expected %a"
           pp_op r pp_op a)

(* One mask at one crash point, against the point's accounting
   ([appended], [acked]), which depends on the prefix alone. *)
let check_mask edge prefix ~appended ~acked ~keep ~tear =
  match edge.recover prefix ~keep ~tear with
  | Error msg -> Error (Printf.sprintf "recovery failed: %s" msg)
  | Ok recovered ->
    let n = List.length recovered in
    Result.bind (is_prefix recovered appended) (fun () ->
        if n >= acked then Ok ()
        else
          Error
            (Printf.sprintf
               "acknowledged-synced op lost: sync acknowledged lsn %d but recovery \
                reads back only %d op%s"
               acked n (if n = 1 then "" else "s")))

(* ---- the per-schedule judge ---- *)

type sched_outcome = {
  so_points : int;
  so_recoveries : int;
  so_log : Log.t;
  so_failure : failure option;
}

let judge ~bound edge sched (o : Game.outcome) =
  let fail prefix masks reason =
    Some
      { (Failure.underlay ~sched:(Sched.name sched) prefix reason) with f_masks = masks }
  in
  let points = ref 0 and recoveries = ref 0 and failure = ref None in
  (match o.Game.status with
  | Game.All_done ->
    (* Crash points in play order: the empty start plus the position
       after every disk-state-changing event.  The first failing
       (point, keep, tear) in this deterministic order is the one
       reported, for every jobs count and cache temperature.  The
       accounting is per point; only recovery runs per mask. *)
    let at_point prefix =
      incr points;
      let m = edge.inflight prefix in
      let appended = edge.appended prefix and acked = edge.acked prefix in
      let rec go = function
        | [] -> ()
        | (keep, tear) :: rest -> (
          incr recoveries;
          match check_mask edge prefix ~appended ~acked ~keep ~tear with
          | Ok () -> go rest
          | Error reason -> failure := fail prefix (Some (keep, tear)) reason)
      in
      go (masks ~bound m)
    in
    (* Each prefix extends the previous one physically, so in one replay
       scope the folds behind [inflight] and [recover] resume from the
       last point instead of refolding the prefix (DESIGN.md S32). *)
    Replay.scoped (fun () ->
        at_point Log.empty;
        let rec walk prefix = function
          | e :: rest when Option.is_none !failure ->
            let prefix = Log.append e prefix in
            if edge.is_crash_point e then at_point prefix;
            walk prefix rest
          | _ -> ()
        in
        walk Log.empty (Log.chronological o.Game.log))
  | status ->
    (* The crash-free underlay game must finish: a deadlock or stuck run
       here is an edge-construction bug, reported as a failure rather
       than silently skipped. *)
    failure :=
      fail o.Game.log None
        (Format.asprintf "underlay game did not complete: %a" Game.pp_status status));
  { so_points = !points; so_recoveries = !recoveries; so_log = o.Game.log;
    so_failure = !failure }

(* ---- the per-edge scan ---- *)

(* A schedule costs its game steps plus its recoveries. *)
let check_edge_live ~ctx ~bound edge scheds =
  let judged =
    Edges.value
      (Parallel.games ~ctx ~max_steps:edge.max_steps
         ~cut:(fun so -> Option.is_some so.so_failure)
         ~cost:(fun o so -> o.Game.steps + so.so_recoveries)
         edge.layer edge.threads (judge ~bound edge) scheds)
  in
  let rec go schedules points recoveries logs = function
    | [] ->
      let distinct_logs = List.length (Log.dedup (List.rev logs)) in
      Probe.add Probe.logs_distinct distinct_logs;
      Ok
        ( "Crash",
          [ "schedules", schedules; "crash_points", points;
            "recoveries", recoveries; "logs", distinct_logs ] )
    | { so_failure = Some f; _ } :: _ -> Error f
    | so :: rest ->
      go (schedules + 1) (points + so.so_points) (recoveries + so.so_recoveries)
        (so.so_log :: logs) rest
  in
  go 0 0 0 [] judged

(* Cache key of a crash edge: the underlay, the client programs, the
   engine descriptor the schedule suite derives from, the mask bound,
   the fuel, the memory mode, and the variant salt.  The accounting
   closures are identified by [name]/[key_salt] — the same convention
   {!Sim_rel} uses for relations.  [jobs] is absent by design. *)
let edge_key ~ctx ~bound edge =
  let st = Fingerprint.string Fingerprint.empty "crash-edge" in
  let st = Fingerprint.string st edge.name in
  let st = Fingerprint.string st edge.key_salt in
  let st = Fingerprint.layer st edge.layer in
  let st =
    List.fold_left
      (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
      st edge.threads
  in
  let st = Fingerprint.engine st ctx.Ctx.strategy in
  let st = Fingerprint.int st bound in
  let st = Fingerprint.int st edge.max_steps in
  let st = Fingerprint.memory st ctx.Ctx.memory in
  Fingerprint.finish st

let check_ctx ~ctx ?(crashes = 4) edges =
  let edge e =
    (* The suite is derived in [setup], outside the edge's timed window,
       and only for an edge that misses: the key folds the descriptor, so
       a hit walks nothing. *)
    let scheds = lazy (Explore.scheds_of_strategy_ctx ~ctx e.layer e.threads) in
    {
      Edges.name = e.name;
      key = Some (fun () -> edge_key ~ctx ~bound:crashes e);
      setup = (fun () -> ignore (Lazy.force scheds));
      run = (fun () -> check_edge_live ~ctx ~bound:crashes e (Lazy.force scheds));
    }
  in
  Budget.map
    (Result.map (fun { Edges.completed = r; _ } ->
         { edges = r.Edges.edges; total_recoveries = r.Edges.total_checks;
           total_millis = r.Edges.total_millis }))
    (Edges.run ~ctx ~kind:"crash" ~layout (List.map edge edges))
