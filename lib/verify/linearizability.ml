open Ccal_core

type report = {
  runs : int;
  distinct_logs : int;
  events : int;
}

(* The refinement scan: the underlay game of the linked client and
   implementation threads under each schedule, judged by
   {!Refinement.judge}.  The budget is charged the underlay event count
   of each schedule (a deterministic proxy for its work). *)
let refine_live ~ctx ?(max_steps = 200_000) ?expect_all_done ~underlay ~impl
    ~overlay ~rel ~client ~tids ~scheds () =
  let threads_under =
    List.map (fun i -> i, Prog.Module.link impl (client i)) tids
  in
  let rec go scheds_checked logs translated = function
    | [] ->
      Ok
        {
          Refinement.scheds_checked;
          logs = List.rev logs;
          translated = List.rev translated;
        }
    | Ok (l, lt) :: rest ->
      go (scheds_checked + 1) (l :: logs) (lt :: translated) rest
    | Error (f : Refinement.failure) :: _ -> Error f
  in
  Budget.map (go 0 [] [])
    (Parallel.games ~ctx ~max_steps ~cut:Result.is_error
       ~cost:(fun o _ -> Log.length o.Game.log)
       underlay threads_under
       (Refinement.judge ~max_steps ?expect_all_done ~overlay ~rel ~client
          ~tids)
       scheds)

(* Cache key of a refinement scan: both machine interfaces, the
   implementation bodies, the relation (by name), the client workload on
   the focused threads, the suite identity, and the fuel/strictness
   knobs.  [jobs] is absent by design. *)
let refine_key ?max_steps ?expect_all_done ~memory ~underlay ~impl ~overlay
    ~rel ~client ~tids ~scheds () =
  let st = Fingerprint.string Fingerprint.empty "refine" in
  let st = Fingerprint.layer st underlay in
  let st = Fingerprint.layer st overlay in
  let st = Fingerprint.memory st memory in
  let st = Fingerprint.modul st impl in
  let st = Fingerprint.string st rel.Sim_rel.name in
  let st =
    Fingerprint.list
      (fun st i -> Fingerprint.prog (Fingerprint.int st i) (client i))
      st tids
  in
  let st = Fingerprint.scheds st scheds in
  let st = Fingerprint.option Fingerprint.int st max_steps in
  Fingerprint.finish (Fingerprint.option Fingerprint.bool st expect_all_done)

(* The stored verdict: the successful report plus the hash of its logs,
   re-checked on load so a bit-rotted entry invalidates instead of
   deserializing into a wrong-but-plausible report. *)
type stored_report = { report : Refinement.report; log_hash : Fingerprint.t }

let report_hash (r : Refinement.report) =
  let st = Fingerprint.int Fingerprint.empty r.Refinement.scheds_checked in
  let st = Fingerprint.list Fingerprint.log st r.Refinement.logs in
  Fingerprint.finish (Fingerprint.list Fingerprint.log st r.Refinement.translated)

let refine_ctx ~ctx ?max_steps ?expect_all_done ~underlay ~impl ~overlay
    ~rel ~client ~tids ~scheds () =
  Ctx.arm ctx @@ fun () ->
  let live () =
    refine_live ~ctx ?max_steps ?expect_all_done ~underlay ~impl ~overlay
      ~rel ~client ~tids ~scheds ()
  in
  match ctx.Ctx.cache with
  | None -> live ()
  | Some c -> (
    let key =
      refine_key ?max_steps ?expect_all_done ~memory:ctx.Ctx.memory ~underlay
        ~impl ~overlay ~rel ~client ~tids ~scheds ()
    in
    let run_and_store () =
      match live () with
      | Budget.Complete (Ok report) as ok ->
        Cache.store c ~kind:"refine" key
          { report; log_hash = report_hash report };
        ok
      (* Refinement failures always re-run live, and an exhausted prefix
         is not the report — neither is stored. *)
      | (Budget.Complete (Error _) | Budget.Exhausted _) as r -> r
    in
    match Cache.find c ~kind:"refine" key with
    | Some { report; log_hash }
      when Fingerprint.equal (report_hash report) log_hash ->
      Budget.Complete (Ok report)
    | Some _ ->
      Cache.invalidate c ~kind:"refine" key;
      run_and_store ()
    | None -> run_and_store ())

let refine_cert_ctx ~ctx ?max_steps ?expect_all_done (cert : Calculus.cert)
    ~client ~scheds =
  refine_ctx ~ctx ?max_steps ?expect_all_done
    ~underlay:cert.Calculus.judgment.Calculus.underlay
    ~impl:cert.Calculus.judgment.Calculus.impl
    ~overlay:cert.Calculus.judgment.Calculus.overlay
    ~rel:cert.Calculus.judgment.Calculus.rel ~client
    ~tids:cert.Calculus.judgment.Calculus.focus ~scheds ()

let summarize (r : Refinement.report) =
  let logs = r.Refinement.logs in
  let distinct_logs = List.length (Log.dedup logs) in
  Probe.add Probe.logs_distinct distinct_logs;
  {
    runs = r.Refinement.scheds_checked;
    distinct_logs;
    events = List.fold_left (fun n l -> n + Log.length l) 0 logs;
  }

let check_ctx ~ctx ?max_steps ?scheds ~underlay ~impl ~overlay ~rel ~client
    ~tids () =
  Ctx.arm ctx @@ fun () ->
  let scheds =
    match scheds with
    | Some s -> s
    | None ->
      (* The schedulers drive the underlay game, so derive the suite from
         the same linked threads the scan will run. *)
      let threads_under =
        List.map (fun i -> i, Prog.Module.link impl (client i)) tids
      in
      Explore.scheds_of_strategy_ctx ~ctx underlay threads_under
  in
  Budget.map
    (Result.map summarize)
    (refine_ctx ~ctx ?max_steps ~underlay ~impl ~overlay ~rel ~client ~tids
       ~scheds ())

let check_cert_ctx ~ctx ?max_steps ?scheds (cert : Calculus.cert) ~client =
  check_ctx ~ctx ?max_steps ?scheds
    ~underlay:cert.Calculus.judgment.Calculus.underlay
    ~impl:cert.Calculus.judgment.Calculus.impl
    ~overlay:cert.Calculus.judgment.Calculus.overlay
    ~rel:cert.Calculus.judgment.Calculus.rel ~client
    ~tids:cert.Calculus.judgment.Calculus.focus ()
