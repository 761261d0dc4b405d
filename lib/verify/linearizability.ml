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
let refine_ctx ~ctx ?(max_steps = 200_000) ?expect_all_done ~underlay ~impl
    ~overlay ~rel ~client ~tids ~scheds () =
  Ctx.arm ctx @@ fun () ->
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
    | Error (f : Failure.t) :: _ -> Error f
  in
  Budget.map (go 0 [] [])
    (Parallel.games ~ctx ~max_steps ~cut:Result.is_error
       ~cost:(fun o _ -> Log.length o.Game.log)
       underlay threads_under
       (Refinement.judge ~max_steps ?expect_all_done ~overlay ~rel ~client
          ~tids)
       scheds)

let refine_cert_ctx ~ctx (cert : Calculus.cert) ~client ~scheds =
  refine_ctx ~ctx
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

let check_ctx ~ctx ?scheds ~underlay ~impl ~overlay ~rel ~client
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
    (refine_ctx ~ctx ~underlay ~impl ~overlay ~rel ~client ~tids
       ~scheds ())
