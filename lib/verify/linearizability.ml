open Ccal_core

type report = {
  runs : int;
  distinct_logs : int;
  events : int;
}

(* The underlay threads: the client linked with the implementation. *)
let linked impl client tids =
  List.map (fun i -> i, Prog.Module.link impl (client i)) tids

(* The refinement scan: the underlay game of the linked client and
   implementation threads under each schedule, judged by
   {!Refinement.judge}.  The budget is charged the underlay event count
   of each schedule (a deterministic proxy for its work). *)
let refine_ctx ~ctx ?(max_steps = 200_000) ?expect_all_done ~underlay ~impl
    ~overlay ~rel ~client ~tids ~scheds () =
  let rec go logs = function
    | [] ->
      let distinct_logs = List.length (Log.dedup logs) in
      Probe.add Probe.logs_distinct distinct_logs;
      Ok
        {
          runs = List.length logs;
          distinct_logs;
          events = List.fold_left (fun n l -> n + Log.length l) 0 logs;
        }
    | Ok l :: rest -> go (l :: logs) rest
    | Error (f : Failure.t) :: _ -> Error f
  in
  Budget.map (go [])
    (Parallel.games ~ctx ~max_steps ~cut:Result.is_error
       ~cost:(fun o _ -> Log.length o.Game.log)
       underlay (linked impl client tids)
       (Refinement.judge ~max_steps ?expect_all_done ~overlay ~rel ~client
          ~tids)
       scheds)

let check_ctx ~ctx ?scheds ~underlay ~impl ~overlay ~rel ~client ~tids () =
  (* The schedulers drive the underlay game, so derive the suite from
     the same linked threads the scan will run. *)
  let scheds =
    match scheds with
    | Some s -> s
    | None ->
      Explore.scheds_of_strategy_ctx ~ctx underlay (linked impl client tids)
  in
  refine_ctx ~ctx ~underlay ~impl ~overlay ~rel ~client ~tids ~scheds ()

let refine_cert_ctx ~ctx (cert : Calculus.cert) ~client =
  let j = cert.Calculus.judgment in
  check_ctx ~ctx ~underlay:j.Calculus.underlay ~impl:j.Calculus.impl
    ~overlay:j.Calculus.overlay ~rel:j.Calculus.rel ~client
    ~tids:j.Calculus.focus ()
