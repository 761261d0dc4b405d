(* The per-mask crash judge, kept as the oracle for [Crash.judge]: every
   (keep, tear) mask recomputes the crash point's accounting
   ([appended], [acked]) from the prefix, and the prefix walk opens no
   replay scope, so every fold replays the whole prefix.  The judge
   under test must give the same points, recoveries and first failure. *)
open Ccal_core
open Ccal_verify

let rec is_prefix (recovered : Crash.op list) (appended : Crash.op list) =
  match (recovered, appended) with
  | [], _ -> Ok ()
  | r :: _, [] ->
    Error
      (Format.asprintf "recovered op not in the appended sequence (invented op): %a"
         Crash.pp_op r)
  | r :: rt, a :: at ->
    if r = a then is_prefix rt at
    else
      Error
        (Format.asprintf "recovered op diverges from the appended sequence: %a, expected %a"
           Crash.pp_op r Crash.pp_op a)

let check_point (edge : Crash.edge) prefix ~keep ~tear =
  match edge.Crash.recover prefix ~keep ~tear with
  | Error msg -> Error (Printf.sprintf "recovery failed: %s" msg)
  | Ok recovered -> (
    let appended = edge.Crash.appended prefix in
    let acked = edge.Crash.acked prefix in
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

(* Points, recoveries and the first failure of one finished play. *)
let judge ~bound (edge : Crash.edge) sched (o : Game.outcome) =
  (* The edge is named by [Edges.run], not by the judge. *)
  let points = ref 0 and recoveries = ref 0 and failure = ref None in
  let at_point i prefix =
    incr points;
    List.iter
      (fun (keep, tear) ->
        if !failure = None then begin
          incr recoveries;
          match check_point edge prefix ~keep ~tear with
          | Ok () -> ()
          | Error reason ->
            failure :=
              Some
                {
                  Crash.f_edge = "";
                  f_sched = Sched.name sched;
                  f_index = i;
                  f_reason = reason;
                  f_lower = prefix;
                  f_upper = Log.empty;
                  f_masks = Some (keep, tear);
                }
        end)
      (Crash.masks ~bound (edge.Crash.inflight prefix))
  in
  at_point 0 Log.empty;
  ignore
    (List.fold_left
       (fun (i, prefix) e ->
         let prefix = Log.append e prefix and i = i + 1 in
         if !failure = None && edge.Crash.is_crash_point e then at_point i prefix;
         (i, prefix))
       (0, Log.empty)
       (Log.chronological o.Game.log));
  (!points, !recoveries, !failure)
