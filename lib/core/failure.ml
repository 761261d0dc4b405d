type t = {
  f_edge : string;
  f_sched : string;
  f_index : int;
  f_reason : string;
  f_lower : Log.t;
  f_upper : Log.t;
  f_masks : (int * int) option;
}

let underlay ~sched lower reason =
  { f_edge = ""; f_sched = sched; f_index = Log.length lower; f_reason = reason;
    f_lower = lower; f_upper = Log.empty; f_masks = None }

let overlay ~sched ~lower upper reason =
  { (underlay ~sched lower reason) with f_index = Log.length upper; f_upper = upper }

let no_run reason = underlay ~sched:"" Log.empty reason

let pp ppf f =
  let edge = if f.f_edge = "" then "" else Printf.sprintf "edge %s, " f.f_edge in
  match f.f_masks with
  | Some (keep, tear) ->
    Format.fprintf ppf
      "crash-refinement failure: %sschedule %s, crash point %d (keep=0x%x tear=0x%x): %s"
      edge f.f_sched f.f_index keep tear f.f_reason
  | None when f.f_sched = "" -> Format.fprintf ppf "failure: %sno run: %s" edge f.f_reason
  | None ->
    Format.fprintf ppf "failure: %srun %s, event %d: %s" edge f.f_sched f.f_index
      f.f_reason
