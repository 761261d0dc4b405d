open Ccal_core

(* The async-disk machine layer (DESIGN.md S30).

   A page store with asynchronous durability: [d_write] only queues the
   page into an in-flight set, [d_read] sees the volatile view (newest
   in-flight write wins over the platter), and [d_sync] commits the
   whole in-flight set in order — group commit.  The crash primitive
   ([Durability.crash_tag]) is the machine's environment step: it
   commits the in-flight writes its keep mask selects (garbled when the
   tear mask also selects them), drops the rest, and halts the machine —
   every later disk call of a real thread blocks forever, so a crashed
   play ends as a deadlock of exactly the threads the power loss cut off.

   Like every object in the repo the disk is stateless: the state below
   is reconstructed from the global event log by a replay function on
   every call. *)

let read_tag = "d_read"
let write_tag = "d_write"
let sync_tag = "d_sync"
let crash_tag = Durability.crash_tag

module Imap = Map.Make (Int)

type state = {
  durable : Value.t Imap.t;  (** the platter: page -> value *)
  inflight : (int * Value.t) list;  (** queued writes, oldest first *)
  crashed : bool;
}

let initial = { durable = Imap.empty; inflight = []; crashed = false }

let unwritten = Value.int 0

(* A torn write: the platter holds recognisable garbage instead of the
   queued value, so any checksummed decoder rejects it. *)
let torn_marker = 0x7EA2

let torn v = Value.pair (Value.int torn_marker) v

let durable_page st p = Imap.find_opt p st.durable

let inflight st = st.inflight

let visible st p =
  let rec newest = function
    | [] -> ( match durable_page st p with Some v -> v | None -> unwritten)
    | (p', v) :: older -> if p' = p then v else newest older
  in
  newest (List.rev st.inflight)

let commit_all st =
  {
    st with
    durable =
      List.fold_left (fun d (p, v) -> Imap.add p v d) st.durable st.inflight;
    inflight = [];
  }

(* The crash transition over the in-flight set, oldest first: bit [i] of
   [keep] commits write [i] (torn when bit [i] of [tear] is also set),
   a clear bit drops it.  Shared between the in-game crash primitive and
   the certifier's analytic crash-point enumeration. *)
let crash_commit ~keep ~tear st =
  let durable, _ =
    List.fold_left
      (fun (d, i) (p, v) ->
        let d =
          if Durability.keeps ~mask:keep i then
            Imap.add p (if Durability.keeps ~mask:tear i then torn v else v) d
          else d
        in
        (d, i + 1))
      (st.durable, 0) st.inflight
  in
  { durable; inflight = []; crashed = true }

let of_durable pages =
  {
    initial with
    durable = List.fold_left (fun d (p, v) -> Imap.add p v d) Imap.empty pages;
  }

let replay : state Replay.t =
  Replay.fold ~init:initial ~step:(fun st (e : Event.t) ->
      if String.equal e.tag write_tag then
        match e.args with
        | [ Value.Vint p; v ] -> Ok { st with inflight = st.inflight @ [ (p, v) ] }
        | _ -> Error "d_write: bad arguments"
      else if String.equal e.tag sync_tag then Ok (commit_all st)
      else if String.equal e.tag crash_tag then
        match e.args with
        | [ Value.Vint keep; Value.Vint tear ] -> Ok (crash_commit ~keep ~tear st)
        | _ -> Error "d_crash: bad arguments"
      else Ok st)

let replay_log l = replay l

let changes_disk (e : Event.t) =
  String.equal e.tag write_tag || String.equal e.tag sync_tag

(* ---- the primitives ---- *)

let guard_crashed c st k =
  (* After the crash the machine is gone: a real thread's disk call can
     never fire again (the play deadlocks); only the crash pseudo-thread
     is past caring. *)
  if st.crashed && c >= 0 then Layer.Block else k ()

let read_prim =
  Layer.shared_prim read_tag (fun c args log ->
      match args with
      | [ Value.Vint _ ] -> (
        match replay log with
        | Error msg -> Layer.Stuck msg
        | Ok st ->
          guard_crashed c st @@ fun () ->
          let p = match args with [ Value.Vint p ] -> p | _ -> assert false in
          let ret = visible st p in
          Layer.Step
            { events = [ Event.make ~args ~ret c read_tag ]; ret; crit = Layer.Keep })
      | _ -> Layer.Stuck "d_read: expected one page argument")

let write_prim =
  Layer.shared_prim write_tag (fun c args log ->
      match args with
      | [ Value.Vint _; _ ] -> (
        match replay log with
        | Error msg -> Layer.Stuck msg
        | Ok st ->
          guard_crashed c st @@ fun () ->
          Layer.Step
            {
              events = [ Event.make ~args ~ret:Value.unit c write_tag ];
              ret = Value.unit;
              crit = Layer.Keep;
            })
      | _ -> Layer.Stuck "d_write: expected page and value arguments")

let sync_prim =
  Layer.shared_prim sync_tag (fun c args log ->
      match args with
      | [] -> (
        match replay log with
        | Error msg -> Layer.Stuck msg
        | Ok st ->
          guard_crashed c st @@ fun () ->
          let ret = Value.int (List.length st.inflight) in
          Layer.Step
            { events = [ Event.make ~args ~ret c sync_tag ]; ret; crit = Layer.Keep })
      | _ -> Layer.Stuck "d_sync: expected no arguments")

let crash_prim =
  Layer.shared_prim crash_tag (fun c args log ->
      if c >= 0 then
        Layer.Stuck "d_crash: only the crash pseudo-thread may crash the machine"
      else
        match args with
        | [ Value.Vint _; Value.Vint _ ] -> (
          match replay log with
          | Error msg -> Layer.Stuck msg
          | Ok st ->
            if st.crashed then Layer.Block
            else
              Layer.Step
                {
                  events = [ Event.make ~args ~ret:Value.unit c crash_tag ];
                  ret = Value.unit;
                  crit = Layer.Keep;
                })
        | _ -> Layer.Stuck "d_crash: expected keep and tear masks")

let prims ?(crashes = false) () =
  [ read_prim; write_prim; sync_prim ] @ if crashes then [ crash_prim ] else []

let layer ?crashes () =
  Layer.make
    (match crashes with
    | Some true -> "Ldisk+crash"
    | _ -> "Ldisk")
    (prims ?crashes ())
