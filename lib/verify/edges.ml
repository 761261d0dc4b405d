(* The one edge loop (DESIGN.md S26/S27).

   A certified system is a chain of layer edges, each discharged on its
   own and then linked (Fig. 1, Fig. 5).  The Fig. 1 stack, the kv stack
   and the crash certifier all check their edges through [run]:

   - the budget is polled before each edge, so the frontier of an
     [Exhausted] run is the first edge that did not complete;
   - an edge whose inner checker ran out raises [Out_of_budget] with the
     checker's own [spent], which the loop reuses — one exhausted run
     counts one [budget.exhaustions];
   - with a cache attached, an edge with a key is looked up under
     [kind] before it runs (a hit's [millis] is the lookup time) and
     stored after it succeeds; failures and exhausted edges are never
     stored, so they always reproduce live;
   - a partial report lists completed edges only. *)

open Ccal_core

type ('e, 'err) edge = {
  name : string;
  key : (unit -> Fingerprint.t) option;
  run : unit -> ('e, 'err) result;
}

type 'e progress = { completed : 'e list; next_edge : string option }

exception Out_of_budget of Budget.spent

let value = function
  | Budget.Complete v -> v
  | Budget.Exhausted { spent; _ } -> raise (Out_of_budget spent)

let run ~ctx ~kind ~with_millis edges =
  (* The key is forced, and the lookup timed, outside the edge body, so
     caching never moves a cold run's timings or counters. *)
  let check e =
    match ctx.Ctx.cache, e.key with
    | Some c, Some key -> (
      let key = key () in
      let found, lookup_ms =
        Verify_clock.timed (fun () -> Cache.find c ~kind key)
      in
      match found with
      | Some v -> Ok (with_millis v lookup_ms)
      | None ->
        let r = e.run () in
        Result.iter (Cache.store c ~kind key) r;
        r)
    | _ -> e.run ()
  in
  let rec go acc = function
    | [] -> Budget.Complete (Ok { completed = List.rev acc; next_edge = None })
    | e :: rest -> (
      let stop spent =
        Budget.Exhausted
          { spent; partial = Ok { completed = List.rev acc; next_edge = Some e.name } }
      in
      if Budget.poll ctx.Ctx.token then stop (Budget.spent ctx.Ctx.token)
      else
        match check e with
        | exception Out_of_budget spent -> stop spent
        | Ok v -> go (v :: acc) rest
        | Error err -> Budget.Complete (Error err))
  in
  go [] edges
