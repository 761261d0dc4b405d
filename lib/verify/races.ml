open Ccal_core

(* What a budget-exhausted scan has established so far — enough to
   resume without redoing work and to reproduce the eventual verdict
   bit-identically: the count of schedules fully evaluated (the resume
   point), the clean-run count, and the non-race failure messages in
   schedule order.  Racy outcomes never appear here: a race cuts the
   scan and wins immediately. *)
type partial = { scanned : int; clean : int; others : string list }

type verdict =
  | Race_free of { runs : int }
  | Race of { sched_name : string; detail : string; log : Log.t }
  | Other_failure of string
  | Exhausted of { spent : Budget.spent; partial : partial }

(* The per-schedule body: pure in the sense that it touches only its own
   game state, so the pool can evaluate schedules on any domain. *)
type sched_outcome =
  | Clean
  | Racy of { sched_name : string; detail : string; log : Log.t }
  | Other of string
  | Interrupted  (** the game hit the budget's stop closure mid-run *)

let classify sched outcome =
  match outcome.Game.status with
  | Game.Stuck (_, Layer.Data_race, msg) ->
    Racy { sched_name = Sched.name sched; detail = msg; log = outcome.Game.log }
  | Game.Stuck (i, Layer.Invalid_transition, msg) ->
    Other (Printf.sprintf "thread %d stuck (not a race): %s" i msg)
  | Game.Deadlock ids ->
    Other
      (Printf.sprintf "deadlock among threads %s"
         (String.concat "," (List.map string_of_int ids)))
  | Game.Out_of_fuel -> Other "out of fuel"
  | Game.Cancelled -> Interrupted
  | Game.All_done ->
    if Ccal_machine.Pushpull.race_free outcome.Game.log then Clean
    else
      Racy
        {
          sched_name = Sched.name sched;
          detail = "completed log fails push/pull replay";
          log = outcome.Game.log;
        }

let eval ?max_steps ?memory layer threads ~stop sched =
  Probe.incr Probe.race_checks;
  let outcome =
    Game.run (Game.config ?max_steps ?stop ?memory layer threads sched)
  in
  (outcome.Game.steps, classify sched outcome)

(* Deterministic merge.  A race anywhere wins (the lowest-indexed one —
   [Parallel.budgeted_scan] guarantees the outcome list is the sequential
   prefix up to and including the first [Racy]); non-race failures such as
   one adversarial schedule running out of fuel no longer abort the scan,
   they are collected and reported only when no schedule exposes a race. *)
let merge outcomes =
  let rec go runs others = function
    | Racy { sched_name; detail; log } :: _ -> Race { sched_name; detail; log }
    | Other msg :: rest -> go runs (msg :: others) rest
    | Clean :: rest -> go (runs + 1) others rest
    | Interrupted :: _ ->
      (* never merged: an interrupted outcome is excluded from the
         budgeted prefix and reported as [Exhausted] instead *)
      assert false
    | [] -> (
      match List.rev others with
      | [] -> Race_free { runs }
      | first :: more ->
        Other_failure
          (if more = [] then first
           else
             Printf.sprintf "%s (+%d further non-race failures, %d clean runs)"
               first (List.length more) runs))
  in
  go 0 [] outcomes

(* Cache key: game identity plus the suite identity.  When the suite is
   implicit the key uses the strategy descriptor — deliberately, so a
   warm hit skips even the DPOR walk that would materialize it. *)
let check_key ?max_steps ~suite ~memory layer threads =
  let st = Fingerprint.string Fingerprint.empty "races" in
  let st = Fingerprint.layer st layer in
  let st = Fingerprint.memory st memory in
  let st =
    Fingerprint.list
      (fun st (i, p) -> Fingerprint.prog (Fingerprint.int st i) p)
      st threads
  in
  let st =
    match suite with
    | `Scheds ss -> Fingerprint.scheds (Fingerprint.int st 1) ss
    | `Strategy s ->
      Fingerprint.string (Fingerprint.int st 2) (Ctx.Engine.to_string s)
  in
  Fingerprint.finish (Fingerprint.option Fingerprint.int st max_steps)

(* A resumed scan replays what the partial already knows as synthetic
   outcomes before merging the new ones; the merge only counts cleans and
   collects others in order, so the final verdict — message included — is
   byte-identical to a from-scratch run. *)
let synthetic (p : partial) =
  List.init p.clean (fun _ -> Clean) @ List.map (fun m -> Other m) p.others

let check_ctx ~ctx ?max_steps ?scheds ?resume layer threads =
  Ctx.arm ctx @@ fun () ->
  let run resume =
    let all_scheds =
      match scheds with
      | Some s -> s
      | None -> Explore.scheds_of_strategy_ctx ~ctx layer threads
    in
    let skip, syn =
      match resume with
      | None -> (0, [])
      | Some p -> (p.scanned, synthetic p)
    in
    let todo = List.filteri (fun i _ -> i >= skip) all_scheds in
    let replay =
      Parallel.budgeted_scan
        ?jobs:(Ctx.jobs_opt ctx)
        ~token:ctx.Ctx.token ~cost:fst
        ~interrupted:(fun (_, o) ->
          match o with Interrupted -> true | _ -> false)
        ~cut:(fun (_, o) -> match o with Racy _ -> true | _ -> false)
        (fun ~stop sched ->
          eval ?max_steps ~memory:ctx.Ctx.memory layer threads ~stop sched)
        todo
    in
    let outcomes = List.map snd replay.Parallel.prefix in
    if replay.Parallel.ran_out then begin
      let clean0, others0 =
        match resume with None -> (0, []) | Some p -> (p.clean, p.others)
      in
      let partial =
        {
          scanned = skip + List.length outcomes;
          clean =
            clean0
            + List.length
                (List.filter (function Clean -> true | _ -> false) outcomes);
          others =
            others0
            @ List.filter_map
                (function Other m -> Some m | _ -> None)
                outcomes;
        }
      in
      Exhausted { spent = Budget.spent ctx.Ctx.token; partial }
    end
    else merge (syn @ outcomes)
  in
  match ctx.Ctx.cache with
  | None -> run resume
  | Some c -> (
    let suite =
      match scheds with
      | Some ss -> `Scheds ss
      | None -> `Strategy ctx.Ctx.strategy
    in
    let key = check_key ?max_steps ~suite ~memory:ctx.Ctx.memory layer threads in
    match Cache.find c ~kind:"races" key with
    | Some (runs : int) -> Race_free { runs }
    | None -> (
      (* No full verdict cached: a stashed partial from an earlier
         exhausted run is the implicit resume point. *)
      let resume =
        match resume with
        | Some _ -> resume
        | None -> (Cache.find c ~kind:"races.partial" key : partial option)
      in
      match run resume with
      | Race_free { runs } as v ->
        Cache.store c ~kind:"races" key runs;
        Cache.invalidate c ~kind:"races.partial" key;
        v
      (* Races and other failures are never stored: they must always
         reproduce live, counterexample log and all.  Their partial is
         stale once the full scan finished, so it goes too. *)
      | (Race _ | Other_failure _) as v ->
        Cache.invalidate c ~kind:"races.partial" key;
        v
      | Exhausted { partial; _ } as v ->
        Cache.store c ~kind:"races.partial" key partial;
        v))
