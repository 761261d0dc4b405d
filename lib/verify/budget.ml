(* Resource budgets for the checkers.

   A {!t} is a static spec (wall-clock ms, game steps — each optional);
   {!start} turns it into a runtime {!token} whose deadline epoch is the
   moment of the call.  The one game scan, [Parallel.games], polls the
   token between games and between moves in [Game.run] via a stop
   closure, and the checkers return
   [Exhausted {spent; partial}] instead of hanging or raising.

   Determinism protocol (DESIGN.md S27): only *step* budgets are
   deterministic.  Game moves are charged through {!charge}, and a
   game scan gives each schedule a private allowance captured at
   scan entry, then re-truncates the merged prefix sequentially, so the
   set of schedules actually counted is a pure function of the inputs —
   identical on every jobs count.  A deadline is a wall-clock event and
   inherently racy; it can only shrink the prefix further, never change
   a completed verdict.

   The shared step counter doubles as an early-stop heuristic for
   in-flight workers: once collectively over budget, remaining games
   stop promptly even though the deterministic accounting happens at
   merge time. *)

open Ccal_core

type t = {
  ms : float option;  (** wall-clock deadline, milliseconds from start *)
  steps : int option;  (** total game-move budget across the run *)
}

let unlimited = { ms = None; steps = None }
let is_unlimited b = b.ms = None && b.steps = None

let make ?ms ?steps () =
  {
    ms = Option.map (fun v -> if v < 0. then 0. else v) ms;
    steps = Option.map (fun v -> if v < 0 then 0 else v) steps;
  }

let pp fmt b =
  if is_unlimited b then Format.pp_print_string fmt "unlimited"
  else begin
    let fields =
      List.filter_map Fun.id
        [
          Option.map (Printf.sprintf "ms:%g") b.ms;
          Option.map (Printf.sprintf "steps:%d") b.steps;
        ]
    in
    Format.pp_print_string fmt (String.concat "," fields)
  end

(* What a run consumed, reported inside an [Exhausted] verdict. *)
type spent = {
  elapsed_ms : float;
  steps_used : int;
  reason : [ `Deadline | `Steps ];
}

let pp_reason fmt = function
  | `Deadline -> Format.pp_print_string fmt "deadline"
  | `Steps -> Format.pp_print_string fmt "steps"

let pp_spent fmt s =
  Format.fprintf fmt "%a after %.0fms / %d steps" pp_reason s.reason
    s.elapsed_ms s.steps_used

(* The result shape [Parallel.games] returns under a budget and the checkers
   share; Races defines a richer partial. *)
type 'a outcome = Complete of 'a | Exhausted of { spent : spent; partial : 'a }

let value = function Complete v -> v | Exhausted { partial; _ } -> partial

let map f = function
  | Complete v -> Complete (f v)
  | Exhausted { spent; partial } -> Exhausted { spent; partial = f partial }

(* ------------------------------------------------------------------ *)
(* runtime tokens                                                      *)
(* ------------------------------------------------------------------ *)

type token = {
  budget : t;
  started_ns : int64;
  deadline_ns : int64 option;
  used : int Atomic.t;
      (** step counter: charged racily by in-flight workers as an
          early-stop heuristic, then overwritten by [settle] with the
          deterministic total of the merged prefix *)
  tripped : [ `Deadline | `Steps ] option Atomic.t;
}

let budget_exhaustions = Probe.counter "budget.exhaustions"

let start budget =
  let started_ns = Verify_clock.now_ns () in
  {
    budget;
    started_ns;
    deadline_ns =
      Option.map
        (fun ms -> Int64.add started_ns (Int64.of_float (ms *. 1e6)))
        budget.ms;
    used = Atomic.make 0;
    tripped = Atomic.make None;
  }

(* The default token on [Ctx.default]: no limits, polling it is cheap. *)
let no_token = start unlimited

let charge tk n = if tk.budget.steps <> None then ignore (Atomic.fetch_and_add tk.used n)

let steps_used tk = Atomic.get tk.used

let steps_remaining tk =
  match tk.budget.steps with
  | None -> max_int
  | Some s -> max 0 (s - Atomic.get tk.used)

let trip tk reason =
  (* first trip wins; later polls keep reporting the same reason *)
  ignore (Atomic.compare_and_set tk.tripped None (Some reason))

(* [poll_wall tk] checks only the deadline, never the shared step
   counter.  This is what game stop closures use: step exhaustion inside
   a game would depend on which other games happened to finish first,
   which differs across jobs counts; a deadline is inherently a
   wall-clock event and allowed to (DESIGN.md S27). *)
let poll_wall tk =
  match tk.deadline_ns with
  | Some d when Verify_clock.now_ns () >= d ->
    trip tk `Deadline;
    true
  | _ -> false

(* [poll tk] is the full cooperative check, step budget included; used at
   schedule granularity (between games) where the racy step counter is
   only an early-stop heuristic — the game scan's merge recomputes
   the deterministic truncation point. *)
let poll tk =
  (match tk.budget.steps with
  | Some s when Atomic.get tk.used >= s ->
    trip tk `Steps;
    true
  | _ -> false)
  || poll_wall tk

(* [settle tk n] overwrites the racy shared counter with the
   deterministic step total computed by the game scan's merge pass,
   so both [spent] and the next scan's entry allowance are
   jobs-identical for step budgets. *)
let settle tk n = Atomic.set tk.used n

(* The game scan truncated its prefix: if no wall-clock dimension
   already tripped (or trips right now), the truncation came from the
   deterministic step allowance. *)
let note_ran_out tk =
  if not (poll_wall tk) then
    match tk.budget.steps with Some _ -> trip tk `Steps | None -> ()

let spent tk =
  Probe.incr budget_exhaustions;
  {
    elapsed_ms = Verify_clock.elapsed_ms ~since:tk.started_ns;
    steps_used = Atomic.get tk.used;
    reason = Option.value (Atomic.get tk.tripped) ~default:`Deadline;
  }

(* Stop closure for [Game.config ?stop]: the private step [allowance]
   (captured deterministically at scan entry) is checked every move via
   a local counter; the shared token's wall-clock dimensions are polled
   only every [stride] moves so the per-move overhead stays negligible. *)
let game_stop tk ~allowance =
  if allowance = max_int && is_unlimited tk.budget then None
  else begin
    let moves = ref 0 in
    let stride = 256 in
    Some
      (fun () ->
        incr moves;
        !moves > allowance || (!moves mod stride = 0 && poll_wall tk))
  end
