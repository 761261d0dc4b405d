(* Tests for schedules as data (DESIGN.md S36): inside [Game.run] every
   built-in [Sched.t] variant picks exactly as the list-based definition
   kept in [Sched_oracle] does; one schedule value drives any number of
   games; scheduler names, which are cache keys, are pinned; and a game
   refuses duplicate thread ids. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util

(* A lock client: [Rounds k] takes and releases the lock [k] times
   ([Rounds 0] finishes at once); [Hold] takes it and finishes holding
   it, so the other clients block for good. *)
type client =
  | Rounds of int
  | Hold

let client kind i =
  let acq = Prog.call "acq" [ vi 0 ] in
  let rec rounds k =
    if k = 0 then Prog.ret (vi i)
    else Prog.bind acq (fun _ -> Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (rounds (k - 1)))
  in
  match kind with Rounds k -> rounds k | Hold -> Prog.bind acq (fun _ -> Prog.ret (vi i))

let llock = lazy (Lock_intf.layer "Llock")
let ticket = lazy (Ticket_lock.l0 (), Ticket_lock.c_module ())

type case = {
  on_ticket : bool;  (** the ticket lock's C module over L0, else atomic Llock *)
  clients : (Event.tid * client) list;  (** distinct tids, in thread order *)
  max_steps : int;
  log_switches : bool;
  scheds : Sched.t list;  (** one of each built-in variant *)
}

let layer_and_threads c =
  if c.on_ticket then
    let layer, m = Lazy.force ticket in
    layer, List.map (fun (i, k) -> i, Prog.Module.link m (client k i)) c.clients
  else Lazy.force llock, List.map (fun (i, k) -> i, client k i) c.clients

let play c sched =
  let layer, threads = layer_and_threads c in
  Game.run (Game.config ~max_steps:c.max_steps ~log_switches:c.log_switches layer threads sched)

let same (a : Game.outcome) (b : Game.outcome) =
  Log.equal a.Game.log b.Game.log
  && a.Game.results = b.Game.results
  && a.Game.status = b.Game.status
  && a.Game.steps = b.Game.steps
  && a.Game.silent_steps = b.Game.silent_steps

(* 1-5 clients with distinct tids out of id order, some finishing at
   once and some holding the lock; traces naming tids that are not
   runnable or not in the game at all; any seed. *)
let gen_case =
  let open QCheck.Gen in
  let* on_ticket = bool in
  let* n = int_range 1 5 in
  let* tids = shuffle_l (List.init 8 Fun.id) in
  let* kinds =
    list_repeat n (frequency [ 4, map (fun k -> Rounds k) (int_range 0 2); 1, return Hold ])
  in
  let clients = List.combine (List.filteri (fun k _ -> k < n) tids) kinds in
  let* max_steps = frequency [ 1, int_range 1 20; 3, return 300 ] in
  let* log_switches = bool in
  let* seed = int in
  let* choices = list_size (int_range 0 12) (int_range (-1) 9) in
  let* favored = int_range 0 8 in
  let* ratio = int_range 0 6 in
  let* bseed = int in
  return
    {
      on_ticket;
      clients;
      max_steps;
      log_switches;
      scheds =
        [ Sched.round_robin; Sched.random ~seed; Sched.of_trace choices;
          Sched.biased ~favored ~ratio ~seed:bseed ];
    }

let print_case c =
  Printf.sprintf "%s [%s] max_steps=%d switches=%b [%s]"
    (if c.on_ticket then "ticket" else "llock")
    (String.concat "; "
       (List.map
          (fun (i, k) ->
            match k with Rounds r -> Printf.sprintf "%d:rounds %d" i r | Hold -> Printf.sprintf "%d:hold" i)
          c.clients))
    c.max_steps c.log_switches
    (String.concat "; " (List.map Sched.name c.scheds))

let prop_variants_match_oracle =
  qtc ~count:1_000 "every built-in variant picks as the list-based oracle"
    (QCheck.make ~print:print_case gen_case) (fun c ->
      List.for_all (fun s -> same (play c s) (play c (Sched_oracle.custom s))) c.scheds)

(* The generator reaches every ending and blocked retries: otherwise the
   property above would not exercise them. *)
let test_generator_covers_endings () =
  let retries = ref 0 in
  (* the oracle's pick, counting the second and later asks of a move *)
  let counting s =
    let pick = Sched_oracle.pick s and last = ref (-1) in
    Sched.Custom
      { name = Sched.name s;
        pick =
          (fun ~step log ~runnable ->
            if step = !last then incr retries;
            last := step;
            pick ~step log ~runnable) }
  in
  let rand = Random.State.make [| 22 |] in
  let outcomes =
    List.concat_map
      (fun _ ->
        let c = gen_case rand in
        List.map (fun s -> play c (counting s)) c.scheds)
      (List.init 300 Fun.id)
  in
  let seen p = List.exists (fun (o : Game.outcome) -> p o.Game.status) outcomes in
  check_bool "all done" true (seen (( = ) Game.All_done));
  check_bool "deadlock" true (seen (function Game.Deadlock _ -> true | _ -> false));
  check_bool "out of fuel" true (seen (( = ) Game.Out_of_fuel));
  check_bool "blocked retries" true (!retries > 0)

(* Schedule values carry no cursor: the same exhaustive suite, played
   twice, gives the same outcomes — and still every distinct log. *)
let test_exhaustive_suite_replays () =
  let layer = Lazy.force llock in
  let threads = List.map (fun i -> i, client (Rounds 1) i) [ 1; 2; 3 ] in
  let scheds = Explore.exhaustive_scheds ~tids:[ 1; 2; 3 ] ~depth:4 in
  let first = Game.behaviors layer threads scheds in
  let second = Game.behaviors layer threads scheds in
  check_int "81 games" 81 (List.length second);
  check_bool "identical outcomes" true (List.for_all2 same first second);
  check_int "distinct logs" 6
    (List.length (Log.dedup (List.map (fun (o : Game.outcome) -> o.Game.log) second)))

(* [Fingerprint.scheds] folds scheduler names into cache keys.  The
   digest below was computed before schedulers became data; a change
   to any name orphans every cache entry keyed on it. *)
let test_scheds_fingerprint_golden () =
  let suite =
    Sched.default_suite ~seeds:3
    @ [ Sched.random ~seed:1_000_000; Sched.of_trace [ 1; 2; 3 ];
        Sched.of_trace ~name:"other-first" [ 2 ]; Sched.of_trace ~tag:"dpor" [ 1; 2; 1 ];
        Sched.of_trace ~tag:"dpor" []; Sched.of_trace ~tag:"exh" [ -1; 0; 12 ] ]
    @ Explore.exhaustive_scheds ~tids:[ 1; 2; -2 ] ~depth:2
  in
  Alcotest.(check (list string))
    "names"
    [ "round-robin"; "random(seed=1)"; "random(seed=2)"; "random(seed=3)";
      "random(seed=1000000)"; "trace"; "other-first"; "dpor:[1,2,1]"; "dpor:[]";
      "exh:[-1,0,12]"; "exh:[1,1]"; "exh:[1,2]"; "exh:[1,-2]"; "exh:[2,1]"; "exh:[2,2]";
      "exh:[2,-2]"; "exh:[-2,1]"; "exh:[-2,2]"; "exh:[-2,-2]" ]
    (List.map Sched.name suite);
  check_string "digest" "268bc2d57d0b85ee"
    (Fingerprint.to_hex (Fingerprint.finish (Fingerprint.scheds Fingerprint.empty suite)))

let test_biased_names_carry_the_seed () =
  let fp s = Fingerprint.finish (Fingerprint.scheds Fingerprint.empty [ s ]) in
  let biased seed = Sched.biased ~favored:2 ~ratio:10 ~seed in
  check_string "name" "biased(2 x10 seed=1)" (Sched.name (biased 1));
  check_bool "two seeds, two keys" false (Fingerprint.equal (fp (biased 1)) (fp (biased 2)))

let test_duplicate_real_tids_rejected () =
  Alcotest.check_raises "duplicate tid"
    (Invalid_argument "Game.pseudo_threads: duplicate real thread id 1") (fun () ->
      ignore
        (Game.run
           (Game.config (Lazy.force llock)
              [ 1, Prog.ret_unit; 1, client (Rounds 1) 1 ]
              Sched.round_robin)))

let suite =
  [
    prop_variants_match_oracle;
    tc "generator reaches every ending" test_generator_covers_endings;
    tc "exhaustive suite replays identically" test_exhaustive_suite_replays;
    tc "scheduler names and fingerprint pinned" test_scheds_fingerprint_golden;
    tc "biased names carry the seed" test_biased_names_carry_the_seed;
    tc "duplicate real tids rejected" test_duplicate_real_tids_rejected;
  ]
