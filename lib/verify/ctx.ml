(* The unified checker context (DESIGN.md S27): the knobs live in one
   record threaded uniformly through every checker entry point, instead
   of an optional argument per knob on every signature. *)

module Engine = Ccal_core.Strategy.Engine

type t = {
  jobs : int;  (** domains for the pool; 1 = the sequential oracle *)
  cache : Cache.t option;
  strategy : Engine.t;  (** suite generator when no [?scheds] is given *)
  memory : Ccal_core.Memory.t;
      (** memory mode the games run under; enters every edge key, so an
          SC verdict is never served for a TSO query *)
  budget : Budget.t;
  token : Budget.token;
      (** the running token for [budget]; nested checkers (Stack → Races
          → Explore) share it by passing the same context down, so one
          budget covers the whole verification *)
  faults : Fault.plan;
}

let default =
  {
    jobs = 1;
    cache = None;
    strategy = Engine.default;
    memory = Ccal_core.Memory.default;
    budget = Budget.unlimited;
    token = Budget.no_token;
    faults = Fault.none;
  }

(* Builders.  [with_budget] (re)starts the token, so the deadline epoch
   is the moment the budget is attached — attach it last, right before
   running the checker. *)
let with_jobs jobs t = { t with jobs = max 1 jobs }
let with_cache cache t = { t with cache = Some cache }
let with_strategy strategy t = { t with strategy = Engine.checked strategy }
let with_memory memory t = { t with memory }
let with_budget budget t = { t with budget; token = Budget.start budget }
let with_faults faults t = { t with faults }

let make ?(jobs = 1) ?cache ?(strategy = Engine.default)
    ?(memory = Ccal_core.Memory.default) () =
  { default with jobs = max 1 jobs; cache; strategy = Engine.checked strategy; memory }

(* [arm ctx f] runs [f] with the context's fault plan armed; every
   checker entry point wraps its body in this. *)
let arm t f = Fault.with_plan t.faults f

let pp fmt t =
  Format.fprintf fmt "jobs:%d cache:%s strategy:%s memory:%s budget:%a faults:%a"
    t.jobs
    (match t.cache with Some c -> Cache.dir c | None -> "off")
    (Engine.to_string t.strategy)
    (Ccal_core.Memory.to_string t.memory)
    Budget.pp t.budget Fault.pp t.faults
