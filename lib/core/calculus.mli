(** The concurrent layer calculus (Fig. 9).

    A certified concurrent abstraction layer is a triple
    [(L1[A], M, L2[A])] plus evidence that the implementation [M], running
    on behalf of the thread set [A] over the underlay interface [L1],
    faithfully implements the overlay interface [L2] (Sec. 1–2).

    In the paper the evidence is a Coq proof object; here it is a
    {!cert} value that can only be built by the rule constructors below,
    each of which {e runs} the corresponding side conditions (simulation
    checks over environment-context suites, syntactic layer conditions,
    tested compat implications).  Composition then mirrors Fig. 9 exactly:
    [Empty], [Fun], [Vcomp], [Hcomp], [Wk], and the parallel composition
    rule [Pcomp] with its [Compat] side condition.

    A rule fails with a {!Failure.t} whose reason opens with the rule,
    e.g. ["Fun rule: [acq(0)]@1 not simulated by its specification: ..."].
    A failed simulation ([Fun], [Wk]) keeps the environment context, the
    logs and the event index of {!Simulation.check_progs}'s failure; a
    failed [Compat] names the corpus log; a structural mismatch (layers
    that do not stack, focus sets that differ, a missing primitive) has
    no run, and says so ({!Failure.no_run}). *)

type judgment = {
  underlay : Layer.t;
  impl : Prog.Module.t;
  overlay : Layer.t;
  rel : Sim_rel.t;
  focus : Event.tid list;  (** the focused thread set [A] *)
}

type rule_name = Empty | Fun | Vcomp | Hcomp | Wk | Pcomp

val rule_to_string : rule_name -> string
(** The rule's name as the paper writes it, e.g. ["Vcomp"]. *)

type cert = {
  judgment : judgment;
  rule : rule_name;
  premises : cert list;
  evidence : string list;  (** human-readable record of discharged checks *)
}

val pp_cert : Format.formatter -> cert -> unit
(** Print the derivation tree. *)

(** {1 Test configuration} *)

type prim_case = {
  args : Value.t list;  (** arguments for the primitive under test *)
  pre : (string * Value.t list) list;
      (** overlay calls establishing the precondition — e.g. [rel] is only
          meaningful after an [acq]; both sides of the simulation run the
          same prefix (through the module on the implementation side) *)
}

type prim_tests = (string * prim_case list) list
(** For each overlay primitive, the cases on which its implementation is
    checked against its specification. *)

val case : ?pre:(string * Value.t list) list -> Value.t list -> prim_case

type env_suite = Event.tid -> Env_context.t list
(** Environment-context suites are generators: contexts are stateful
    (single-use), so a fresh suite is drawn for every individual check. *)

(** {1 Rules} *)

val empty_rule : Layer.t -> Event.tid list -> cert
(** [L[A] ⊢_id ∅ : L[A]]. *)

val fun_rule :
  underlay:Layer.t ->
  overlay:Layer.t ->
  impl:Prog.Module.t ->
  rel:Sim_rel.t ->
  focus:Event.tid list ->
  prim_tests:prim_tests ->
  envs:env_suite ->
  unit ->
  (cert, Failure.t) result
(** The [Fun] rule: for every focused thread [i], every overlay primitive
    [p] implemented by [impl] and every test argument vector, check
    [⟨impl(p)(args)⟩_{underlay[i]} ≤_rel ⟨p(args)⟩_{overlay[i]}]
    over a fresh environment suite. *)

val vcomp : cert -> cert -> (cert, Failure.t) result
(** [Vcomp]: from [L1 ⊢_R M : L2] and [L2 ⊢_S N : L3], derive
    [L1 ⊢_{R∘S} M ⊕ N : L3]. *)

val hcomp : cert -> cert -> (cert, Failure.t) result
(** [Hcomp]: from [L ⊢_R M : L1] and [L ⊢_R N : L2] (same relation, same
    rely/guarantee), derive [L ⊢_R M ⊕ N : L1 ⊕ L2]. *)

(** {1 Layer simulation and weakening} *)

type layer_sim = {
  lower : Layer.t;
  upper : Layer.t;
  sim_rel : Sim_rel.t;
  sim_focus : Event.tid list;
  sim_evidence : string list;
}
(** Evidence for [L ≤_R L'] — every primitive of the upper interface is
    simulated by its lower counterpart (the "log-lift" pattern, Sec. 2). *)

val check_layer_sim :
  lower:Layer.t ->
  upper:Layer.t ->
  rel:Sim_rel.t ->
  focus:Event.tid list ->
  prim_tests:prim_tests ->
  envs:env_suite ->
  unit ->
  (layer_sim, Failure.t) result

val layer_sim_id : Layer.t -> Event.tid list -> layer_sim
(** The reflexive simulation [L ≤_id L]. *)

val wk : layer_sim -> cert -> layer_sim -> (cert, Failure.t) result
(** [Wk]: from [L'1 ≤_R L1], [L1 ⊢_S M : L2] and [L2 ≤_T L'2], derive
    [L'1 ⊢_{R∘S∘T} M : L'2]. *)

(** {1 Parallel composition} *)

val compat :
  Layer.t ->
  a:Event.tid list ->
  b:Event.tid list ->
  logs:Log.t list ->
  (string, Failure.t) result
(** The [Compat] side condition, tested on a log corpus: for every thread
    of one side, its guarantee implies the rely the other side assumes.
    The Coq development proves the inclusion once and for all; we check
    it on every log of the corpus (see DESIGN.md on the tested-implication
    substitution).  A failure names the first corpus log that breaks the
    implication as its run, ["corpus log K"] (K counting from 0), with
    that log as [f_lower]. *)

val pcomp : cert -> cert -> compat_logs:Log.t list -> (cert, Failure.t) result
(** [Pcomp]: compose certificates for disjoint thread sets [A] and [B]
    over the same layers, module and relation into one for [A ∪ B],
    checking [Compat] on both the underlay and overlay interfaces. *)

(** {1 Inspection} *)

val focus : cert -> Event.tid list
val count_checks : cert -> int
(** Total number of evidence entries in the derivation (proof-effort
    proxy reported by the Table 2 analogue). *)
