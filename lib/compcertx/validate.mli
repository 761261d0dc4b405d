(** Translation validation for CompCertX.

    The paper's CompCertX carries a per-function Coq correctness theorem:
    compiled assembly refines its ClightX source over any layer interface.
    Our substitute runs source and compiled code side by side — same layer,
    same thread, same arguments, and the same environment events — and
    demands identical logs and return values (identity simulation).
    A validated compilation can then replace C bodies by assembly bodies in
    any certificate, which is how Fig. 5's "thread-safe compilation" step
    is discharged (see DESIGN.md, Substitutions). *)

type failure = {
  fn_name : string;
  args : Ccal_core.Value.t list;
  tid : Ccal_core.Event.tid;
  env_name : string;
  reason : string;
  c_log : Ccal_core.Log.t;
  asm_log : Ccal_core.Log.t;
}

val pp_failure : Format.formatter -> failure -> unit

type report = {
  fns_validated : int;
  cases_run : int;
}

val validate_module :
  layer:Ccal_core.Layer.t ->
  tids:Ccal_core.Event.tid list ->
  arg_cases:(string * Ccal_core.Value.t list list) list ->
  envs:(Ccal_core.Event.tid -> Ccal_core.Env_context.t list) ->
  Ccal_clight.Csyntax.fn list ->
  (report, failure) result
(** Validate each function of a module over every thread, each of its
    argument vectors and each (paired) environment context (functions
    without an entry are validated on the empty argument vector). *)
