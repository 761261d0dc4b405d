(** Translation validation for CompCertX.

    The paper's CompCertX carries a per-function Coq correctness theorem:
    compiled assembly refines its ClightX source over any layer interface.
    Our substitute runs source and compiled code side by side — same layer,
    same thread, same arguments, and the same environment events — and
    demands identical logs and return values (identity simulation).
    A validated compilation can then replace C bodies by assembly bodies in
    any certificate, which is how Fig. 5's "thread-safe compilation" step
    is discharged (see DESIGN.md, Substitutions). *)

type report = {
  fns_validated : int;
  cases_run : int;
}

val validate_module :
  layer:Ccal_core.Layer.t ->
  tids:Ccal_core.Event.tid list ->
  arg_cases:(string * Ccal_core.Value.t list list) list ->
  envs:(Ccal_core.Event.tid -> Ccal_core.Env_context.t list) ->
  (Ccal_clight.Csyntax.fn * Ccal_machine.Asm.fn) list ->
  (report, Ccal_core.Failure.t) result
(** Validate each (source, assembly) pair of a module — the assembly as
    its caller compiled it, e.g. with {!Compile.compile_fn} — over every
    thread, each of the function's argument vectors and each (paired)
    environment context (functions without an entry are validated on the
    empty argument vector).  A failure is a {!Ccal_core.Failure.t} whose
    run is the environment context's name, with the assembly log as
    [f_lower] and the C log as [f_upper], whose length is the event
    index; its reason names the function, the arguments and the
    thread. *)
