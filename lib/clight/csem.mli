(** Semantics of ClightX as interaction trees.

    A ClightX function denotes a program over its underlay interface
    ({!Ccal_core.Prog.t}): expression evaluation and assignments are
    silent; [Scall] invokes a layer primitive (a query point when the
    primitive is shared).  This is the executable analogue of the paper's
    ClightX abstract machines, over which C layer code is verified before
    being compiled by CompCertX (Sec. 5.5). *)

exception Semantics_error of string
(** Raised on statically malformed functions (e.g. a parameter/local name
    clash); dynamic errors fault like the assembly semantics. *)

val fault_prim : string
(** Name prefix of the pseudo-primitive called on dynamic faults (unbound
    variable, division by zero, non-integer branch condition, statement
    budget exhausted); no layer defines it, so the machine reports the
    diagnostic and gets stuck. *)

val prog_of_fn :
  ?fuel:int -> Csyntax.fn -> Ccal_core.Value.t list -> Ccal_core.Prog.t
(** [prog_of_fn fn args] denotes calling [fn] on [args].  Arguments bind to
    parameters positionally (missing arguments fault); [fuel] (default
    1_000_000) bounds executed statements.  [prog_of_fn fn] compiles the
    body once, resolving every variable to a slot; each application runs
    the compiled code.  The result is pure: its continuations may be
    re-entered any number of times (DESIGN.md S35).  A parameter/local
    clash raises {!Semantics_error} when the function is applied. *)

val module_of_fns : Csyntax.fn list -> Ccal_core.Prog.Module.t
(** The module [M] collecting the given C functions — e.g. the paper's
    [M1 := acq ⊕ rel] (Sec. 2). *)
