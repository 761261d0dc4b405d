(** Small-step semantics of the assembly language as interaction trees.

    An assembly function denotes a program over a layer interface
    ({!Ccal_core.Prog.t}): register moves, arithmetic, frame accesses and
    jumps are silent; [CallPrim] is a call to a layer primitive (a query
    point when the primitive is shared).  This is the analogue of the
    paper's per-function assembly machine: code verified over a layer
    interface and composed with the [Fun] rule (Sec. 3.3, [LκM_{L[c]}]). *)

exception Compile_error of string
(** Raised when a function is malformed (duplicate or missing labels). *)


val prog_of_fn :
  ?fuel:int -> Asm.fn -> Ccal_core.Value.t list -> Ccal_core.Prog.t
(** [prog_of_fn fn args] is the denotation of calling [fn] on [args];
    [fuel] (default 1_000_000) bounds the number of executed instructions
    so that a silent divergence becomes a fault rather than a hang. *)

val module_of_fns : Asm.fn list -> Ccal_core.Prog.Module.t
(** The module [M] collecting the given functions. *)
