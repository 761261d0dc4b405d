(** The CompCertX-style per-function compiler from ClightX to assembly.

    CompCertX compiles each certified C layer into a certified assembly
    layer (Sec. 5.5).  The paper's compiler carries a Coq correctness
    proof; ours is paired with per-run translation validation
    ({!Validate}) — compiled code is co-executed with its source over the
    same layer interface and environment context, and must produce the
    same log and result (see DESIGN.md, Substitutions).

    Calling convention: function arguments arrive in frame slots
    [0 .. arity-1]; primitive-call arguments are pushed left-to-right;
    results travel in [EAX]. *)

exception Unsupported of string

val compile_fn : Ccal_clight.Csyntax.fn -> Ccal_machine.Asm.fn
(** Compile one function.  Raises [Unsupported] on name clashes the
    compiler cannot allocate slots for. *)

val compile_module : Ccal_clight.Csyntax.fn list -> Ccal_core.Prog.Module.t
(** [CompCertX(M)]: compile every function and return the assembly module
    ready for linking — the paper's
    [CompCertX(M1 ⊕ M2)] in Fig. 5. *)
