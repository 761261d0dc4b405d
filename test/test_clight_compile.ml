(* Tests for ClightX semantics, the CompCertX compiler, translation
   validation and the algebraic memory model (S12–S14). *)
open Ccal_core
module C = Ccal_clight.Csyntax
module Csem = Ccal_clight.Csem
module Cx = Ccal_compcertx.Compile
module V = Ccal_compcertx.Validate
module M = Ccal_compcertx.Mem_algebra
open Util

let hw () = Ccal_machine.Mx86.layer ()

(* ---- ClightX semantics ---- *)

let fn name params locals body = { C.name; params; locals; body }

(* (source, assembly) pairs as Validate takes them. *)
let compiled fns = List.map (fun f -> f, Cx.compile_fn f) fns

let test_c_return_expr () =
  let f = fn "f" [ "x" ] [] (C.return C.(v "x" + i 1)) in
  check_int "x+1" 8 (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [ vi 7 ])))

let test_c_locals_default_zero () =
  let f = fn "f" [] [ "y" ] (C.return (C.v "y")) in
  check_int "zero" 0 (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [])))

let test_c_if () =
  let f =
    fn "f" [ "x" ] []
      (C.if_ C.(v "x" > i 0) (C.return (C.i 1)) (C.return (C.i (-1))))
  in
  check_int "pos" 1 (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [ vi 3 ])));
  check_int "neg" (-1) (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [ vi 0 ])))

let test_c_while () =
  (* factorial *)
  let f =
    fn "fact" [ "n" ] [ "acc" ]
      (C.seq
         [
           C.set "acc" (C.i 1);
           C.while_ C.(v "n" > i 0)
             (C.seq [ C.set "acc" C.(v "acc" * v "n"); C.set "n" C.(v "n" - i 1) ]);
           C.return (C.v "acc");
         ])
  in
  check_int "5!" 120 (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [ vi 5 ])))

let test_c_prim_call () =
  let f =
    fn "f" [] [ "a" ]
      (C.seq
         [
           C.call_ "astore" [ C.i 3; C.i 9 ];
           C.calla "a" "aload" [ C.i 3 ];
           C.return (C.v "a");
         ])
  in
  check_int "through cell" 9 (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [])))

let test_c_unbound_var_faults () =
  let f = fn "f" [] [] (C.return (C.v "nope")) in
  ignore (expect_stuck (hw ()) (Csem.prog_of_fn f []))

let test_c_div_zero_faults () =
  let f = fn "f" [] [] (C.return (C.Binop (C.Div, C.i 1, C.i 0))) in
  ignore (expect_stuck (hw ()) (Csem.prog_of_fn f []))

let test_c_fuel () =
  let f = fn "f" [] [] (C.while_ (C.i 1) C.Sskip) in
  ignore (expect_stuck (hw ()) (Csem.prog_of_fn ~fuel:500 f []))

let test_c_wrong_arity_faults () =
  let f = fn "f" [ "x" ] [] (C.return (C.v "x")) in
  ignore (expect_stuck (hw ()) (Csem.prog_of_fn f []))

let test_c_param_local_clash_rejected () =
  let f = fn "f" [ "x" ] [ "x" ] (C.return (C.v "x")) in
  check_bool "raises" true
    (try ignore (Csem.prog_of_fn f [ vi 1 ]); false
     with Csem.Semantics_error _ -> true)

let test_c_void_returns_unit () =
  let f = fn "f" [] [] C.return_unit in
  check_bool "unit" true
    (Value.equal Value.unit (expect_done (hw ()) (Csem.prog_of_fn f [])))

let test_c_unops () =
  let f = fn "f" [ "x" ] [] (C.return (C.Unop (C.Neg, C.v "x"))) in
  check_int "neg" (-5) (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn f [ vi 5 ])));
  let g = fn "g" [ "x" ] [] (C.return (C.Unop (C.Not, C.v "x"))) in
  check_int "not 0" 1 (Value.to_int (expect_done (hw ()) (Csem.prog_of_fn g [ vi 0 ])))

(* ---- compiled ClightX against the AST interpreter ----

   [Csem.prog_of_fn] compiles a function to closures over resolved
   variable slots; [Clight_oracle.prog_of_fn] is the interpreter it
   replaced.  Small random functions with undeclared assignments, unbound
   reads, division and mod by zero, [Not]/[Neg], nested loops, non-integer
   arguments and wrong arities run at a small fuel, and the two programs
   must have the same [Fingerprint.prog]: the same calls, faults and
   results down every probed branch, non-integer probe values included. *)

let gen_expr =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun k -> C.Const k) (int_range (-1) 2);
                 map (fun x -> C.Var x) (oneofl [ "a"; "b"; "x"; "y"; "u"; "w" ]);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 2, leaf;
                 ( 3,
                   map3
                     (fun op a b -> C.Binop (op, a, b))
                     (oneofl
                        C.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
                     (self (n / 2))
                     (self (n / 2)) );
                 1, map2 (fun op e -> C.Unop (op, e)) (oneofl C.[ Neg; Not ]) (self (n - 1));
               ]))

let gen_stmt =
  QCheck.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           let target = oneofl [ "a"; "x"; "y"; "u"; "w" ] in
           let leaf =
             frequency
               [
                 1, return C.Sskip;
                 4, map2 (fun x e -> C.Sassign (x, e)) target gen_expr;
                 ( 3,
                   map3
                     (fun dest prim args -> C.Scall (dest, prim, args))
                     (opt target) (oneofl [ "p"; "q" ])
                     (list_size (int_bound 2) gen_expr) );
                 1, map (fun e -> C.Sreturn e) (opt gen_expr);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 2, leaf;
                 3, map2 (fun a b -> C.Sseq (a, b)) (self (n / 2)) (self (n / 2));
                 ( 2,
                   map3
                     (fun c a b -> C.Sif (c, a, b))
                     gen_expr (self (n / 2)) (self (n / 2)) );
                 2, map2 (fun c s -> C.Swhile (c, s)) gen_expr (self (n - 1));
               ]))

(* Parameters from a, b, x and locals from x, y: a rare clash on x must
   raise when the function is applied, in both semantics.  Arguments are
   mostly integers, sometimes a list or a boolean, and sometimes one too
   many or too few. *)
let gen_case =
  QCheck.Gen.(
    let* params = oneofl [ []; [ "a" ]; [ "a"; "b" ]; [ "b"; "a" ]; [ "x" ] ] in
    let* locals = oneofl [ []; [ "y" ]; [ "x"; "y" ]; [ "y"; "y" ] ] in
    let* body = gen_stmt in
    let* arity = frequency [ 8, return (List.length params); 1, int_bound 3 ] in
    let* args =
      list_repeat arity
        (frequency
           [
             6, map vi (int_range (-1) 2);
             1, return (Value.list [ vi 1 ]);
             1, return (Value.bool true);
           ])
    in
    let* fuel = int_range 1 40 in
    return ({ C.name = "f"; params; locals; body }, args, fuel))

let print_case ((f : C.fn), args, fuel) =
  Format.asprintf "%a@ locals [%s] args [%s] fuel %d" C.pp_fn f
    (String.concat "; " f.C.locals)
    (String.concat "; " (List.map Value.to_string args))
    fuel

(* Fingerprinted twice: probing re-enters every continuation, so a
   program that mutated a captured environment would differ the second
   time. *)
let fingerprint_of prog_of_fn (f, args, fuel) =
  match prog_of_fn ~fuel f args with
  | p ->
    let fp () = Fingerprint.finish (Fingerprint.prog Fingerprint.empty p) in
    let first = fp () in
    Ok (first, fp ())
  | exception Csem.Semantics_error msg -> Error msg

(* Purity, pinned on one function: the probe [0] takes the else branch
   and writes [y]; the probe [1], re-entering the same continuation
   afterwards, must still read [y = 0]. *)
let test_compiled_continuations_pure () =
  let f =
    fn "f" [] [ "x"; "y" ]
      (C.seq
         [
           C.calla "x" "p" [];
           C.if_ (C.v "x") C.Sskip (C.set "y" (C.i 1));
           C.return (C.v "y");
         ])
  in
  match Csem.prog_of_fn f [] with
  | Prog.Call { k; _ } -> (
    ignore (k (vi 0));
    match k (vi 1) with
    | Prog.Ret v -> check_bool "y still 0 on the other branch" true (Value.equal v (vi 0))
    | Prog.Call _ -> Alcotest.fail "expected a return")
  | Prog.Ret _ -> Alcotest.fail "expected a call"

let prop_compiled_matches_interpreter =
  qtc ~count:2_000 "compiled ClightX = the AST interpreter (Fingerprint.prog)"
    (QCheck.make ~print:print_case gen_case)
    (fun case ->
      fingerprint_of (fun ~fuel -> Csem.prog_of_fn ~fuel) case
      = fingerprint_of (fun ~fuel -> Clight_oracle.prog_of_fn ~fuel) case)

(* ---- compiler ---- *)

let sample_fns =
  [
    fn "id" [ "x" ] [] (C.return (C.v "x"));
    fn "arith" [ "x"; "y" ] [ "t" ]
      (C.seq
         [
           C.set "t" C.(((v "x" + v "y") * i 3) - i 1);
           C.return C.(v "t" + (v "x" * v "y"));
         ]);
    fn "cond" [ "x" ] []
      (C.if_ C.(v "x" >= i 10) (C.return C.(v "x" - i 10)) (C.return (C.v "x")));
    fn "loop" [ "n" ] [ "s"; "k" ]
      (C.seq
         [
           C.set "s" (C.i 0);
           C.set "k" (C.i 1);
           C.while_ C.(v "k" <= v "n")
             (C.seq [ C.set "s" C.(v "s" + v "k"); C.set "k" C.(v "k" + i 1) ]);
           C.return (C.v "s");
         ]);
    fn "cells" [ "c" ] [ "a" ]
      (C.seq
         [
           C.call_ "astore" [ C.v "c"; C.i 5 ];
           C.calla "a" "faa" [ C.v "c"; C.i 2 ];
           C.calla "a" "aload" [ C.v "c" ];
           C.return (C.v "a");
         ]);
    fn "void_fn" [ "c" ] [] (C.seq [ C.call_ "astore" [ C.v "c"; C.i 1 ]; C.return_unit ]);
  ]

let test_compile_matches_source () =
  List.iter
    (fun f ->
      let asm = Cx.compile_fn f in
      List.iter
        (fun arg ->
          let c = expect_done (hw ()) (Csem.prog_of_fn f (List.map vi arg)) in
          let a =
            expect_done (hw ()) (Ccal_machine.Asm_sem.prog_of_fn asm (List.map vi arg))
          in
          Alcotest.check value_testable
            (Printf.sprintf "%s(%s)" f.C.name
               (String.concat "," (List.map string_of_int arg)))
            c a)
        (match List.length f.C.params with
        | 0 -> [ [] ]
        | 1 -> [ [ 0 ]; [ 5 ]; [ 13 ] ]
        | _ -> [ [ 0; 0 ]; [ 2; 3 ]; [ 7; 11 ] ]))
    sample_fns

let test_validate_module () =
  match
    V.validate_module ~layer:(hw ()) ~tids:[ 1; 2 ]
      ~arg_cases:
        [
          "id", [ [ vi 4 ] ];
          "arith", [ [ vi 1; vi 2 ]; [ vi 0; vi 0 ] ];
          "cond", [ [ vi 3 ]; [ vi 30 ] ];
          "loop", [ [ vi 6 ] ];
          "cells", [ [ vi 50 ]; [ vi 51 ] ];
          "void_fn", [ [ vi 52 ] ];
        ]
      ~envs:(fun _ -> [ Env_context.empty ])
      (compiled sample_fns)
  with
  | Ok r ->
    check_int "fns" 6 r.V.fns_validated;
    check_bool "cases" true (r.V.cases_run > 0)
  | Error f -> Alcotest.failf "validation failed: %a" Failure.pp f

let test_validate_with_env_events () =
  (* environment events interleave identically on both sides *)
  let f =
    fn "reader" [ "c" ] [ "a" ]
      (C.seq [ C.calla "a" "aload" [ C.v "c" ]; C.return (C.v "a") ])
  in
  let envs _ =
    [ Env_context.of_script "w" [ [ ev ~args:[ vi 60; vi 9 ] 2 "astore" ] ] ]
  in
  match
    V.validate_module ~layer:(hw ()) ~tids:[ 1 ]
      ~arg_cases:[ "reader", [ [ vi 60 ] ] ] ~envs (compiled [ f ])
  with
  | Ok r -> check_int "cases" 1 r.V.cases_run
  | Error fl -> Alcotest.failf "failed: %a" Failure.pp fl

let test_validate_catches_miscompilation () =
  (* a hand-broken "compiler": compare the source against the compilation
     of a different function *)
  let good = fn "g" [ "x" ] [] (C.return C.(v "x" + i 1)) in
  let evil_asm = Cx.compile_fn (fn "g" [ "x" ] [] (C.return C.(v "x" + i 2))) in
  let c = expect_done (hw ()) (Csem.prog_of_fn good [ vi 1 ]) in
  let a = expect_done (hw ()) (Ccal_machine.Asm_sem.prog_of_fn evil_asm [ vi 1 ]) in
  check_bool "differ" false (Value.equal c a)

let test_compile_slot_assignment () =
  (* parameters take slots 0 .. arity-1, locals the next ones; a variable
     declared nowhere has no slot *)
  let body x = (Cx.compile_fn (fn "f" [ "a"; "b" ] [ "c" ] (C.return (C.v x)))).Ccal_machine.Asm.body in
  List.iter
    (fun (x, slot) ->
      check_bool (x ^ " slot") true (List.mem Ccal_machine.Asm.(Load (EAX, Imm slot)) (body x)))
    [ "a", 0; "b", 1; "c", 2 ];
  check_bool "z has no slot" true
    (try ignore (body "z"); false with Cx.Unsupported _ -> true)

let test_compile_duplicate_var_rejected () =
  let f = fn "f" [ "a"; "a" ] [] (C.return (C.i 0)) in
  check_bool "raises" true
    (try ignore (Cx.compile_fn f); false with Cx.Unsupported _ -> true)

(* random expression compilation agrees with source *)
let expr_gen =
  let open QCheck.Gen in
  let rec gen n =
    if n = 0 then
      oneof [ map (fun k -> C.Const k) (int_range (-20) 20);
              oneofl [ C.Var "x"; C.Var "y" ] ]
    else
      frequency
        [
          1, map (fun k -> C.Const k) (int_range (-20) 20);
          1, oneofl [ C.Var "x"; C.Var "y" ];
          3,
          ( let* op =
              oneofl [ C.Add; C.Sub; C.Mul; C.Eq; C.Ne; C.Lt; C.Le; C.Gt; C.Ge;
                       C.And; C.Or ]
            in
            let* a = gen (n / 2) in
            let* b = gen (n / 2) in
            return (C.Binop (op, a, b)) );
          1, map (fun e -> C.Unop (C.Neg, e)) (gen (n - 1));
        ]
  in
  gen 5

let prop_compile_expr_correct =
  qtc ~count:300 "compiled expressions agree with source"
    (QCheck.make expr_gen) (fun e ->
      let f = fn "f" [ "x"; "y" ] [] (C.return e) in
      let asm = Cx.compile_fn f in
      List.for_all
        (fun (x, y) ->
          let args = [ vi x; vi y ] in
          let c = run_solo (hw ()) (Csem.prog_of_fn f args) in
          let a = run_solo (hw ()) (Ccal_machine.Asm_sem.prog_of_fn asm args) in
          match c.Machine.outcome, a.Machine.outcome with
          | Machine.Done vc, Machine.Done va -> Value.equal vc va
          | Machine.Stuck_run _, Machine.Stuck_run _ -> true
          | _ -> false)
        [ 0, 0; 1, 2; -3, 7 ])

(* ---- algebraic memory model (Fig. 12) ---- *)

let mem_with_block () =
  let m, b = M.alloc M.empty 0 4 in
  let m = Option.get (M.st m { M.block = b; off = 1 } (vi 5)) in
  m, b

let test_mem_nb_alloc () =
  let m, b = M.alloc M.empty 0 4 in
  check_int "one block" 1 (M.nb m);
  check_int "index" 0 b;
  check_int "liftnb" 4 (M.nb (M.liftnb m 3))

let test_mem_ld_st () =
  let m, b = mem_with_block () in
  (match M.ld m { M.block = b; off = 1 } with
  | Some v -> check_int "stored" 5 (Value.to_int v)
  | None -> Alcotest.fail "load failed");
  check_bool "unwritten reads 0" true
    (match M.ld m { M.block = b; off = 0 } with
    | Some v -> Value.to_int v = 0
    | None -> false);
  check_bool "out of bounds" true (M.ld m { M.block = b; off = 9 } = None);
  check_bool "empty block no perm" true
    (M.ld (M.liftnb m 1) { M.block = 1; off = 0 } = None)

let test_mem_compose_disjoint () =
  let m1, _ = mem_with_block () in
  let m2 = M.liftnb M.empty 1 in
  (* m1 has a real block at 0; m2 only an empty placeholder there *)
  match M.compose m1 m2 with
  | Some m ->
    check_bool "related" true (M.related m1 m2 m);
    check_bool "comm (axiom Comm)" true (M.related m2 m1 m)
  | None -> Alcotest.fail "compose failed"

let test_mem_compose_conflict () =
  let m1, _ = mem_with_block () in
  let m2, _ = mem_with_block () in
  check_bool "both real at 0" true (M.compose m1 m2 = None)

let test_mem_compose_many () =
  let m1, _ = M.alloc M.empty 0 2 in
  let m2 = M.liftnb M.empty 1 in
  let m2, _ = M.alloc m2 0 2 in
  (* m1 = [real]; m2 = [empty; real]; n threads compose by iterating the
     binary composition from the empty memory (end of Sec. 5.5) *)
  match Option.bind (M.compose M.empty m1) (fun m -> M.compose m m2) with
  | Some m -> check_int "nb (axiom Nb)" 2 (M.nb m)
  | None -> Alcotest.fail "n-way compose failed"

(* Fig. 12 axioms as properties over randomly built compatible pairs. *)
let compatible_pair_gen =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* owners = list_repeat n bool in
  let build mine =
    List.fold_left
      (fun m owned ->
        if owned = mine then fst (M.alloc m 0 4) else M.liftnb m 1)
      M.empty owners
  in
  return (build true, build false, owners)

let compatible_pair = QCheck.make compatible_pair_gen

let prop_axiom_nb =
  qtc "axiom Nb: nb(m) = max(nb m1, nb m2)" compatible_pair (fun (m1, m2, _) ->
      match M.compose m1 m2 with
      | Some m -> M.nb m = max (M.nb m1) (M.nb m2)
      | None -> false)

let prop_axiom_comm =
  qtc "axiom Comm" compatible_pair (fun (m1, m2, _) ->
      match M.compose m1 m2 with
      | Some m -> M.related m2 m1 m
      | None -> false)

let prop_axiom_ld =
  qtc "axiom Ld: loads preserved" compatible_pair (fun (m1, m2, owners) ->
      match M.compose m1 m2 with
      | None -> false
      | Some m ->
        List.for_all
          (fun b ->
            let l = { M.block = b; off = 1 } in
            match M.ld m2 l with
            | Some v -> M.ld m l = Some v
            | None -> true)
          (List.mapi (fun i _ -> i) owners))

let prop_axiom_st =
  qtc "axiom St: stores preserved" compatible_pair (fun (m1, m2, owners) ->
      match M.compose m1 m2 with
      | None -> false
      | Some m ->
        List.for_all
          (fun b ->
            let l = { M.block = b; off = 2 } in
            match M.st m2 l (vi 77) with
            | Some m2' -> (
              match M.st m l (vi 77) with
              | Some m' -> M.related m1 m2' m'
              | None -> false)
            | None -> true)
          (List.mapi (fun i _ -> i) owners))

let prop_axiom_alloc =
  qtc "axiom Alloc" compatible_pair (fun (m1, m2, _) ->
      QCheck.assume (M.nb m1 <= M.nb m2);
      match M.compose m1 m2 with
      | None -> false
      | Some m ->
        let m2', _ = M.alloc m2 0 4 in
        let m', _ = M.alloc m 0 4 in
        M.related m1 m2' m')

let prop_axiom_lift_r =
  qtc "axiom Lift-R" compatible_pair (fun (m1, m2, _) ->
      QCheck.assume (M.nb m1 <= M.nb m2);
      match M.compose m1 m2 with
      | None -> false
      | Some m -> M.related m1 (M.liftnb m2 2) (M.liftnb m 2))

let prop_axiom_lift_l =
  qtc "axiom Lift-L" compatible_pair (fun (m1, m2, _) ->
      QCheck.assume (M.nb m1 <= M.nb m2);
      match M.compose m1 m2 with
      | None -> false
      | Some m ->
        let n = 3 in
        let shortfall = n - (M.nb m - M.nb m1) in
        let mlift = if shortfall > 0 then M.liftnb m shortfall else m in
        M.related (M.liftnb m1 n) m2 mlift)

let suite =
  [
    tc "c return expr" test_c_return_expr;
    tc "c locals default zero" test_c_locals_default_zero;
    tc "c if" test_c_if;
    tc "c while (factorial)" test_c_while;
    tc "c prim call" test_c_prim_call;
    tc "c unbound var faults" test_c_unbound_var_faults;
    tc "c div zero faults" test_c_div_zero_faults;
    tc "c fuel" test_c_fuel;
    tc "c wrong arity faults" test_c_wrong_arity_faults;
    tc "c param/local clash rejected" test_c_param_local_clash_rejected;
    tc "c void returns unit" test_c_void_returns_unit;
    tc "c unops" test_c_unops;
    prop_compiled_matches_interpreter;
    tc "compiled c continuations are pure" test_compiled_continuations_pure;
    tc "compile matches source" test_compile_matches_source;
    tc "validate module" test_validate_module;
    tc "validate with env events" test_validate_with_env_events;
    tc "validation would catch miscompilation" test_validate_catches_miscompilation;
    tc "compile slot assignment" test_compile_slot_assignment;
    tc "compile duplicate var rejected" test_compile_duplicate_var_rejected;
    prop_compile_expr_correct;
    tc "mem nb/alloc/liftnb" test_mem_nb_alloc;
    tc "mem ld/st" test_mem_ld_st;
    tc "mem compose disjoint" test_mem_compose_disjoint;
    tc "mem compose conflict" test_mem_compose_conflict;
    tc "mem compose many" test_mem_compose_many;
    prop_axiom_nb;
    prop_axiom_comm;
    prop_axiom_ld;
    prop_axiom_st;
    prop_axiom_alloc;
    prop_axiom_lift_r;
    prop_axiom_lift_l;
  ]
