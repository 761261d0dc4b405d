open Ccal_machine

exception Unsupported of string

module Smap = Map.Make (String)

let binop_of = function
  | Ccal_clight.Csyntax.Add -> Asm.Add
  | Ccal_clight.Csyntax.Sub -> Asm.Sub
  | Ccal_clight.Csyntax.Mul -> Asm.Mul
  | Ccal_clight.Csyntax.Div -> Asm.Div
  | Ccal_clight.Csyntax.Mod -> Asm.Mod
  | Ccal_clight.Csyntax.Eq -> Asm.Eq
  | Ccal_clight.Csyntax.Ne -> Asm.Ne
  | Ccal_clight.Csyntax.Lt -> Asm.Lt
  | Ccal_clight.Csyntax.Le -> Asm.Le
  | Ccal_clight.Csyntax.Gt -> Asm.Gt
  | Ccal_clight.Csyntax.Ge -> Asm.Ge
  | Ccal_clight.Csyntax.And -> Asm.And
  | Ccal_clight.Csyntax.Or -> Asm.Or

let slots_of_fn (fn : Ccal_clight.Csyntax.fn) =
  let add (map, next) x =
    if Smap.mem x map then
      raise (Unsupported (fn.name ^ ": variable declared twice: " ^ x))
    else Smap.add x next map, next + 1
  in
  let map, _ = List.fold_left add (Smap.empty, 0) (fn.params @ fn.locals) in
  map

(* Expressions compile to code leaving the result in EAX; intermediates go
   through the operand stack, so nested expressions need no register
   allocator. *)
let rec compile_expr slots fn_name e =
  match e with
  | Ccal_clight.Csyntax.Const n -> [ Asm.Mov (Asm.EAX, Asm.Imm n) ]
  | Ccal_clight.Csyntax.Var x -> (
    match Smap.find_opt x slots with
    | Some slot -> [ Asm.Load (Asm.EAX, Asm.Imm slot) ]
    | None -> raise (Unsupported (fn_name ^ ": unbound variable " ^ x)))
  | Ccal_clight.Csyntax.Binop (op, a, b) ->
    compile_expr slots fn_name a
    @ [ Asm.Push (Asm.Reg Asm.EAX) ]
    @ compile_expr slots fn_name b
    @ [
        Asm.Mov (Asm.ECX, Asm.Reg Asm.EAX);
        Asm.Pop Asm.EAX;
        Asm.Op (binop_of op, Asm.EAX, Asm.Reg Asm.ECX);
      ]
  | Ccal_clight.Csyntax.Unop (Ccal_clight.Csyntax.Neg, a) ->
    compile_expr slots fn_name a
    @ [
        Asm.Mov (Asm.ECX, Asm.Reg Asm.EAX);
        Asm.Mov (Asm.EAX, Asm.Imm 0);
        Asm.Op (Asm.Sub, Asm.EAX, Asm.Reg Asm.ECX);
      ]
  | Ccal_clight.Csyntax.Unop (Ccal_clight.Csyntax.Not, a) ->
    compile_expr slots fn_name a @ [ Asm.Op (Asm.Eq, Asm.EAX, Asm.Imm 0) ]

let compile_fn (fn : Ccal_clight.Csyntax.fn) =
  let slots = slots_of_fn fn in
  let fresh =
    let counter = ref 0 in
    fun base ->
      incr counter;
      Printf.sprintf ".%s_%s%d" fn.name base !counter
  in
  let rec compile_stmt s =
    match s with
    | Ccal_clight.Csyntax.Sskip -> []
    | Ccal_clight.Csyntax.Sassign (x, e) -> (
      match Smap.find_opt x slots with
      | Some slot ->
        compile_expr slots fn.name e
        @ [ Asm.Store (Asm.Imm slot, Asm.Reg Asm.EAX) ]
      | None -> raise (Unsupported (fn.name ^ ": unbound variable " ^ x)))
    | Ccal_clight.Csyntax.Scall (dest, prim, args) ->
      List.concat_map
        (fun a -> compile_expr slots fn.name a @ [ Asm.Push (Asm.Reg Asm.EAX) ])
        args
      @ [ Asm.CallPrim (prim, List.length args) ]
      @ (match dest with
        | None -> []
        | Some x -> (
          match Smap.find_opt x slots with
          | Some slot -> [ Asm.Store (Asm.Imm slot, Asm.Reg Asm.EAX) ]
          | None -> raise (Unsupported (fn.name ^ ": unbound variable " ^ x))))
    | Ccal_clight.Csyntax.Sseq (a, b) -> compile_stmt a @ compile_stmt b
    | Ccal_clight.Csyntax.Sif (cond, st, sf) ->
      let l_else = fresh "else" and l_end = fresh "endif" in
      compile_expr slots fn.name cond
      @ [ Asm.Jz (Asm.Reg Asm.EAX, l_else) ]
      @ compile_stmt st
      @ [ Asm.Jmp l_end; Asm.Label l_else ]
      @ compile_stmt sf
      @ [ Asm.Label l_end ]
    | Ccal_clight.Csyntax.Swhile (cond, body) ->
      let l_loop = fresh "loop" and l_end = fresh "endloop" in
      [ Asm.Label l_loop ]
      @ compile_expr slots fn.name cond
      @ [ Asm.Jz (Asm.Reg Asm.EAX, l_end) ]
      @ compile_stmt body
      @ [ Asm.Jmp l_loop; Asm.Label l_end ]
    | Ccal_clight.Csyntax.Sreturn None -> [ Asm.RetVoid ]
    | Ccal_clight.Csyntax.Sreturn (Some e) ->
      compile_expr slots fn.name e @ [ Asm.Ret (Asm.Reg Asm.EAX) ]
  in
  {
    Asm.name = fn.name;
    arity = List.length fn.params;
    body = compile_stmt fn.body @ [ Asm.RetVoid ];
  }

let compile_module fns = Asm_sem.module_of_fns (List.map compile_fn fns)
