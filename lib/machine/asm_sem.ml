open Ccal_core

exception Compile_error of string

let fault_prim = "asm_fault"

module Imap = Map.Make (Int)
module Smap = Map.Make (String)

type frame = {
  regs : Value.t array;  (* indexed by register *)
  mem : Value.t Imap.t;  (* frame slots *)
  stack : Value.t list;
}

let reg_index = function
  | Asm.EAX -> 0
  | Asm.EBX -> 1
  | Asm.ECX -> 2
  | Asm.EDX -> 3
  | Asm.ESI -> 4
  | Asm.EDI -> 5

let label_map body =
  let map, _ =
    List.fold_left
      (fun (map, pc) instr ->
        match instr with
        | Asm.Label l ->
          if Smap.mem l map then
            raise (Compile_error ("duplicate label " ^ l))
          else Smap.add l pc map, pc + 1
        | _ -> map, pc + 1)
      (Smap.empty, 0) body
  in
  map

let eval_binop op a b =
  let bool_int c = if c then 1 else 0 in
  match op with
  | Asm.Add -> Some (a + b)
  | Asm.Sub -> Some (a - b)
  | Asm.Mul -> Some (a * b)
  | Asm.Div -> if b = 0 then None else Some (a / b)
  | Asm.Mod -> if b = 0 then None else Some (a mod b)
  | Asm.Eq -> Some (bool_int (a = b))
  | Asm.Ne -> Some (bool_int (a <> b))
  | Asm.Lt -> Some (bool_int (a < b))
  | Asm.Le -> Some (bool_int (a <= b))
  | Asm.Gt -> Some (bool_int (a > b))
  | Asm.Ge -> Some (bool_int (a >= b))
  | Asm.And -> Some (bool_int (a <> 0 && b <> 0))
  | Asm.Or -> Some (bool_int (a <> 0 || b <> 0))

let prog_of_fn ?(fuel = 1_000_000) (fn : Asm.fn) args =
  let code = Array.of_list fn.body in
  let labels = label_map fn.body in
  (* A fault is a call to an undefined primitive carrying the message in
     its name, so the layer machine reports it verbatim. *)
  let fault msg = Prog.call (fault_prim ^ ": " ^ fn.name ^ ": " ^ msg) [] in
  let init_frame =
    let mem =
      List.fold_left
        (fun (m, i) v -> Imap.add i v m, i + 1)
        (Imap.empty, 0) args
      |> fst
    in
    { regs = Array.make 6 Value.unit; mem; stack = [] }
  in
  let read_operand fr = function
    | Asm.Imm n -> Value.int n
    | Asm.Reg r -> fr.regs.(reg_index r)
  in
  let operand_int fr o =
    match read_operand fr o with
    | Value.Vint n -> Some n
    | Value.Vbool b -> Some (if b then 1 else 0)
    | _ -> None
  in
  let set_reg fr r v =
    let regs = Array.copy fr.regs in
    regs.(reg_index r) <- v;
    { fr with regs }
  in
  let rec exec pc fr fuel =
    if fuel <= 0 then fault Prog.steps_bound_exceeded
    else if pc < 0 || pc >= Array.length code then
      fault "fell off the end of the code"
    else
      let continue fr' = exec (pc + 1) fr' (fuel - 1) in
      match code.(pc) with
      | Asm.Label _ -> continue fr
      | Asm.Mov (r, o) -> continue (set_reg fr r (read_operand fr o))
      | Asm.Op (op, r, o) -> (
        match fr.regs.(reg_index r), operand_int fr o with
        | Value.Vint a, Some b -> (
          match eval_binop op a b with
          | Some result -> continue (set_reg fr r (Value.int result))
          | None -> fault "division by zero")
        | _ -> fault "ill-typed arithmetic operand")
      | Asm.Load (r, o) -> (
        match operand_int fr o with
        | Some addr ->
          let v = Option.value ~default:Value.unit (Imap.find_opt addr fr.mem) in
          continue (set_reg fr r v)
        | None -> fault "ill-typed load address")
      | Asm.Store (a, vo) -> (
        match operand_int fr a with
        | Some addr ->
          continue { fr with mem = Imap.add addr (read_operand fr vo) fr.mem }
        | None -> fault "ill-typed store address")
      | Asm.Push o -> continue { fr with stack = read_operand fr o :: fr.stack }
      | Asm.Pop r -> (
        match fr.stack with
        | v :: stack -> continue (set_reg { fr with stack } r v)
        | [] -> fault "pop from empty stack")
      | Asm.Jmp l -> jump fr l fuel
      | Asm.Jnz (o, l) -> (
        match operand_int fr o with
        | Some 0 -> continue fr
        | Some _ -> jump fr l fuel
        | None -> fault "ill-typed branch operand")
      | Asm.Jz (o, l) -> (
        match operand_int fr o with
        | Some 0 -> jump fr l fuel
        | Some _ -> continue fr
        | None -> fault "ill-typed branch operand")
      | Asm.CallPrim (p, nargs) ->
        if List.length fr.stack < nargs then fault "not enough call arguments"
        else
          let rec split n acc stack =
            if n = 0 then acc, stack
            else
              match stack with
              | v :: rest -> split (n - 1) (v :: acc) rest
              | [] -> assert false
          in
          (* First pushed = first argument: popping reverses, so [split]
             rebuilds the original order. *)
          let call_args, stack = split nargs [] fr.stack in
          Prog.Call
            {
              prim = p;
              args = call_args;
              k =
                (fun v ->
                  exec (pc + 1) (set_reg { fr with stack } Asm.EAX v) (fuel - 1));
            }
      | Asm.Ret o -> Prog.Ret (read_operand fr o)
      | Asm.RetVoid -> Prog.ret_unit
      | Asm.Halt msg -> fault msg
  and jump fr l fuel =
    match Smap.find_opt l labels with
    | Some pc -> exec pc fr (fuel - 1)
    | None -> fault ("unknown label " ^ l)
  in
  exec 0 init_frame fuel

let module_of_fns fns =
  Prog.Module.of_bodies
    (List.map (fun (fn : Asm.fn) -> fn.name, prog_of_fn fn) fns)
