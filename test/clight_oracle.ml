(* The AST-walking ClightX interpreter, kept as the oracle for the
   compiled semantics of [Csem.prog_of_fn]: it looks every variable up in
   a map at every statement and allocates a [result] per expression, the
   definition the compiled closures must agree with, fault for fault and
   fuel unit for fuel unit. *)
open Ccal_core
module Csyntax = Ccal_clight.Csyntax

exception Semantics_error = Ccal_clight.Csem.Semantics_error

let fault_prim = Ccal_clight.Csem.fault_prim

module Smap = Map.Make (String)

type env = Value.t Smap.t

let eval_binop op a b =
  let bool_int c = if c then 1 else 0 in
  match op with
  | Csyntax.Add -> Some (a + b)
  | Csyntax.Sub -> Some (a - b)
  | Csyntax.Mul -> Some (a * b)
  | Csyntax.Div -> if b = 0 then None else Some (a / b)
  | Csyntax.Mod -> if b = 0 then None else Some (a mod b)
  | Csyntax.Eq -> Some (bool_int (a = b))
  | Csyntax.Ne -> Some (bool_int (a <> b))
  | Csyntax.Lt -> Some (bool_int (a < b))
  | Csyntax.Le -> Some (bool_int (a <= b))
  | Csyntax.Gt -> Some (bool_int (a > b))
  | Csyntax.Ge -> Some (bool_int (a >= b))
  | Csyntax.And -> Some (bool_int (a <> 0 && b <> 0))
  | Csyntax.Or -> Some (bool_int (a <> 0 || b <> 0))

let rec eval_expr env = function
  | Csyntax.Const n -> Ok (Value.int n)
  | Csyntax.Var x -> (
    match Smap.find_opt x env with
    | Some v -> Ok v
    | None -> Error ("unbound variable " ^ x))
  | Csyntax.Binop (op, ea, eb) -> (
    match eval_expr env ea, eval_expr env eb with
    | Ok (Value.Vint a), Ok (Value.Vint b) -> (
      match eval_binop op a b with
      | Some n -> Ok (Value.int n)
      | None -> Error "division by zero")
    | Ok _, Ok _ -> Error "non-integer operand"
    | (Error _ as e), _ | _, (Error _ as e) -> e)
  | Csyntax.Unop (Csyntax.Neg, e) -> (
    match eval_expr env e with
    | Ok (Value.Vint a) -> Ok (Value.int (-a))
    | Ok _ -> Error "non-integer operand"
    | Error _ as err -> err)
  | Csyntax.Unop (Csyntax.Not, e) -> (
    match eval_expr env e with
    | Ok (Value.Vint a) -> Ok (Value.int (if a = 0 then 1 else 0))
    | Ok _ -> Error "non-integer operand"
    | Error _ as err -> err)

let rec eval_exprs env = function
  | [] -> Ok []
  | e :: rest -> (
    match eval_expr env e with
    | Error _ as err -> err
    | Ok v -> (
      match eval_exprs env rest with
      | Error _ as err -> err
      | Ok vs -> Ok (v :: vs)))

let prog_of_fn ?(fuel = 1_000_000) (fn : Csyntax.fn) args =
  let dup =
    List.find_opt
      (fun x -> List.mem x fn.Csyntax.locals)
      fn.Csyntax.params
  in
  (match dup with
  | Some x ->
    raise (Semantics_error (fn.Csyntax.name ^ ": name used as both parameter and local: " ^ x))
  | None -> ());
  let fault msg =
    Prog.call (fault_prim ^ ": " ^ fn.Csyntax.name ^ ": " ^ msg) []
  in
  if List.length args <> List.length fn.Csyntax.params then
    fault
      (Printf.sprintf "expected %d arguments, got %d"
         (List.length fn.Csyntax.params)
         (List.length args))
  else
    let env =
      List.fold_left2
        (fun env x v -> Smap.add x v env)
        Smap.empty fn.Csyntax.params args
    in
    let env =
      List.fold_left (fun env x -> Smap.add x (Value.int 0) env) env fn.Csyntax.locals
    in
    (* CPS interpretation: [k] receives the environment and remaining
       fuel after normal completion; [Sreturn] bypasses it and ends the
       whole function.  Fuel is threaded as a value, never a shared ref:
       the produced [Prog.t] is re-entered many times (every schedule
       replay, and state fingerprinting probes continuations), and a
       mutable fuel pool would drain across entries, changing live
       semantics under observation. *)
    let rec exec stmt env fuel (k : env -> int -> Prog.t) : Prog.t =
      let fuel = fuel - 1 in
      if fuel <= 0 then fault Prog.steps_bound_exceeded
      else
        match stmt with
        | Csyntax.Sskip -> k env fuel
        | Csyntax.Sassign (x, e) -> (
          match eval_expr env e with
          | Ok v -> k (Smap.add x v env) fuel
          | Error msg -> fault msg)
        | Csyntax.Scall (dest, prim, arg_exprs) -> (
          match eval_exprs env arg_exprs with
          | Error msg -> fault msg
          | Ok vs ->
            Prog.Call
              {
                prim;
                args = vs;
                k =
                  (fun v ->
                    match dest with
                    | None -> k env fuel
                    | Some x -> k (Smap.add x v env) fuel);
              })
        | Csyntax.Sseq (a, b) -> exec a env fuel (fun env fuel -> exec b env fuel k)
        | Csyntax.Sif (cond, st, sf) -> (
          match eval_expr env cond with
          | Ok (Value.Vint 0) -> exec sf env fuel k
          | Ok (Value.Vint _) -> exec st env fuel k
          | Ok _ -> fault "non-integer branch condition"
          | Error msg -> fault msg)
        | Csyntax.Swhile (cond, body) -> (
          match eval_expr env cond with
          | Ok (Value.Vint 0) -> k env fuel
          | Ok (Value.Vint _) -> exec body env fuel (fun env fuel -> exec stmt env fuel k)
          | Ok _ -> fault "non-integer loop condition"
          | Error msg -> fault msg)
        | Csyntax.Sreturn None -> Prog.ret_unit
        | Csyntax.Sreturn (Some e) -> (
          match eval_expr env e with
          | Ok v -> Prog.ret v
          | Error msg -> fault msg)
    in
    exec fn.Csyntax.body env fuel (fun _ _ -> Prog.ret_unit)
