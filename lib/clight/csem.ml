open Ccal_core

exception Semantics_error of string

let fault_prim = "c_fault"

(* A dynamic fault met while evaluating an expression.  The statement
   evaluating it catches it and calls the fault primitive, so it never
   escapes the produced [Prog.t]. *)
exception Fault of string

(* The variables of one activation, one slot each, resolved when the
   function is compiled.  A write copies the array: continuations are
   re-entered (every schedule replay, and fingerprinting probes them), so
   an environment once captured must never change. *)
type env = Value.t array

(* Compiled code of a statement followed by the rest of the body: it
   receives the environment and the remaining fuel. *)
type code = env -> int -> Prog.t

(* The initial content of the slot of a name that the body assigns but
   never declares: reading it before the first assignment faults.  Tested
   by physical equality; the block is allocated here and no program can
   compute it. *)
let unbound : Value.t = Value.Vpair (Value.Vunit, Sys.opaque_identity Value.Vunit)

let zero = Value.int 0

(* An expression either always yields an integer (constants, operators)
   or may yield any value (variables).  A binary operator with a variable
   operand checks for integers only once both sides are evaluated, so an
   error in the right operand still beats a non-integer left one, as in
   the definition. *)
type cexpr =
  | Int of (env -> int)
  | Val of (env -> Value.t)

let non_integer = "non-integer operand"

let to_int = function Value.Vint n -> n | _ -> raise (Fault non_integer)

let int_op op =
  let bool_int c = if c then 1 else 0 in
  let checked f a b = if b = 0 then raise (Fault "division by zero") else f a b in
  match op with
  | Csyntax.Add -> ( + )
  | Csyntax.Sub -> ( - )
  | Csyntax.Mul -> ( * )
  | Csyntax.Div -> checked ( / )
  | Csyntax.Mod -> checked ( mod )
  | Csyntax.Eq -> fun a b -> bool_int (Int.equal a b)
  | Csyntax.Ne -> fun a b -> bool_int (not (Int.equal a b))
  | Csyntax.Lt -> fun a b -> bool_int (a < b)
  | Csyntax.Le -> fun a b -> bool_int (a <= b)
  | Csyntax.Gt -> fun a b -> bool_int (a > b)
  | Csyntax.Ge -> fun a b -> bool_int (a >= b)
  | Csyntax.And -> fun a b -> bool_int (a <> 0 && b <> 0)
  | Csyntax.Or -> fun a b -> bool_int (a <> 0 || b <> 0)

(* Slots: the declared names first (parameters, then locals), then every
   undeclared name the body assigns, in order of appearance. *)
let slots_of_fn (fn : Csyntax.fn) =
  let rec assigned acc = function
    | Csyntax.Sassign (x, _) | Csyntax.Scall (Some x, _, _) -> x :: acc
    | Csyntax.Sseq (a, b) | Csyntax.Sif (_, a, b) -> assigned (assigned acc a) b
    | Csyntax.Swhile (_, s) -> assigned acc s
    | Csyntax.Sskip | Csyntax.Scall (None, _, _) | Csyntax.Sreturn _ -> acc
  in
  let add names x = if List.mem x names then names else x :: names in
  let declared = List.fold_left add [] (fn.params @ fn.locals) in
  let all = List.fold_left add declared (List.rev (assigned [] fn.body)) in
  let slot x =
    let rec find i = function
      | [] -> None
      | y :: rest -> if String.equal x y then Some i else find (i + 1) rest
    in
    find 0 (List.rev all)
  in
  slot, List.length declared, List.length all

let compile ~fuel (fn : Csyntax.fn) =
  let slot, declared, nslots = slots_of_fn fn in
  let fault msg = Prog.call (fault_prim ^ ": " ^ fn.name ^ ": " ^ msg) [] in
  let out_of_fuel = fault Prog.steps_bound_exceeded in
  let read x =
    let msg = "unbound variable " ^ x in
    match slot x with
    | Some i when i < declared -> fun env -> Array.unsafe_get env i
    | Some i ->
      fun env ->
        let v = Array.unsafe_get env i in
        if v == unbound then raise (Fault msg) else v
    | None -> fun _ -> raise (Fault msg)
  in
  let write x =
    let i = Option.get (slot x) in
    fun env v ->
      let env = Array.copy env in
      Array.unsafe_set env i v;
      env
  in
  let rec expr = function
    | Csyntax.Const n -> Int (fun _ -> n)
    | Csyntax.Var x -> Val (read x)
    | Csyntax.Binop (op, a, b) -> (
      let f = int_op op in
      match expr a, expr b with
      | Int a, Int b ->
        Int
          (fun env ->
            let x = a env in
            f x (b env))
      | ca, cb ->
        let a = boxed a ca and b = boxed b cb in
        Int
          (fun env ->
            let va = a env in
            let vb = b env in
            f (to_int va) (to_int vb)))
    | Csyntax.Unop (Csyntax.Neg, e) ->
      let f = ints non_integer e in
      Int (fun env -> -f env)
    | Csyntax.Unop (Csyntax.Not, e) ->
      let f = ints non_integer e in
      Int (fun env -> if f env = 0 then 1 else 0)
  (* [e], compiled to [c], as a value; a constant's is allocated once *)
  and boxed e c =
    match e, c with
    | Csyntax.Const n, _ ->
      let v = Value.int n in
      fun _ -> v
    | _, Int f -> fun env -> Value.int (f env)
    | _, Val f -> f
  (* an integer, or the fault [msg] on any other value *)
  and ints msg e =
    match expr e with
    | Int f -> f
    | Val f -> (
      fun env -> match f env with Value.Vint n -> n | _ -> raise (Fault msg))
  in
  let value e = boxed e (expr e) in
  let values es =
    let fs = List.map value es in
    let rec eval fs env =
      match fs with
      | [] -> []
      | f :: rest ->
        let v = f env in
        v :: eval rest env
    in
    eval fs
  in
  (* Each statement costs one unit of fuel when it starts, [Sseq] and
     every [Swhile] test included; [Sreturn] bypasses [next] and ends the
     whole function. *)
  let rec stmt s (next : code) : code =
    let metered (body : code) : code =
     fun env fuel ->
      let fuel = fuel - 1 in
      if fuel <= 0 then out_of_fuel else body env fuel
    in
    match s with
    | Csyntax.Sskip -> metered next
    | Csyntax.Sassign (x, e) ->
      let e = value e and w = write x in
      metered (fun env fuel ->
          match e env with
          | v -> next (w env v) fuel
          | exception Fault msg -> fault msg)
    | Csyntax.Scall (dest, prim, args) ->
      let args = values args in
      let resume = match dest with None -> fun env _ -> env | Some x -> write x in
      metered (fun env fuel ->
          match args env with
          | args -> Prog.Call { prim; args; k = (fun v -> next (resume env v) fuel) }
          | exception Fault msg -> fault msg)
    | Csyntax.Sseq (a, b) -> metered (stmt a (stmt b next))
    | Csyntax.Sif (c, st, sf) ->
      let c = ints "non-integer branch condition" c in
      let st = stmt st next and sf = stmt sf next in
      metered (fun env fuel ->
          match c env with
          | 0 -> sf env fuel
          | _ -> st env fuel
          | exception Fault msg -> fault msg)
    | Csyntax.Swhile (c, body) ->
      let c = ints "non-integer loop condition" c in
      (* the body loops back to the whole statement; the knot is tied
         here, once, and never written again *)
      let loop = ref next in
      let body = stmt body (fun env fuel -> !loop env fuel) in
      let test =
        metered (fun env fuel ->
            match c env with
            | 0 -> next env fuel
            | _ -> body env fuel
            | exception Fault msg -> fault msg)
      in
      loop := test;
      test
    | Csyntax.Sreturn None -> metered (fun _ _ -> Prog.ret_unit)
    | Csyntax.Sreturn (Some e) ->
      let e = value e in
      metered (fun env _ ->
          match e env with v -> Prog.ret v | exception Fault msg -> fault msg)
  in
  let code = stmt fn.body (fun _ _ -> Prog.ret_unit) in
  let nparams = List.length fn.params in
  let param_slots = List.map (fun x -> Option.get (slot x)) fn.params in
  let local_slots = List.map (fun x -> Option.get (slot x)) fn.locals in
  fun args ->
    if List.length args <> nparams then
      fault (Printf.sprintf "expected %d arguments, got %d" nparams (List.length args))
    else begin
      let env = Array.make nslots unbound in
      List.iter2 (fun i v -> env.(i) <- v) param_slots args;
      List.iter (fun i -> env.(i) <- zero) local_slots;
      code env fuel
    end

(* Compiled once, when [fn] is given; the parameter/local clash is still
   reported when the function is applied. *)
let prog_of_fn ?(fuel = 1_000_000) (fn : Csyntax.fn) =
  match List.find_opt (fun x -> List.mem x fn.Csyntax.locals) fn.Csyntax.params with
  | Some x ->
    fun _ ->
      raise
        (Semantics_error
           (fn.Csyntax.name ^ ": name used as both parameter and local: " ^ x))
  | None -> compile ~fuel fn

let module_of_fns fns =
  Prog.Module.of_bodies
    (List.map (fun (fn : Csyntax.fn) -> fn.Csyntax.name, prog_of_fn fn) fns)
