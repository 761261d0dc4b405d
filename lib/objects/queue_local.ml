open Ccal_core
module C = Ccal_clight.Csyntax

(* ------------------------------------------------------------------ *)
(* Private heap layer                                                  *)
(* ------------------------------------------------------------------ *)

let heap_field a = "h:" ^ string_of_int a
let hp_field = "hp"
let heap_base = 1000

let lload_prim =
  ( "lload",
    Layer.Private
      (fun _ args abs ->
        match args with
        | [ Value.Vint a ] -> (
          match Abs.get (heap_field a) abs with
          | Value.Vunit -> Ok (abs, Value.int 0)
          | v -> Ok (abs, v))
        | _ -> Error "lload: expected an address") )

let lstore_prim =
  ( "lstore",
    Layer.Private
      (fun _ args abs ->
        match args with
        | [ Value.Vint a; v ] -> Ok (Abs.set (heap_field a) v abs, Value.unit)
        | _ -> Error "lstore: expected address and value") )

let lalloc_prim =
  ( "lalloc",
    Layer.Private
      (fun _ args abs ->
        match args with
        | [ Value.Vint n ] when n > 0 ->
          let hp =
            match Abs.get hp_field abs with
            | Value.Vint p -> p
            | _ -> heap_base
          in
          Ok (Abs.set hp_field (Value.int (hp + n)) abs, Value.int hp)
        | _ -> Error "lalloc: expected a positive size") )

let heap_layer () =
  Layer.make "Lheap" [ lload_prim; lstore_prim; lalloc_prim ]

(* ------------------------------------------------------------------ *)
(* Abstract queue layer (the paper's a.tdqp)                           *)
(* ------------------------------------------------------------------ *)

let tdqp_field q = "tdqp:" ^ string_of_int q

let get_queue q abs =
  match Abs.get (tdqp_field q) abs with
  | Value.Vlist vs -> vs
  | _ -> []

let abs_enq_prim =
  ( "enQ",
    Layer.Private
      (fun _ args abs ->
        match args with
        | [ Value.Vint q; v ] ->
          let vs = get_queue q abs in
          Ok (Abs.set (tdqp_field q) (Value.list (vs @ [ v ])) abs, Value.unit)
        | _ -> Error "enQ: expected queue and value") )

let abs_deq_prim =
  ( "deQ",
    Layer.Private
      (fun _ args abs ->
        match args with
        | [ Value.Vint q ] -> (
          match get_queue q abs with
          | [] -> Ok (abs, Value.int (-1))
          | v :: rest ->
            Ok (Abs.set (tdqp_field q) (Value.list rest) abs, v))
        | _ -> Error "deQ: expected a queue") )

let abs_qlen_prim =
  ( "qlen",
    Layer.Private
      (fun _ args abs ->
        match args with
        | [ Value.Vint q ] -> Ok (abs, Value.int (List.length (get_queue q abs)))
        | _ -> Error "qlen: expected a queue") )

let abs_layer () =
  Layer.make "Labsq" [ abs_enq_prim; abs_deq_prim; abs_qlen_prim ]

(* ------------------------------------------------------------------ *)
(* Doubly-linked-list implementation over the heap                     *)
(* ------------------------------------------------------------------ *)

(* Queue control block at address q: [q] = head, [q+1] = tail, [q+2] = len.
   Node layout: [nd] = value, [nd+1] = prev, [nd+2] = next; 0 = null. *)

let enq_fn =
  {
    C.name = "enQ";
    params = [ "q"; "val" ];
    locals = [ "nd"; "t"; "len" ];
    body =
      C.seq
        [
          C.calla "nd" "lalloc" [ C.i 3 ];
          C.call_ "lstore" [ C.v "nd"; C.v "val" ];
          C.calla "t" "lload" [ C.(v "q" + i 1) ];
          C.call_ "lstore" [ C.(v "nd" + i 1); C.v "t" ];
          C.call_ "lstore" [ C.(v "nd" + i 2); C.i 0 ];
          C.if_
            C.(v "t" = i 0)
            (C.call_ "lstore" [ C.v "q"; C.v "nd" ])
            (C.call_ "lstore" [ C.(v "t" + i 2); C.v "nd" ]);
          C.call_ "lstore" [ C.(v "q" + i 1); C.v "nd" ];
          C.calla "len" "lload" [ C.(v "q" + i 2) ];
          C.call_ "lstore" [ C.(v "q" + i 2); C.(v "len" + i 1) ];
          C.return_unit;
        ];
  }

let deq_fn =
  {
    C.name = "deQ";
    params = [ "q" ];
    locals = [ "h"; "val"; "n"; "len" ];
    body =
      C.seq
        [
          C.calla "h" "lload" [ C.v "q" ];
          C.if_
            C.(v "h" = i 0)
            (C.return (C.i (-1)))
            (C.seq
               [
                 C.calla "val" "lload" [ C.v "h" ];
                 C.calla "n" "lload" [ C.(v "h" + i 2) ];
                 C.call_ "lstore" [ C.v "q"; C.v "n" ];
                 C.if_
                   C.(v "n" = i 0)
                   (C.call_ "lstore" [ C.(v "q" + i 1); C.i 0 ])
                   (C.call_ "lstore" [ C.(v "n" + i 1); C.i 0 ]);
                 C.calla "len" "lload" [ C.(v "q" + i 2) ];
                 C.call_ "lstore" [ C.(v "q" + i 2); C.(v "len" - i 1) ];
                 C.return (C.v "val");
               ]);
        ];
  }

let qlen_fn =
  {
    C.name = "qlen";
    params = [ "q" ];
    locals = [ "len" ];
    body =
      C.seq
        [
          C.calla "len" "lload" [ C.(v "q" + i 2) ];
          C.return (C.v "len");
        ];
  }

let fns = [ enq_fn; deq_fn; qlen_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
let asm_module () = Ccal_compcertx.Compile.compile_module fns

(* Call sequences on queue 0 exercising empty, singleton and
   multi-element queues; a sequential object has no rivals. *)
let recipe =
  let q = Value.int 0 in
  let e v = "enQ", [ q; Value.int v ] and d = "deQ", [ q ] in
  {
    Object_intf.underlay = (fun _ _ -> heap_layer ());
    overlay = abs_layer ();
    c_module;
    asm_module = Some asm_module;
    rel = Sim_rel.id;
    prim_tests =
      [
        "deQ",
          [
            Calculus.case [ q ];  (* empty *)
            Calculus.case ~pre:[ e 5 ] [ q ];
            Calculus.case ~pre:[ e 5; e 6; e 7 ] [ q ];
            Calculus.case ~pre:[ e 5; d; e 6 ] [ q ];
            Calculus.case ~pre:[ e 5; e 6; d; d ] [ q ];  (* empty again *)
          ];
        "enQ",
          [
            Calculus.case [ q; Value.int 1 ];
            Calculus.case ~pre:[ e 2; d; d ] [ q; Value.int 3 ];
          ];
        "qlen",
          [
            Calculus.case [ q ];
            Calculus.case ~pre:[ e 1; e 2; d ] [ q ];
          ];
      ];
    rival = (fun () -> Prog.ret_unit);
    rivals = [];
    groups = [];
    siblings = false;
    focus = [ 1 ];
  }
