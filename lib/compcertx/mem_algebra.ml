open Ccal_core

module Imap = Map.Make (Int)

type block =
  | Empty
  | Real of {
      lo : int;
      hi : int;
      data : Value.t Imap.t;
    }

type t = block list  (* index 0 = first allocated *)

type loc = { block : int; off : int }

let empty = []

let nb m = List.length m

let alloc m lo hi =
  let idx = nb m in
  m @ [ Real { lo; hi; data = Imap.empty } ], idx

let liftnb m n =
  if n <= 0 then m else m @ List.init n (fun _ -> Empty)

let block_at m i = List.nth_opt m i

let ld m l =
  match block_at m l.block with
  | Some (Real b) when l.off >= b.lo && l.off < b.hi ->
    Some (Option.value ~default:(Value.int 0) (Imap.find_opt l.off b.data))
  | Some (Real _) | Some Empty | None -> None

let st m l v =
  match block_at m l.block with
  | Some (Real b) when l.off >= b.lo && l.off < b.hi ->
    Some
      (List.mapi
         (fun i blk ->
           if i = l.block then Real { b with data = Imap.add l.off v b.data }
           else blk)
         m)
  | Some (Real _) | Some Empty | None -> None

let compose m1 m2 =
  let n = max (nb m1) (nb m2) in
  let rec go i acc =
    if i >= n then Some (List.rev acc)
    else
      match block_at m1 i, block_at m2 i with
      | (Some (Real _) as b), (Some Empty | None)
      | (Some Empty | None), (Some (Real _) as b) ->
        go (i + 1) (Option.get b :: acc)
      | (Some Empty | None), (Some Empty | None) -> go (i + 1) (Empty :: acc)
      | Some (Real _), Some (Real _) -> None
  in
  go 0 []

let block_equal a b =
  match a, b with
  | Empty, Empty -> true
  | Real x, Real y ->
    x.lo = y.lo && x.hi = y.hi && Imap.equal Value.equal x.data y.data
  | (Empty | Real _), _ -> false

let equal a b = List.length a = List.length b && List.for_all2 block_equal a b

let related m1 m2 m =
  match compose m1 m2 with
  | Some m' -> equal m m'
  | None -> false
