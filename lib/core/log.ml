type t = { rev_events : Event.t list; len : int }

let empty = { rev_events = []; len = 0 }

let append e l = { rev_events = e :: l.rev_events; len = l.len + 1 }

let append_all es l = List.fold_left (fun l e -> append e l) l es

let newest_first l = l.rev_events

let chronological l = List.rev l.rev_events

let length l = l.len

let filter p l =
  let evs = List.filter p l.rev_events in
  { rev_events = evs; len = List.length evs }

let map_events f l =
  let chron = chronological l in
  let mapped = List.concat_map f chron in
  List.fold_left (fun acc e -> append e acc) empty mapped

let count p l =
  List.fold_left (fun n e -> if p e then n + 1 else n) 0 l.rev_events

let equal a b =
  a.len = b.len && List.for_all2 Event.equal a.rev_events b.rev_events

(* Multiply-xor avalanche per event.  The previous [acc * 31 + h] chain
   barely diffuses the low bits: permutations and near-permutations of the
   same events land in the same bucket far too often, degrading [dedup]
   to its quadratic worst case on exactly the permuted-log corpora the
   DPOR harness feeds it.  The xor-in / odd-multiply / shift-down round
   spreads every event hash across the word, and a second finalization
   pass mixes the length back in so prefixes separate from extensions. *)
let mix acc k =
  let h = (acc lxor k) * 0x9E3779B1 in
  (h lxor (h lsr 16)) land max_int

let hash l =
  let h = List.fold_left (fun acc e -> mix acc (Event.hash e)) 0x2545F491 l.rev_events in
  let h = mix h l.len in
  mix h (h lsr 11)

(* Order-preserving dedup, hashing into buckets so counting distinct logs
   is linear in the total number of events rather than quadratic in the
   number of logs.  Collisions only cost time, never correctness: equality
   within a bucket is decided by [equal].  [?hash] lets the tests drive
   the collision path deliberately (e.g. a constant hash). *)
let dedup ?(hash = hash) logs =
  let buckets = Hashtbl.create 64 in
  List.filter
    (fun l ->
      let h = hash l in
      let seen = Option.value (Hashtbl.find_opt buckets h) ~default:[] in
      if List.exists (equal l) seen then false
      else (
        Hashtbl.replace buckets h (l :: seen);
        true))
    logs

(* The same buckets over [b], as multi-bindings, probed once per log of [a]. *)
let subset ?(hash = hash) a b =
  let buckets = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.add buckets (hash l) l) b;
  List.for_all
    (fun l -> List.exists (equal l) (Hashtbl.find_all buckets (hash l)))
    a

let pp fmt l =
  Format.fprintf fmt "@[<hov 1>[%a]@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") Event.pp)
    (chronological l)
