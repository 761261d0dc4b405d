(* The recommended jobs count, derived from a measured [(jobs, speedup)]
   scaling curve rather than [Domain.recommended_domain_count] (which
   reflects the host, not the workload): the jobs value with the highest
   measured speedup, ties broken toward fewer domains — a tie means the
   extra domains buy nothing, so don't spawn them.  Shared by the bench's
   parallel section and the test suite (test/dune copies this file). *)
let recommend_domains curve =
  match curve with
  | [] -> 1
  | (j0, s0) :: rest ->
    fst
      (List.fold_left
         (fun (bj, bs) (j, s) ->
           if s > bs || (s = bs && j < bj) then (j, s) else (bj, bs))
         (j0, s0) rest)
