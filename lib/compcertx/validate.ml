open Ccal_core

type report = {
  fns_validated : int;
  cases_run : int;
}

(* Source and compiled code must see the *same* environment events: the
   suite generator is called twice and must be deterministic (all suites in
   this code base are built from pure data). *)
let validate_fn ~layer ~tids ~arg_cases ~envs
    ((fn : Ccal_clight.Csyntax.fn), asm_fn) =
  let call args tid =
    Printf.sprintf "%s(%s) on thread %d" fn.Ccal_clight.Csyntax.name
      (String.concat ", " (List.map Value.to_string args))
      tid
  in
  let run_case tid args env_c env_a =
    let c_run =
      Machine.run_local layer tid ~env:env_c
        (Ccal_clight.Csem.prog_of_fn fn args)
    in
    let asm_run =
      Machine.run_local layer tid ~env:env_a
        (Ccal_machine.Asm_sem.prog_of_fn asm_fn args)
    in
    let fail reason =
      Error
        (Failure.overlay ~sched:env_c.Env_context.name ~lower:asm_run.Machine.log
           c_run.Machine.log
           (Printf.sprintf "translation validation of %s: %s" (call args tid) reason))
    in
    match c_run.Machine.outcome, asm_run.Machine.outcome with
    | Machine.Done vc, Machine.Done va ->
      if not (Value.equal vc va) then
        fail
          (Printf.sprintf "results differ: C returned %s, assembly returned %s"
             (Value.to_string vc) (Value.to_string va))
      else if not (Log.equal c_run.Machine.log asm_run.Machine.log) then
        fail "logs differ"
      else Ok ()
    | Machine.Done _, _ -> fail "assembly did not terminate where C did"
    | Machine.Stuck_run msg, _ -> fail ("source execution got stuck: " ^ msg)
    | Machine.No_progress msg, _ -> fail ("source execution blocked: " ^ msg)
    | Machine.Out_of_fuel, _ -> fail "source execution ran out of fuel"
  in
  let cases =
    List.concat_map (fun args -> List.map (fun tid -> args, tid) tids) arg_cases
  in
  let rec go n = function
    | [] -> Ok n
    | (args, tid) :: rest -> (
      let envs_c = envs tid and envs_a = envs tid in
      let rec over_envs = function
        | [], [] -> Ok ()
        | ec :: cs, ea :: as_ -> (
          match run_case tid args ec ea with
          | Ok () -> over_envs (cs, as_)
          | Error _ as e -> e)
        | _ ->
          Error
            (Failure.no_run
               (Printf.sprintf
                  "translation validation of %s: environment suite generator is not \
                   deterministic"
                  (call args tid)))
      in
      match over_envs (envs_c, envs_a) with
      | Ok () -> go (n + List.length envs_c) rest
      | Error _ as e -> e)
  in
  go 0 cases

let validate_module ~layer ~tids ~arg_cases ~envs pairs =
  let rec go fns_validated cases_run = function
    | [] -> Ok { fns_validated; cases_run }
    | ((fn : Ccal_clight.Csyntax.fn), _) as pair :: rest -> (
      let cases =
        match List.assoc_opt fn.Ccal_clight.Csyntax.name arg_cases with
        | Some cs -> cs
        | None -> [ [] ]
      in
      match validate_fn ~layer ~tids ~arg_cases:cases ~envs pair with
      | Ok n -> go (fns_validated + 1) (cases_run + n) rest
      | Error _ as e -> e)
  in
  go 0 0 pairs
