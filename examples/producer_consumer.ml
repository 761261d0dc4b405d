(* Producer/consumer over the certified IPC channel (Sec. 6's synchronous
   IPC, built from spinlock + condition variables + scheduler).

   Two producers and one consumer share a bounded channel of capacity 2;
   producers block (sleep, not spin) when the buffer is full, the consumer
   when it is empty.  The run below prints both views of one execution:
   the concrete log with its sleeps and wakeups, and its translation into
   the atomic send/recv history.

   Run with:  dune exec examples/producer_consumer.exe *)

open Ccal_core
open Ccal_objects

let vi = Value.int
let chan = 5

(* Thread 9 is the recipe's rival: placed, so the certificate's rival
   contexts run it. *)
let placement = [ 1, 1; 2, 2; 3, 3; 9, 9 ]

let producer first count =
  Prog.seq_all
    (List.init count (fun k -> Prog.call "send" [ vi chan; vi (first + k) ])
    @ [ Prog.call Thread_sched.exit_tag [] ])

let consumer count =
  let rec go k acc =
    if k = 0 then
      Prog.seq
        (Prog.call Thread_sched.exit_tag [])
        (Prog.ret (Value.list (List.rev acc)))
    else Prog.bind (Prog.call "recv" [ vi chan ]) (fun v -> go (k - 1) (v :: acc))
  in
  go count []

let () =
  Format.printf "== producer/consumer over the certified IPC channel ==@.@.";

  (* certify the channel first *)
  (match Object_intf.certify Ipc.recipe ~placement ~focus:[ 1; 2 ] () with
  | Ok c ->
    Format.printf "channel certified against Lipc: %d checks@.@."
      (Calculus.count_checks c)
  | Error e -> Format.printf "certification FAILED: %a@." Failure.pp e);

  let layer = Ipc.underlay ~placement () in
  let m = Ipc.c_module () in
  let threads =
    [ 1, Prog.Module.link m (producer 100 3);
      2, Prog.Module.link m (producer 200 3);
      3, Prog.Module.link m (consumer 6) ]
  in
  let o =
    Game.run (Game.config ~max_steps:200_000 layer threads (Sched.random ~seed:7))
  in
  Format.printf "concrete log (%d events):@.  %a@.@." (Log.length o.Game.log)
    Log.pp o.Game.log;

  let atomic = Sim_rel.apply Ipc.r_ipc o.Game.log in
  Format.printf "atomic history (%d events):@.  %a@.@." (Log.length atomic)
    Log.pp atomic;

  (match List.assoc_opt 3 o.Game.results with
  | Some v -> Format.printf "consumer received: %s@." (Value.to_string v)
  | None -> Format.printf "consumer did not finish: %a@." Game.pp_status o.Game.status);

  (* each producer's messages arrive in order *)
  let received =
    match List.assoc_opt 3 o.Game.results with
    | Some (Value.Vlist vs) -> List.map Value.to_int vs
    | _ -> []
  in
  let subseq base =
    List.filter (fun v -> v / 100 = base / 100) received
  in
  Format.printf "per-producer FIFO: p1 %b, p2 %b@."
    (subseq 100 = List.sort compare (subseq 100))
    (subseq 200 = List.sort compare (subseq 200));

  (* sleeping, not spinning: count the sleeps the bounded buffer forced *)
  let sleeps =
    Log.count (fun e -> String.equal e.Event.tag Thread_sched.sleep_tag) o.Game.log
  in
  Format.printf "blocking events in this run: %d sleeps / %d wakeups@." sleeps
    (Log.count (fun e -> String.equal e.Event.tag Thread_sched.wakeup_tag) o.Game.log)
