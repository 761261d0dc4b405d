module C = Ccal_clight.Csyntax
module T = Thread_sched

let cv_wait_fn =
  {
    C.name = "cv_wait";
    params = [ "cv"; "lk"; "pv" ];
    locals = [];
    body =
      C.seq
        [
          C.call_ T.sleep_tag [ C.v "cv"; C.v "lk"; C.v "pv" ];
          C.call_ T.wait_tag [ C.v "cv" ];
          C.return_unit;
        ];
  }

let cv_signal_fn =
  {
    C.name = "cv_signal";
    params = [ "cv" ];
    locals = [ "w" ];
    body =
      C.seq
        [
          C.calla "w" T.wakeup_tag [ C.v "cv" ];
          C.return (C.v "w");
        ];
  }

let cv_broadcast_fn =
  {
    C.name = "cv_broadcast";
    params = [ "cv" ];
    locals = [ "w"; "n" ];
    body =
      C.seq
        [
          C.set "n" (C.i 0);
          C.calla "w" T.wakeup_tag [ C.v "cv" ];
          C.while_
            C.(v "w" <> i 0)
            (C.seq
               [
                 C.set "n" C.(v "n" + i 1);
                 C.calla "w" T.wakeup_tag [ C.v "cv" ];
               ]);
          C.return (C.v "n");
        ];
  }

let fns = [ cv_wait_fn; cv_signal_fn; cv_broadcast_fn ]

let c_module () = Ccal_clight.Csem.module_of_fns fns
