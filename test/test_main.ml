(* Test runner: one alcotest section per subsystem of DESIGN.md. *)
let () =
  Alcotest.run "ccal"
    [
      "events-logs-replay (S1)", Test_value_log.suite;
      "machine-game (S2,S4,S5)", Test_machine_game.suite;
      "schedules-as-data (S36)", Test_sched.suite;
      "simulation-calculus-refinement (S6-S8)", Test_simulation_calculus.suite;
      "multicore-machine (S9-S11)", Test_machine_lib.suite;
      "clightx-compcertx (S12-S14)", Test_clight_compile.suite;
      "locks (S15,S16)", Test_locks.suite;
      "queues (S17)", Test_queues.suite;
      "multithreading (S18-S21)", Test_multithread.suite;
      "verify-and-injection (S22)", Test_verify_injection.suite;
      "extensions (TSO, rwlock, Wk/Hcomp)", Test_extensions.suite;
      "api-surface-and-corner-cases", Test_surface.suite;
      "liveness-and-deadlock", Test_liveness.suite;
      "dpor-exploration (S23)", Test_dpor.suite;
      "parallel-checking (S24)", Test_parallel.suite;
      "one-game-scan (S37)", Test_games.suite;
      "perf-gate (S24)", Test_perf_gate.suite;
      "cross-cutting-invariants", Test_invariants.suite;
      "telemetry (S25)", Test_telemetry.suite;
      "certificate-cache (S26)", Test_cache.suite;
      "edge-reports (S26,S27)", Test_reports.suite;
      "robustness (S27)", Test_robust.suite;
      "kv-layer-stack (S28)", Test_kv.suite;
      "memory-model-litmus (S29)", Test_litmus.suite;
      "crash-safety (S30)", Test_crash.suite;
    ]
