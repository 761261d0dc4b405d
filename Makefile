.PHONY: all build test check check-test-count check-lib-size check-exports check-parallel check-cache check-robust check-speedup check-kv check-tso check-crash check-sym examples explore bench clean

all: build

build:
	dune build

test:
	dune runtest --force

# Regression guard: the suite must never silently shrink — a dune or
# module-wiring mistake can drop a whole test file from the runner while
# everything still "passes".  Bump the floor when tests are added.
TEST_COUNT_FLOOR := 536

check-test-count:
	@out=$$(dune runtest --force 2>&1); status=$$?; \
	echo "$$out" | tail -2; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	count=$$(echo "$$out" | grep -Eo '[0-9]+ tests run' | grep -Eo '[0-9]+' | tail -1); \
	if [ -z "$$count" ]; then echo "check-test-count: could not parse test count"; exit 1; fi; \
	if [ "$$count" -lt "$(TEST_COUNT_FLOOR)" ]; then \
	  echo "check-test-count: REGRESSION - $$count tests run, floor is $(TEST_COUNT_FLOOR)"; exit 1; \
	else \
	  echo "check-test-count: OK ($$count tests run >= floor $(TEST_COUNT_FLOOR))"; \
	fi

# Size guard: the library must not grow back.  The ceiling is the line
# count of lib/ after the DPOR walk became one sequential DFS, the
# ticket and MCS locks came to share one Llock certification recipe,
# Prog.Module.stack came to link through Prog.Module.link, every object
# came to be certified by one Object_intf recipe, the edge became the
# one unit the certificate cache stores, Parallel shrank to the one
# game scan, the unused Replay combinators went, every edge came to
# report through the one Edges row, every export and optional
# argument came to have a caller, every checker came to fail with
# the one Failure record, the engine descriptor became the one name
# of a scheduler suite, and fault injection went; lower it when a
# change shrinks lib/.
LIB_SIZE_CEILING := 14248

check-lib-size:
	@lines=$$(cat lib/*/*.ml lib/*/*.mli | wc -l); \
	if [ "$$lines" -gt "$(LIB_SIZE_CEILING)" ]; then \
	  echo "check-lib-size: REGRESSION - lib/ has $$lines lines, ceiling is $(LIB_SIZE_CEILING)"; exit 1; \
	else \
	  echo "check-lib-size: OK ($$lines lines <= ceiling $(LIB_SIZE_CEILING))"; \
	fi

# Interface gate (DESIGN.md, "Every export has a caller"): every val of
# lib/**/*.mli is named by some caller outside its own module in lib/,
# bin/, examples/ or perfbench/, or is listed with its reason in
# scripts/exports_allowlist.txt; an allowlist line whose name gained a
# caller fails too.
check-exports:
	python3 scripts/check_exports.py

# The tier-1 gate: everything CI runs, runnable locally in one shot.
# Runs the full suite (with the test-count floor), the DPOR-vs-exhaustive
# agreement check on the headline game, the certificate-cache and
# robustness gates, and every object certificate (`ccal verify all` exits
# 1 when one fails).
check: build check-test-count check-lib-size check-exports check-cache check-robust check-speedup check-kv check-tso check-crash check-sym
	dune exec bin/ccal_cli.exe -- explore lock --threads 3 --depth 5
	dune exec bin/ccal_cli.exe -- verify all

# The speedup gate (DESIGN.md S24): the perf-gate alcotest section runs
# the headline Llock game at jobs 1 and 4 and fails when a >= 4-core host
# shows less than a 2x jobs=4 speedup.  On smaller hosts the speedup
# assertion self-skips (OCaml 5's minor GC is a stop-the-world rendezvous
# across domains — extra domains cannot win on one core) and the section
# pins the sequential-throughput floor and cross-jobs verdict identity
# instead.  `--only parallel` measures the full curve; it runs in _build/
# so the BENCH_parallel.json it writes leaves the committed one alone.
check-speedup: build
	dune exec test/test_main.exe -- test perf-gate
	cd _build && default/bench/main.exe --only parallel

# The certificate-cache gate (DESIGN.md S26): a warm stack run over a
# populated store must print a bit-identical canonical report and be at
# least 2x faster than the cold run that filled it.  The times compared
# are the in-report totals each run prints (the sum of its edges'
# millis: the body on a miss, the lookup on a hit), not whole-process
# wall time: on a small host a whole process is mostly start-up, which
# the cache cannot speed up and which made the wall-clock ratio flaky.
# A third, untimed run over the warm store with --stats must print
# "0 misses" and no schedules_run counter.
CCAL_BIN := _build/default/bin/ccal_cli.exe
CACHE_CHECK_DIR := _build/ccal-cache-check
# $(call at_least_2x,COLD_MS,WARM_MS): succeeds when both parsed and
# warm * 2 <= cold
at_least_2x = awk -v c="$(1)" -v w="$(2)" 'BEGIN { exit !(c != "" && w != "" && w * 2 <= c) }'
# $(call no_blank_last_line,FILE): succeeds when FILE's last line is not empty
no_blank_last_line = awk 'END { exit !(length($$0) > 0) }' $(1)

check-cache: build
	@rm -rf $(CACHE_CHECK_DIR); \
	total='s/^  total: .* in \([0-9.]*\) ms$$/\1/p'; \
	out=$$($(CCAL_BIN) stack --cache-dir $(CACHE_CHECK_DIR) --report _build/cache-cold.txt --jobs 2) || exit 1; \
	echo "$$out"; cold=$$(echo "$$out" | sed -n "$$total"); \
	out=$$($(CCAL_BIN) stack --cache-dir $(CACHE_CHECK_DIR) --report _build/cache-warm.txt --jobs 2) || exit 1; \
	echo "$$out"; warm=$$(echo "$$out" | sed -n "$$total"); \
	cmp _build/cache-cold.txt _build/cache-warm.txt || { \
	  echo "check-cache: REGRESSION - warm report differs from cold"; exit 1; }; \
	echo "check-cache: in-report total cold $${cold} ms, warm $${warm} ms"; \
	$(call at_least_2x,$$cold,$$warm) || { \
	  echo "check-cache: REGRESSION - warm run not >= 2x faster"; exit 1; }; \
	echo "check-cache: OK (reports identical, >= 2x speedup)"
	@out=$$($(CCAL_BIN) stack --cache-dir $(CACHE_CHECK_DIR) --jobs 2 --stats) || exit 1; \
	echo "$$out" | grep -q '^cache: [0-9]* hits, 0 misses,' || { \
	  echo "check-cache: REGRESSION - warm run missed the store ($$(echo "$$out" | grep '^cache:'))"; exit 1; }; \
	if echo "$$out" | grep -q 'schedules_run'; then \
	  echo "check-cache: REGRESSION - warm run replayed schedules"; exit 1; fi; \
	echo "check-cache: OK (warm --stats run: 0 misses, no schedule replayed)"
	@$(CCAL_BIN) cache stats --cache-dir $(CACHE_CHECK_DIR)

# The kv-stack gate (DESIGN.md S28): all three kv edges (hash table over
# its shards, block cache over the disk, composed service over the map
# spec) must certify, and a warm run over a populated store must print a
# bit-identical canonical report, with an in-report total at least 2x
# below the cold run's (as in check-cache).
# As in check-cache, a third run over the warm store with --stats must
# print "0 misses" and no schedules_run counter.
# A jobs 4 run must print the jobs 1 report byte for byte: the replay
# memos are per-domain (DESIGN.md S32), and this guards them under
# concurrent plays.  The report must not end in an empty line.
KV_CHECK_DIR := _build/ccal-kv-cache-check

check-kv: build
	@rm -rf $(KV_CHECK_DIR); \
	total='s/^kv stack: .*, \([0-9.]*\) ms$$/\1/p'; \
	out=$$($(CCAL_BIN) kv --threads 4 --cache-dir $(KV_CHECK_DIR) --report _build/kv-cold.txt) || exit 1; \
	echo "$$out"; cold=$$(echo "$$out" | sed -n "$$total"); \
	out=$$($(CCAL_BIN) kv --threads 4 --cache-dir $(KV_CHECK_DIR) --report _build/kv-warm.txt) || exit 1; \
	echo "$$out"; warm=$$(echo "$$out" | sed -n "$$total"); \
	cmp _build/kv-cold.txt _build/kv-warm.txt || { \
	  echo "check-kv: REGRESSION - warm report differs from cold"; exit 1; }; \
	$(call no_blank_last_line,_build/kv-cold.txt) || { \
	  echo "check-kv: REGRESSION - the report ends in an empty line"; exit 1; }; \
	echo "check-kv: in-report total cold $${cold} ms, warm $${warm} ms"; \
	$(call at_least_2x,$$cold,$$warm) || { \
	  echo "check-kv: REGRESSION - warm run not >= 2x faster"; exit 1; }; \
	echo "check-kv: OK (3 edges certified, reports identical, >= 2x speedup)"
	@out=$$($(CCAL_BIN) kv --threads 4 --cache-dir $(KV_CHECK_DIR) --stats) || exit 1; \
	echo "$$out" | grep -q '^cache: [0-9]* hits, 0 misses,' || { \
	  echo "check-kv: REGRESSION - warm run missed the store ($$(echo "$$out" | grep '^cache:'))"; exit 1; }; \
	if echo "$$out" | grep -q 'schedules_run'; then \
	  echo "check-kv: REGRESSION - warm run replayed schedules"; exit 1; fi; \
	echo "check-kv: OK (warm --stats run: 0 misses, no schedule replayed)"
	@$(CCAL_BIN) kv --threads 4 --jobs 1 --report _build/kv-jobs1.txt > /dev/null || exit 1; \
	$(CCAL_BIN) kv --threads 4 --jobs 4 --report _build/kv-jobs4.txt > /dev/null || exit 1; \
	cmp _build/kv-jobs1.txt _build/kv-jobs4.txt || { \
	  echo "check-kv: REGRESSION - jobs 4 report differs from jobs 1"; exit 1; }; \
	echo "check-kv: OK (jobs 4 report identical to jobs 1)"

# The robustness gate (DESIGN.md S27).  Four legs:
#   1. the adversarial rwlock spin suite livelocks under the trace-prefix
#      schedulers; a 2s wall-clock budget must turn that into a clean
#      exit 0 with an Exhausted report naming the unfinished edge;
#   2. a corrupted store is a store of misses: after every entry of a
#      filled store is overwritten with junk, a jobs 4 run over it must
#      invalidate all 10 entries, recheck them live and print the
#      canonical report of a clean jobs 1 run byte for byte;
#   3. a 100-step budget is deterministic: the 64 Thm 3.1 games of
#      exhaustive:6 are charged their steps, so at jobs 1 and 4 the run
#      exits 0 naming the first edge as the frontier;
#   4. out-of-range budget and depth values (NaN, infinite or negative
#      milliseconds, negative steps or depth) exit 2 with a message naming
#      the flag, instead of being clamped to an instantly exhausted run.
ROBUST_CHECK_DIR := _build/ccal-robust-cache-check

check-robust: build
	@out=$$($(CCAL_BIN) stack --livelock --budget-ms 2000); status=$$?; \
	if [ $$status -ne 0 ]; then \
	  echo "check-robust: REGRESSION - budgeted livelock run exited $$status"; exit 1; fi; \
	echo "$$out" | grep -q "budget exhausted" || { \
	  echo "check-robust: REGRESSION - no Exhausted report from the livelock run"; exit 1; }; \
	echo "check-robust: OK (livelock bounded: $$(echo "$$out" | grep 'budget exhausted'))"
	@rm -rf $(ROBUST_CHECK_DIR); \
	$(CCAL_BIN) stack --jobs 1 --report _build/robust-clean.txt > /dev/null || exit 1; \
	$(CCAL_BIN) stack --cache-dir $(ROBUST_CHECK_DIR) --jobs 4 > /dev/null || exit 1; \
	for f in $(ROBUST_CHECK_DIR)/*; do printf 'not a certificate' > "$$f"; done; \
	out=$$($(CCAL_BIN) stack --cache-dir $(ROBUST_CHECK_DIR) --jobs 4 \
	  --report _build/robust-corrupted.txt) || exit 1; \
	cmp _build/robust-clean.txt _build/robust-corrupted.txt || { \
	  echo "check-robust: REGRESSION - report over a corrupted store differs from a clean run"; exit 1; }; \
	echo "$$out" | grep -q '^cache: 0 hits, 10 misses, 10 invalidations' || { \
	  echo "check-robust: REGRESSION - corrupted store not invalidated ($$(echo "$$out" | grep '^cache:'))"; exit 1; }; \
	echo "check-robust: OK (corrupted store: 10 entries invalidated, report byte-identical to a clean run)"
	@for j in 1 4; do \
	  out=$$($(CCAL_BIN) stack --strategy exhaustive:6 --budget-steps 100 --jobs $$j); status=$$?; \
	  if [ $$status -ne 0 ]; then \
	    echo "check-robust: REGRESSION - step-budget run exited $$status at jobs $$j"; exit 1; fi; \
	  echo "$$out" | grep -qF 'before edge "Mx86 refines Lx86[D] (Thm 3.1)"' || { \
	    echo "check-robust: REGRESSION - jobs $$j step-budget frontier is not the Thm 3.1 edge"; exit 1; }; \
	done; \
	echo "check-robust: OK (100-step budget stops in the Thm 3.1 edge at jobs 1 and 4)"
	@for a in "stack --budget-ms nan" "stack --budget-ms inf" "stack --budget-ms=-5" \
	  "stack --budget-steps=-1" "explore lock --depth=-1"; do \
	  $(CCAL_BIN) $$a > /dev/null 2> _build/robust-range.txt; status=$$?; \
	  flag=$$(echo "$$a" | grep -Eo -- '--[a-z-]+'); \
	  if [ $$status -ne 2 ]; then \
	    echo "check-robust: REGRESSION - $$a exited $$status, expected 2"; exit 1; fi; \
	  grep -q -- "^$$flag .*: expected a" _build/robust-range.txt || { \
	    echo "check-robust: REGRESSION - $$a does not name $$flag"; exit 1; }; \
	done; \
	echo "check-robust: OK (out-of-range --budget-ms, --budget-steps and --depth exit 2 naming the flag)"

# The memory-model gate (DESIGN.md S29).  Three legs:
#   1. the litmus conformance suite: every reachable-outcome set must
#      equal the hand-derived x86-TSO table under both memory modes
#      (exit 1 on any extra or missing outcome);
#   2. the whole stack re-certifies under --memory tso (store buffers,
#      flusher moves, drain environments) for both lock implementations;
#   3. the dual-mode bench, run in _build/ so its BENCH_tso.json lands
#      there and not over the committed one.
check-tso: build
	$(CCAL_BIN) litmus all --table _build/litmus-table.txt
	$(CCAL_BIN) stack --memory tso
	$(CCAL_BIN) stack --memory tso --lock mcs
	cd _build && default/bench/main.exe --only tso

# The crash-safety gate (DESIGN.md S30).  Five legs:
#   1. the WAL and durable-kv edges certify crash refinement: every
#      schedule x crash point x (keep,tear) mask recovers to a
#      prefix-consistent state (exit 1 on any lost acked-synced op or
#      invented op);
#   2. warm cache and jobs {1,4} runs print bit-identical canonical
#      reports, not ending in an empty line, at the default suite and
#      at the certify-corpus configuration (3 threads, dpor:10); as in
#      check-cache, a third
#      run over the warm default store with --stats must print
#      "0 misses" and no schedules_run counter;
#   3. the deliberately unsynced WAL variant must FAIL, with the failure
#      naming a stable crash point (the negative control: if the
#      certifier ever waves it through, the gate is vacuous);
#   4. a 200-step budget exhausts inside durable-kv, and the partial
#      report lists only the completed wal edge;
#   5. a zero shard count exits 2 naming the flag.
CRASH_CHECK_DIR := _build/ccal-crash-cache-check
CRASH_CORPUS_DIR := _build/ccal-crash-corpus-check

check-crash: build
	@rm -rf $(CRASH_CHECK_DIR); \
	$(CCAL_BIN) crash --cache-dir $(CRASH_CHECK_DIR) --jobs 1 \
	  --report _build/crash-cold.txt || exit 1; \
	$(CCAL_BIN) crash --cache-dir $(CRASH_CHECK_DIR) --jobs 4 \
	  --report _build/crash-warm.txt || exit 1; \
	cmp _build/crash-cold.txt _build/crash-warm.txt || { \
	  echo "check-crash: REGRESSION - warm jobs=4 report differs from cold jobs=1"; exit 1; }; \
	$(call no_blank_last_line,_build/crash-cold.txt) || { \
	  echo "check-crash: REGRESSION - the report ends in an empty line"; exit 1; }; \
	echo "check-crash: OK (2 edges certified, cold/warm and jobs 1/4 reports identical)"
	@out=$$($(CCAL_BIN) crash --cache-dir $(CRASH_CHECK_DIR) --stats) || exit 1; \
	echo "$$out" | grep -q '^cache: [0-9]* hits, 0 misses,' || { \
	  echo "check-crash: REGRESSION - warm run missed the store ($$(echo "$$out" | grep '^cache:'))"; exit 1; }; \
	if echo "$$out" | grep -q 'schedules_run'; then \
	  echo "check-crash: REGRESSION - warm run replayed schedules"; exit 1; fi; \
	echo "check-crash: OK (warm --stats run: 0 misses, no schedule replayed)"
	@rm -rf $(CRASH_CORPUS_DIR); \
	$(CCAL_BIN) crash --threads 3 --strategy dpor:10 --cache-dir $(CRASH_CORPUS_DIR) \
	  --jobs 1 --report _build/crash-corpus-cold.txt > /dev/null || exit 1; \
	$(CCAL_BIN) crash --threads 3 --strategy dpor:10 --cache-dir $(CRASH_CORPUS_DIR) \
	  --jobs 4 --report _build/crash-corpus-warm.txt > /dev/null || exit 1; \
	cmp _build/crash-corpus-cold.txt _build/crash-corpus-warm.txt || { \
	  echo "check-crash: REGRESSION - threads 3 dpor:10 warm jobs=4 report differs from cold jobs=1"; exit 1; }; \
	echo "check-crash: OK (threads 3 dpor:10: cold jobs 1 and warm jobs 4 reports identical)"
	@out=$$($(CCAL_BIN) crash unsynced 2>&1); status=$$?; \
	if [ $$status -eq 0 ]; then \
	  echo "check-crash: REGRESSION - unsynced WAL variant certified"; exit 1; fi; \
	echo "$$out" | grep -q "crash-refinement failure" || { \
	  echo "check-crash: REGRESSION - unsynced failure not named"; exit 1; }; \
	echo "check-crash: OK (unsynced variant rejected: $$(echo "$$out" | grep 'crash-refinement failure' | head -1))"
	@out=$$($(CCAL_BIN) crash --budget-steps 200 --report _build/crash-exhausted.txt) || { \
	  echo "check-crash: REGRESSION - exhausted run did not exit 0"; exit 1; }; \
	echo "$$out" | grep -q "budget exhausted" || { \
	  echo "check-crash: REGRESSION - 200-step run finished (gate vacuous)"; exit 1; }; \
	grep -q "^  wal " _build/crash-exhausted.txt || { \
	  echo "check-crash: REGRESSION - completed wal edge missing from the partial report"; exit 1; }; \
	if grep -q "durable-kv" _build/crash-exhausted.txt; then \
	  echo "check-crash: REGRESSION - partial report lists the unfinished durable-kv edge"; exit 1; fi; \
	echo "check-crash: OK (200-step run exhausted; partial report lists only the completed wal edge)"
	@$(CCAL_BIN) crash --shards 0 > /dev/null 2> _build/crash-shards0.txt; status=$$?; \
	if [ $$status -ne 2 ]; then \
	  echo "check-crash: REGRESSION - crash --shards 0 exited $$status, expected 2"; exit 1; fi; \
	grep -q -- "--shards 0: expected a positive integer" _build/crash-shards0.txt || { \
	  echo "check-crash: REGRESSION - crash --shards 0 does not name the flag"; exit 1; }; \
	echo "check-crash: OK (crash --shards 0 rejected: $$(cat _build/crash-shards0.txt))"

# The symmetry-reduction gate (DESIGN.md S31).  Three legs:
#   1. depth-8 scaling: on the ticket game (4 threads, depth 8, events
#      independence) plain dpor:8 must exhaust a 150k-step budget while
#      dpor:8,sym completes inside it — and the same separation on the
#      symmetric kv game at a 1.5k-step budget;
#   2. invariance: the kv-sym verdict lines under dpor:8,sym are
#      byte-identical across CCAL_JOBS {1,4} (the replay of the symmetric
#      walk's prefixes runs on the pool at jobs 4).
#   3. soundness: on the lock game (3 threads, depth 5) dpor:5,sym must
#      agree with the exhaustive oracle — by inclusion, since the walk
#      keeps one log per symmetry orbit.
check-sym: build
	@out=$$($(CCAL_BIN) explore ticket --threads 4 --depth 8 --mode events \
	  --strategy dpor:8 --budget-steps 150000 --no-oracle); \
	echo "$$out" | grep -q "budget exhausted" || { \
	  echo "check-sym: REGRESSION - dpor:8 finished ticket 4t depth 8 inside 150k steps (gate vacuous)"; exit 1; }; \
	out=$$($(CCAL_BIN) explore ticket --threads 4 --depth 8 --mode events \
	  --strategy dpor:8,sym --budget-steps 150000 --no-oracle) || exit 1; \
	echo "$$out" | grep -q "complete" || { \
	  echo "check-sym: REGRESSION - dpor:8,sym exhausted the ticket 150k-step budget"; exit 1; }; \
	echo "check-sym: OK (ticket 4t depth 8:$$(echo "$$out" | grep 'schedules:'))"
	@out=$$($(CCAL_BIN) explore kv-sym --threads 4 --depth 8 --mode events \
	  --strategy dpor:8 --budget-steps 1500 --no-oracle); \
	echo "$$out" | grep -q "budget exhausted" || { \
	  echo "check-sym: REGRESSION - dpor:8 finished kv-sym 4t depth 8 inside 1.5k steps (gate vacuous)"; exit 1; }; \
	out=$$($(CCAL_BIN) explore kv-sym --threads 4 --depth 8 --mode events \
	  --strategy dpor:8,sym --budget-steps 1500 --no-oracle) || exit 1; \
	echo "$$out" | grep -q "complete" || { \
	  echo "check-sym: REGRESSION - dpor:8,sym exhausted the kv-sym 1.5k-step budget"; exit 1; }; \
	echo "check-sym: OK (kv-sym 4t depth 8:$$(echo "$$out" | grep 'schedules:'))"
	@CCAL_JOBS=1 $(CCAL_BIN) explore kv-sym --threads 4 --depth 8 --mode events \
	  --strategy dpor:8,sym --budget-steps 1500 --no-oracle > _build/sym-j1.txt || exit 1; \
	CCAL_JOBS=4 $(CCAL_BIN) explore kv-sym --threads 4 --depth 8 --mode events \
	  --strategy dpor:8,sym --budget-steps 1500 --no-oracle > _build/sym-j4.txt || exit 1; \
	cmp _build/sym-j1.txt _build/sym-j4.txt || { \
	  echo "check-sym: REGRESSION - kv-sym verdict differs across jobs 1/4"; exit 1; }; \
	echo "check-sym: OK (kv-sym verdict identical across jobs 1/4)"
	@out=$$($(CCAL_BIN) explore lock --threads 3 --depth 5 --strategy dpor:5,sym) || { \
	  echo "$$out"; echo "check-sym: REGRESSION - dpor:5,sym lock disagrees with the oracle"; exit 1; }; \
	echo "$$out" | grep -q "agree under sym" || { \
	  echo "check-sym: REGRESSION - dpor:5,sym lock comparison is not inclusion"; exit 1; }; \
	echo "check-sym: OK (lock 3t depth 5: dpor:5,sym logs are a subset of the oracle's)"

# Build and run every example as a smoke test (the CI examples step).
examples: build
	dune exec examples/quickstart.exe
	dune exec examples/ticket_vs_mcs.exe
	dune exec examples/producer_consumer.exe
	dune exec examples/kernel_sim.exe

# The parallel-checking gate (DESIGN.md S24): the same verdicts must come
# out of the sequential oracle and the 4-domain pool.  CI runs `check`
# under both via the CCAL_JOBS matrix; this is the local one-shot.
check-parallel:
	CCAL_JOBS=1 dune exec bin/ccal_cli.exe -- explore lock --threads 3 --depth 5
	CCAL_JOBS=4 dune exec bin/ccal_cli.exe -- explore lock --threads 3 --depth 5
	dune exec bin/ccal_cli.exe -- stack --strategy dpor:4 --jobs 4

explore:
	dune exec bin/ccal_cli.exe -- explore lock --threads 3 --depth 5
	dune exec bin/ccal_cli.exe -- explore queue --threads 2 --depth 4
	dune exec bin/ccal_cli.exe -- explore queue-atomic --threads 3 --depth 4 --mode events

bench:
	dune exec bench/main.exe

clean:
	dune clean
