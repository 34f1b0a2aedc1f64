.PHONY: all build test lint selfcheck check bench bench-smoke alloc-smoke observe-smoke graph-smoke scale-smoke flight-smoke bench-guard clean

all: build

build:
	dune build @all

test:
	dune runtest

lint:
	dune build @lint

selfcheck:
	dune build @selfcheck

# Everything CI runs: build + tests (incl. lint) + determinism
# selfcheck with the ownership oracle armed + a quick wall-clock bench
# whose output schema is validated.
check:
	dune build @check
	$(MAKE) bench-smoke
	$(MAKE) alloc-smoke
	$(MAKE) observe-smoke
	$(MAKE) graph-smoke
	$(MAKE) scale-smoke
	$(MAKE) flight-smoke
	$(MAKE) bench-guard

bench:
	dune exec bench/main.exe

# Quick wall-clock run (full 10k-conn churn, shortened echo) + a
# determinism selfcheck. The bench re-parses the JSON it wrote and runs
# the wallclock schema from bench/compare.ml on it, exiting 1 on a
# malformed file or a missing key. Output lands in the git-ignored out/
# tree (the path is an explicit --out argument).
bench-smoke:
	mkdir -p out
	dune exec bench/main.exe -- wallclock quick --out out/BENCH_pr6.json
	dune build @selfcheck

# Demialloc end to end: dlint over the tree (which now includes the
# alloc-in-hotpath pass), then the determinism selfcheck with the
# gc-budget oracle armed — every libOS flavor must report measured
# steady polls (>0) with zero allocation violations.
alloc-smoke:
	mkdir -p out
	dune exec bin/dlint.exe -- lib
	dune exec bin/demi.exe -- selfcheck | tee out/alloc_smoke.txt
	@for f in catnip catnap catmint; do \
	  grep -Eq "gc-budget $$f +steady_polls=[1-9][0-9]* violations=0" out/alloc_smoke.txt \
	    || { echo "alloc-smoke: $$f has no measured steady polls or has violations" >&2; exit 1; }; \
	done
	@echo "alloc-smoke: OK (all flavors steady-poll allocation-free)"

# The observer-effect gate, one for every recorder: per libOS, the bare
# echo (lossless and at 5% loss), then spans, pcap capture, the flight
# ring, the timeline sampler, the SLO watchdog and all of them together,
# then the causal txnstore and relay scenarios recording vs not. Every
# armed run must match its bare run's trace digest and exact latency
# sequence, and every artifact it produced (Chrome JSON, breakdown sum,
# pcap, flight ring, timeline grid, critical paths, fleet profile) must
# validate. `demi observe --check` exits 1 on any FAIL line.
observe-smoke:
	dune exec bin/demi.exe -- observe --check
	@echo "observe-smoke: OK"

# Demideep end to end: dlint over the tree with the call-graph export
# and pass timings on. Fails unless the DOT file is a well-formed
# digraph with at least one edge and the machine-readable findings
# report landed in out/lint.json.
graph-smoke:
	mkdir -p out
	dune exec bin/dlint.exe -- --graph out/callgraph.dot --stats lib
	@head -1 out/callgraph.dot | grep -q '^digraph dlint' \
	  || { echo "graph-smoke: out/callgraph.dot missing digraph header" >&2; exit 1; }
	@tail -1 out/callgraph.dot | grep -q '^}' \
	  || { echo "graph-smoke: out/callgraph.dot not closed" >&2; exit 1; }
	@grep -q ' -> ' out/callgraph.dot \
	  || { echo "graph-smoke: out/callgraph.dot has no edges" >&2; exit 1; }
	@test -s out/lint.json \
	  || { echo "graph-smoke: out/lint.json missing or empty" >&2; exit 1; }
	@echo "graph-smoke: OK"

# Demiscale end to end: a 1k-connection open-loop Poisson/Zipf run
# through the TCB arena (`bench -- scale quick`). The bench re-parses
# the JSON it wrote and runs the scale schema from bench/compare.ml on
# it, which also requires measured steady polls, zero gc-budget
# violations, zero pool sanitizer errors and the per-hop attribution
# split in every band; it exits 1 on any failure.
scale-smoke:
	mkdir -p out
	dune exec bench/main.exe -- scale quick --out out/BENCH_pr10_smoke.json
	@echo "scale-smoke: OK"

# Demiflight end to end: (1) `demi slo` with seeded loss injection —
# the watchdog must capture an outlier whose breakdown sums exactly to
# its latency, and the dumped Chrome-trace fragment must pass the
# structural validator; (2) `demi table5 --tail` — every quantile
# band's component sums must be exact. Both commands exit 1 on any
# violation. (The flight ring's observer-effect check is observe-smoke's.)
flight-smoke:
	mkdir -p out
	dune exec bin/demi.exe -- slo --flavor catnip --expect-breach --out out/slo-catnip.json
	dune exec bin/demi.exe -- table5 --tail --tail-count 96
	@echo "flight-smoke: OK"

# The benchmark-artifact guard: every committed BENCH_pr*.json must
# parse, match its family schema (incl. exact attribution sums and
# zero gc-poll/pool violations), and show no >1.5x quantile or GC
# regression between consecutive same-mode artifacts.
bench-guard:
	dune exec bench/main.exe -- compare

clean:
	dune clean
	rm -rf out
