GO ?= go

# Packages with parallel stages or shared caches; `make check` runs these
# under the race detector in addition to the normal test sweep. internal/ilp
# is here for the speculative branch-and-bound workers (the determinism
# tests assert bit-identical trees at Workers=1,2,4,8 under -race).
RACE_PKGS = ./internal/parallel ./internal/selection ./internal/signal \
            ./internal/wdm ./internal/optics/bpm ./internal/obs \
            ./internal/serve ./internal/ilp .

.PHONY: check test race vet docs-lint serve-smoke bench trace-smoke bench-compare bench-alloc bench-scale bench-speedup load-smoke load-compare eco-smoke dup-smoke perfbench-check fuzz-smoke

check: vet docs-lint test race

# gofmt -l prints every file whose formatting differs; any output fails.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Enforce 100% doc-comment coverage on the public surface of the flow
# package and the solver substrate (see cmd/docscheck for the audited set).
docs-lint:
	$(GO) vet ./...
	$(GO) run ./cmd/docscheck

# Boot operond in-process, solve one benchmark over real HTTP under a 1 ms
# budget, and assert the response is degraded but valid (the ladder's
# electrical floor observed end to end).
serve-smoke:
	$(GO) run ./cmd/operond -smoke

test:
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Emit the machine-readable benchmark report (BENCH_<date>.json).
bench:
	$(GO) run ./cmd/bench

# Produce a Chrome trace of a small benchgen case and validate it against
# the trace-event schema. -min-lanes is 1, not the worker count: lanes
# reflect actual goroutine scheduling, and a single-CPU runner funnels the
# whole pool through one lane.
trace-smoke:
	$(GO) run ./cmd/operon -bench I1 -workers 4 -trace /tmp/operon-trace-smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck -stages -min-lanes 1 /tmp/operon-trace-smoke.json

# Diff the two newest BENCH_*.json reports; fails on a >10% regression of
# a guarded solver counter (LP pivots, MCMF augmentations, branch-and-bound
# nodes) or of any benchmark's allocation profile (allocs/op, bytes/op,
# above an absolute floor that exempts tiny entries).
bench-compare:
	$(GO) run ./cmd/benchcmp

# Allocation-regression smoke: re-measure the suite in quick mode (single
# benchmark iterations — wall-clock numbers are noise, allocation profiles
# are not) and gate it against the newest committed report. CI runs this on
# every push so hot-path allocation churn cannot land silently. The mega
# cases are excluded here (bench-scale owns them).
bench-alloc:
	$(GO) run ./cmd/bench -quick -mega none -out /tmp/operon-bench-alloc.json
	$(GO) run ./cmd/benchcmp $$(ls BENCH_*.json | sort | tail -1) /tmp/operon-bench-alloc.json

# Scale-frontier smoke: run the I6 mega case (~20k nets, 6 cm die) end to
# end — flow plus the exact-ILP slice under a tight node budget — so the
# 10^5-column path stays exercised on every push without mega-benchmark
# wall-clock cost.
bench-scale:
	$(GO) run ./cmd/bench -quick -mega I6 -mega-nodes 256 -out /tmp/operon-bench-scale.json

# Parallel-speedup gate for multicore runners: only the worker-pool pairs
# run (flow, LR pricing, deterministic parallel B&B), three iterations each,
# and each parallel path must actually beat its sequential twin. On a
# single-core machine the gate skips with a notice — the comparison would
# measure pool overhead, not parallelism.
bench-speedup:
	$(GO) run ./cmd/bench -speedup-only -benchtime 3x -min-par-speedup 1.05 -out /tmp/operon-bench-speedup.json

# SLO gate: replay a deterministic request mix (hot-key skew, bursts, mixed
# budgets) against the in-process serving stack and fail when client-observed
# p50/p95/p99 latency or the error rate regress beyond generous thresholds
# against the newest committed LOAD_*.json baseline. The *.tmp report path is
# gitignored, so CI never dirties the tree.
load-smoke:
	$(GO) run ./cmd/loadgen -requests 40 -check -out LOAD_smoke.json.tmp

# Fuller local run against the committed baseline: same gate, more requests,
# report left beside the baseline for inspection (still gitignored). The dup
# leg replays the duplicate-heavy mix against its own baseline and addition-
# ally gates the absolute dedup win: >= 5x fewer solves than items at the
# mix's 10:1 duplicate ratio, with bit-identical deduplicated payloads.
load-compare:
	$(GO) run ./cmd/loadgen -requests 120 -check -out LOAD_compare.json.tmp
	$(GO) run ./cmd/loadgen -mix dup -requests 120 -check -min-reduction 5 -min-cache-hits 1 -out LOAD_compare-dup.json.tmp

# Incremental re-synthesis smoke: a tiny concurrent edit-loop (sticky
# sessions, one-pin moves, full-reuse probes) against the in-process server.
# Any request error fails the gate; the session path must stay clean under
# concurrency.
eco-smoke:
	$(GO) run ./cmd/loadgen -mix eco -requests 24 -sessions 3 -max-errors 0 -no-write

# Dedup smoke: replay the duplicate-heavy mix (singles + /solve/batch,
# hot-key skew over six distinct instances) and gate the content-addressed
# serving win — at least 5x fewer solves executed than items issued, at
# least one result-cache hit, zero errors, zero payload mismatches (replayDup
# fails the run itself on any differential mismatch).
dup-smoke:
	$(GO) run ./cmd/loadgen -mix dup -requests 40 -min-reduction 5 -min-cache-hits 1 -max-errors 0 -no-write

# perfbench/ is a separate Go module (it pins go 1.24 and replaces operon
# with this checkout), so neither `go build ./...` nor `make check` compiles
# it. Vet and test it here so an API change that breaks the benchmark fails
# a gate instead of landing silently.
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test .

# Fuzz smoke: run the native fuzz targets briefly on top of their committed
# seed corpora (testdata/fuzz/). A failing input is written back to the
# corpus directory, so a CI failure leaves a reproducer in the log.
fuzz-smoke:
	$(GO) test ./internal/wdm -run '^$$' -fuzz '^FuzzAssignMatchesMonolithic$$' -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzCountCrossings$$' -fuzztime 10s
