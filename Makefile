GO ?= go

.PHONY: build test race vet lint lint-json fuzz fuzz-smoke bench bench-obs bench-obs-smoke bench-serve bench-serve-smoke bench-wire bench-wire-smoke bench-segment bench-segment-smoke chaos-smoke spinebench-test verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# order-dependent tests surface instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# lint is the repo-specific determinism & concurrency pass — the
# determinism analyzers (norawtime, noglobalrand, floateq,
# uncheckederr, ctxpropagate, storeappend) plus the flow-aware set
# built on the internal CFG (spanend, goroutineleak, lockheld,
# frameexhaustive, metricname; DESIGN.md §13). Findings exit nonzero;
# grandfathered counts live in lint.baseline (currently empty).
lint:
	$(GO) run ./cmd/cloudyvet ./...

# lint-json is the CI-facing variant: same run, findings as a JSON
# array for the GitHub annotation step.
lint-json:
	$(GO) run ./cmd/cloudyvet -json ./...

race:
	$(GO) test -race -shuffle=on ./...

# Short fuzz pass over the text and binary codecs (regression corpus +
# 10s each).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzImportPings -fuzztime=10s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzImportTraces -fuzztime=10s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzReadPingsCSV -fuzztime=10s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzReadTracesJSONL -fuzztime=10s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wirecodec/
	$(GO) test -run=NONE -fuzz=FuzzSegmentDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/segment/
	$(GO) test -run=NONE -fuzz=FuzzSketchMerge -fuzztime=10s -fuzzminimizetime=1x ./internal/sketch/

# fuzz-smoke is the pre-merge slice of the fuzz pass: 2s per codec
# target, enough to replay the corpus and shake out shallow regressions
# on every verify run. The segment/sketch targets cap minimization at
# one exec: their seeds are whole ~100 KB segment images, and default
# minimization would stall for a minute per interesting input.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzImportPings -fuzztime=2s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzImportTraces -fuzztime=2s ./internal/atlasfmt/
	$(GO) test -run=NONE -fuzz=FuzzReadPingsCSV -fuzztime=2s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzReadTracesJSONL -fuzztime=2s ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzWireDecode -fuzztime=2s ./internal/wirecodec/
	$(GO) test -run=NONE -fuzz=FuzzSegmentDecode -fuzztime=2s -fuzzminimizetime=1x ./internal/segment/
	$(GO) test -run=NONE -fuzz=FuzzSketchMerge -fuzztime=2s -fuzzminimizetime=1x ./internal/sketch/

# Full benchmark suite with allocation stats, including the store
# fan-out/merge and the serve cached-vs-cold comparison.
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Observability overhead: the full spine (campaign → feed → seal) bare
# vs instrumented. Reference numbers live in BENCH_obs.json; the
# instrumented run must stay within ~5% of the bare one.
bench-obs:
	$(GO) test -run=NONE -bench=BenchmarkObsOverhead -benchtime=5x -count=3 ./internal/obs/

# CI smoke slice: one iteration per case, just proving the instrumented
# spine runs end to end.
bench-obs-smoke:
	$(GO) test -run=NONE -bench=BenchmarkObsOverhead -benchtime=1x ./internal/obs/

# Serving-path latency under load: the loadgen harness sweeps
# concurrency levels against an in-process server, hedging off vs on,
# over a cache-busting endpoint mix. Reference numbers (p99 vs
# concurrency) live in BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/cloudy loadgen -scale 0.05 -cycles 2 -clients 8,64,256 -requests 200 -out BENCH_serve.json

# CI smoke slice: one small cell per hedge mode, just proving the
# harness drives the admission/hedging/swap stack end to end.
bench-serve-smoke:
	$(GO) run ./cmd/cloudy loadgen -scale 0.02 -cycles 1 -clients 8 -requests 25

# Wire codec vs NDJSON on real campaign records; the acceptance floor
# is a 2x encode+decode speedup. Reference numbers live in
# BENCH_wire.json.
bench-wire:
	$(GO) run ./cmd/cloudy benchwire -scale 0.02 -cycles 1 -iters 5 -out BENCH_wire.json

# CI smoke slice: one pass per codec, no report file.
bench-wire-smoke:
	$(GO) run ./cmd/cloudy benchwire -scale 0.02 -cycles 1 -iters 1

# Columnar segment format vs the in-memory streaming build it
# complements: build/write/mmap-open timing, per-endpoint query latency
# exact vs sketch, the 100x single-group sketch probe (must stay
# sub-ms) and sketch-vs-exact error quantiles. Reference numbers live
# in BENCH_segment.json; the streaming-build baseline lives in
# BENCH_streaming.json.
bench-segment:
	$(GO) run ./cmd/cloudy benchsegment -rows 200000 -iters 9 -out BENCH_segment.json

# CI smoke slice: small row count, two reps per cell, no report file —
# just proving write → mmap → every endpoint answers in both modes.
bench-segment-smoke:
	$(GO) run ./cmd/cloudy benchsegment -rows 20000 -iters 2

# Worker-kill chaos test under the race detector: one worker of three
# dies mid-stream, its shard must be reassigned and the merged store
# must seal bit-identical to the single-process run.
chaos-smoke:
	$(GO) test -race -run 'TestChaosWorkerKilledMidSweep|TestChaosWindowedReplay' -count=1 ./internal/cluster/

# The spine benchmark is its own module (spinebench/go.mod), so the
# root `go test ./...` never builds it. This runs its tests against the
# current internal/ packages, so an API change that breaks the
# benchmark fails here instead of at benchmark time.
spinebench-test:
	cd spinebench && $(GO) test .

# verify is the pre-merge gate: generic static analysis (vet), the
# repo-specific determinism/concurrency lint (cloudyvet), the full
# shuffled suite under the race detector, and a fuzz smoke pass over
# the codec corpus.
verify: vet lint race fuzz-smoke
