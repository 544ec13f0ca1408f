# Local development targets. `make check` is the tier-1 gate plus the
# race sweep — run it before sending changes.

GO ?= go

.PHONY: build test race vet check bench bench-ab experiments obs-smoke corpus-smoke engine-smoke bpartd-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector. The exper golden tests run
# 8-worker sweeps over shared caches, so this is the executor's
# concurrency audit, not just a recompile.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# One traced golden run: exercises -trace/-stats/-manifest end to end on
# the T1 sweep (the golden test separately pins that tracing never moves
# a byte of the table). Artifacts land in /tmp for inspection.
obs-smoke:
	$(GO) run ./cmd/experiments -table 1 -j 8 \
		-trace /tmp/binpart-t1-trace.jsonl \
		-manifest /tmp/binpart-t1-manifest.json \
		-stats >/dev/null

# A slice of the generated-program differential corpus under the race
# detector: 120 switch-shaped programs through the full flow at -j 8,
# every one checked against the reference simulator and cold-vs-warm
# cache. The command exits nonzero on any mismatch or a recovery rate
# below 99%. The summary lands in /tmp for inspection.
corpus-smoke:
	$(GO) run -race ./cmd/experiments -corpus 120 -j 8 \
		-corpus-out /tmp/binpart-corpus-summary.json >/dev/null

# The simulator engine differential: every suite benchmark at -O0..-O3
# through the reference, block, and fused engines as multi-core batches,
# bit-identity checked down to the profile maps. Exits nonzero on any
# divergence; the stats artifact (wall times, fusion counters) lands in
# /tmp for inspection.
engine-smoke:
	$(GO) run ./cmd/experiments -engines -j 8 \
		-fusion-out /tmp/binpart-engines.json >/dev/null

# The partitioning daemon end to end over a real process: priced
# partition + streamed sweep over HTTP, ops /metrics scrape, sustained
# load above 1000 req/s on the warm Analysis cache, then SIGTERM under
# load asserting the clean-drain contract (exit 0, reconciled trace,
# un-interrupted manifest, addr files removed). Artifacts land in
# /tmp/binpart-bpartd.
bpartd-smoke:
	sh scripts/bpartd-smoke.sh

check: vet build test race obs-smoke corpus-smoke engine-smoke bpartd-smoke

# Runs every benchmark and distills the results (per-stage ns/op plus the
# T1 headline custom metrics) into BENCH.json via cmd/benchjson. The text
# output still streams to the terminal. The committed BENCH.json is
# snapshotted first and used as the regression baseline: a >10% Stage*
# regression fails the target (allocs/op always; ns/op only on the same CPU).
# -count=3 with benchjson keeping the per-benchmark minimum damps shared-host
# timing noise; allocs/op is exact regardless.
bench:
	@if [ -f BENCH.json ]; then cp BENCH.json .bench-baseline.json; fi
	$(GO) test -run NONE -bench . -benchmem -count 3 . | $(GO) run ./cmd/benchjson -o BENCH.json -baseline .bench-baseline.json
	@rm -f .bench-baseline.json

# Same-host A/B of the end-to-end benchmark (perfbench) against a base
# revision from local git history: alternating pairs, each run printed
# with its host steal share, then per-metric medians, quartiles and win
# counts. Example: make bench-ab BASE=HEAD~1 WORKLOAD=suite-cold PAIRS=10
WORKLOAD ?= suite-cold
PAIRS ?= 10
SEED ?= 21
bench-ab:
	bash scripts/perfbench-ab.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"

experiments:
	$(GO) run ./cmd/experiments -j 8 -cachestats
