GO ?= go

.PHONY: check vet build test race cover loc loc-gate golden-trace bench-smoke chaos par-check cluster-smoke scale-smoke sortdiffs diffcodec observe fuzz-sortdiffs metrics-gate diff-backends metrics-baseline scale-baseline teardown-stress

## check: the pre-commit gate (.github/workflows/ci.yml runs these same
## targets, one step each) — vet,
## build, race-test everything, verify the golden trace, a
## one-iteration pass over every benchmark so the perf kernels
## stay honest, the chaos suite under fault injection, the
## windowed-engine determinism guard,
## the multi-process cluster smoke against the simulator oracle, the
## 256-node scale smoke, the diff-order differential tests, the diff
## codec's differential tests and allocation caps, the observation
## path's differential tests and allocation caps, the metrics
## regression gate against the committed baseline, the sim-vs-real
## counter-equivalence gate, the rt teardown stress, the per-package
## coverage floors, and the line budget. Host-time performance is
## `go run ./bench` (bench/README.md), judged per PR against the parent
## commit.
check: loc-gate vet build race golden-trace bench-smoke chaos par-check cluster-smoke scale-smoke sortdiffs diffcodec observe metrics-gate diff-backends teardown-stress cover
	@echo "check: OK"

## vet: go vet, and gofmt must have nothing to reformat.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## cover: per-package coverage floors (internal/core, internal/check,
## internal/sim, internal/trace, internal/memsim, internal/rt).
## Fails if statement coverage drops below the baselines recorded in
## scripts/cover_gate.sh; raise a floor there when coverage rises.
cover:
	./scripts/cover_gate.sh

## golden-trace: the protocol event-order regression oracle. Regenerate
## with `go test ./internal/trace -run TestGoldenTrace -update` only for
## intentional protocol or exporter changes.
golden-trace:
	$(GO) test ./internal/trace -run TestGoldenTrace

## loc: non-test Go lines per package and in total — the table every
## CHANGES.md entry records as parent → now.
loc:
	@./scripts/loc.sh

## loc-gate: fail when that total exceeds the one number in
## scripts/loc_budget, or README.md, DESIGN.md or EXPERIMENTS.md its line
## cap in scripts/doc_budget. A PR that shrinks the tree or a document
## sets the budget to its own total, so the size target ratchets instead
## of being re-counted.
loc-gate:
	@./scripts/loc_gate.sh

## bench-smoke: run each benchmark exactly once. Catches benchmarks that
## panic or assert-fail without paying for stable timings.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

## chaos: the fault-injection suite — every app across the drop-rate
## table plus the fixed-corpus schedule fuzzer, all with the protocol
## invariant checker attached. Failures write violation reports into
## chaos-artifacts/.
chaos:
	CHAOS_ARTIFACT_DIR=chaos-artifacts $(GO) test ./internal/chaos ./internal/check -count=1

## par-check: the engines' determinism guard — byte-identical
## checksums, run statistics, metrics reports, and Chrome traces across
## engine-workers 1, 2, and 4, fault-free and under a fuzzed fault
## schedule, and across the sequential engine's run-ahead bounds 0, half
## the lookahead and the lookahead (seven apps x LRC, SW, a fault
## plan, a 1 ms switch x 4x2, 8x1, 8x4; every probe traced and bare),
## plus the chaos engine-workers axis (sequential vs windowed
## under random fault plans with the invariant checker attached), and
## the engine's own windowed tests at GOMAXPROCS 1, 2 and 4, so the
## window barrier runs spinning, parked and oversubscribed.
par-check:
	$(GO) test ./internal/harness -run 'TestGuardDeterminism' -count=1
	$(GO) test ./internal/chaos -run TestEngineWorkersUnderChaos -count=1
	$(GO) test -cpu 1,2,4 ./internal/sim -run 'Windowed|Livelock|Futile' -count=1

## cluster-smoke: boot a real 4-process cvm-node cluster (TCP data mesh
## on loopback) for sor and waternsq at test scale; the coordinator's
## -oracle requires an exact checksum match against the deterministic
## simulator. Proves the real-transport backend end to end.
cluster-smoke:
	./scripts/cluster_smoke.sh

## scale-smoke: one 256-node scaleout run — checksum-identical to the
## sequential engine, byte-identical across windowed worker counts —
## proving the sparse page directory and bitset copysets far past the
## paper grid's cluster sizes; then scaleout at small size on
## 42/48/64/128/256 nodes × 2/3/4 threads under the invariant checker on
## the windowed engine, the shapes that lost a lock-guarded update while
## node 0 applied barrier arrivals before its own (about 15 s on 2 cores).
scale-smoke:
	$(GO) test ./internal/harness -run 'TestScaleSmoke|TestRunScaleStudy' -count=1
	@bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/cvm-run" ./cmd/cvm-run || exit 1; \
	for n in 42 48 64 128 256; do for t in 2 3 4; do \
		echo "== scale-smoke: scaleout $${n}x$$t small -check -engine-workers 2"; \
		"$$bin/cvm-run" -app scaleout -nodes $$n -threads $$t -size small -check -engine-workers 2 >/dev/null || exit 1; \
	done; done

## sortdiffs: the many-writer fault path is pinned — the diff order's
## properties (a permutation of the input, a linear extension of
## happens-before, independent of the arrival order) on random histories,
## scaleout-shaped 192-node faults and the fuzz seed corpus, the pinned
## orders, the steady-state allocation check and the event queue's
## differential tests against the replaced heap, under the race
## detector; then the allocation caps of a fault and a barrier release
## (not built under -race) and the run statistics of scaleout 192x1 and
## 48x3 small at engine workers 0 and 2 against
## internal/apps/testdata/manywriter.golden. The order fixes every virtual
## time after a many-writer fault, so a change here moves the golden
## trace too.
sortdiffs:
	$(GO) test ./internal/core -run 'SortDiffs' -count=1 -race
	$(GO) test ./internal/sim -run 'EventQueue' -count=1 -race
	$(GO) test ./internal/core -run 'ManyWriterAllocCaps' -count=1
	$(GO) test ./internal/apps -run 'ManyWriterGolden' -count=1

## diffcodec: the diff codec is pinned — the run scanner against a byte
## loop in both senses, MakeDiff against the byte-at-a-time scan,
## EncodeRuns, EncodedRunsSize and EncodeDiff against the replaced
## four-pass encoder, and ApplyRuns and DecodeRuns against the replaced
## decoder on every truncation and byte flip, and a diff's one
## pointer-free block (no pointer in a Run, its bytes alive through
## collections, a hand-built []Run unreadable) under the race detector,
## whose checkptr vouches for the block's byte view; then the codec's
## allocation caps (EncodeDiff the payload alone, ApplyRuns nothing), a
## diff's byte cap (4-byte run headers) and a node's page buffers, one
## allocation each (not built under -race), the real runtime's (a
## flushed diff 4 objects, not built under -race), its bad-frame table,
## and the traffic invariants of the seven applications on loopback —
## the wire bytes did not move.
diffcodec:
	$(GO) test ./internal/core -run 'RunScan|RunLayout|MakeDiffMatches|EncodeMatches|ApplyMatches|DecodeMatches|WirePattern' -count=1 -race
	$(GO) test ./internal/core -run 'CodecAllocCaps|RunLayoutBytesCap|PageBuffersOneAllocationEach' -count=1
	$(GO) test ./internal/rt -run 'FaultAndFlushAllocCaps|BadFrames|TrafficInvariants' -count=1

## observe: the observation path is pinned — the trace order (per-ring
## repair and a merge of the ring heads) against the replaced sort on
## recorded runs, a reversed ring, all-tied, mostly empty, wrapped and
## negative-time streams, every export against the fmt-based writer, and
## the checker against the map-based one it replaced on the seven
## applications, scaleout and streams that break each
## invariant; then the export's allocation caps, the packed rings' round
## trip at every field's extremes and their bytes an event on recorded
## runs. All under the race detector.
observe:
	$(GO) test ./internal/trace -run 'MatchesReference|Order|OpenTail|AllocCaps|Packed' -count=1 -race
	$(GO) test ./internal/check -run 'MatchesReference|FinishReport' -count=1 -race

## fuzz-sortdiffs: let the fuzzer write protocol histories for 30 s and
## check the diff order's properties on each. A failing input lands in
## internal/core/testdata/fuzz and then runs with the ordinary tests.
fuzz-sortdiffs:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSortDiffsLinearExtension -fuzztime 30s

## scale-baseline: regenerate the committed BENCH_scaleout.json scaling
## study (8 to 1024 nodes at paper size; under a minute on 2 cores). The
## header records the host's cores and GOMAXPROCS beside each point's
## host_seconds.
scale-baseline:
	$(GO) run ./cmd/cvm-bench -experiment scaleout -size paper -scale-json BENCH_scaleout.json

## metrics-gate: re-run the baseline workload and diff its metrics
## report against the committed BASELINE_metrics.json. The simulator is
## deterministic and the report byte-deterministic, so any changed byte —
## a count, a latency, a key — fails. Regenerate intentionally with
## `make metrics-baseline` after protocol or calibration changes. The
## fresh metrics_current.json (git-ignored) stays for CI to upload.
metrics-gate:
	$(GO) run ./cmd/cvm-run -app waternsq -nodes 4 -threads 2 -size test -metrics metrics_current.json >/dev/null
	diff -u BASELINE_metrics.json metrics_current.json

## diff-backends: the sim-vs-real counter-equivalence gate. Run sor and
## waternsq at 4x2 on both backends — the deterministic simulator and
## the real runtime over the in-process loopback transport — and require
## every backend-invariant sync counter (lock acquires/releases, barrier
## and local-barrier arrivals, reductions) to match exactly. Wall-time
## histograms are reported side by side, never gated: the two backends
## measure different machines. Then the simulator's invariant checker
## audits the loopback runs' event streams (lock exclusion, barrier and
## local-barrier epochs, diff uniqueness).
diff-backends:
	@for app in sor waternsq; do \
		echo "== diff-backends: $$app 4x2 =="; \
		$(GO) run ./cmd/cvm-run -app $$app -nodes 4 -threads 2 -size test -metrics sim_$$app.json >/dev/null || exit 1; \
		$(GO) run ./cmd/cvm-run -transport loopback -app $$app -nodes 4 -threads 2 -size test -metrics real_$$app.json >/dev/null || exit 1; \
		$(GO) run ./cmd/cvm-metrics diff-backends sim_$$app.json real_$$app.json || exit 1; \
		rm -f sim_$$app.json real_$$app.json; \
	done
	$(GO) test ./internal/rt -run TestCheckerOnLoopback -count=1

## metrics-baseline: regenerate the committed metrics-gate baseline.
metrics-baseline:
	$(GO) run ./cmd/cvm-run -app waternsq -nodes 4 -threads 2 -size test -metrics BASELINE_metrics.json >/dev/null

## teardown-stress: a node that finishes first closes its mesh while
## peers still wait on other streams. 200 runs of the TCP cluster test
## and the transport's goodbye tests under the race detector, at 1, 2
## and 8 Ps — a node that said goodbye must never read as a dead peer.
teardown-stress:
	$(GO) test ./internal/rt ./internal/transport -run 'TestRunNodeTCP|Goodbye' -race -count=200 -cpu 1,2,8
