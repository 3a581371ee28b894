# Levioso simulator build/test entry points. The repo is stdlib-only Go, so
# these are thin wrappers the CI and the verify flow share.

GO ?= go

.PHONY: all build vet test race bench golden gate smoke obssmoke chaossmoke netchaossmoke fuzzsmoke campaignsmoke attacksmoke replay ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector — the concurrent sweep
# supervisor and the shared-program immutability guarantee are checked here.
race:
	$(GO) test -race ./...

# bench runs the full benchmark suite and appends a timestamped simulator
# hot-loop report (sim cycles/sec, allocs per committed instruction, ns per
# simulated cycle) to the BENCH_cpu.json trajectory, so the file records
# every measured point instead of only the latest.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ -benchjson BENCH_cpu.json .

# benchsmoke is the CI performance gate: a quick hot-loop measurement
# compared against the newest committed BENCH_cpu.json entry, failing on a
# >20% suite-mean sim-cycles/s regression (cell-best reduction, see
# cmd/benchguard, to keep shared-machine noise out of the verdict).
# BenchmarkBatch — the suite on an Inproc dispatch coordinator — rides
# along so a break on that path fails here too; benchguard judges only
# BenchmarkHotLoop.
benchsmoke:
	$(GO) test -bench='BenchmarkHotLoop|BenchmarkBatch' -benchtime=3x -run=^$$ \
		-benchjson .bench_smoke.json .
	$(GO) run ./cmd/benchguard -baseline BENCH_cpu.json -candidate .bench_smoke.json
	rm -f .bench_smoke.json

# golden re-runs the workload-characterization experiment at reference scale
# and diffs it byte-for-byte against the checked-in levbench_ref_output.txt.
# The charact table carries exact cycle/IPC/mispredict/miss counts for every
# workload, so any change to the simulator's timing model shows up here.
# It first runs the full pinned-results matrix (every suite kernel under
# every policy configuration, coverage on and off, against
# internal/secure/testdata/sweep_stats.golden, with the policy Decide
# contract checked), without -race so all twelve kernels run, and then
# diffs all ten experiments at test scale (levbench -size test, including
# the ROB, mispredict and BDT sweeps on non-default cores) against
# testdata/levbench_test_output.txt.
golden:
	$(GO) test -count=1 -run TestSweepStatsPinned ./internal/secure
	$(GO) test -count=1 -run TestLevbenchTestGolden .
	$(GO) run ./cmd/levbench -exp charact -size ref > .golden_charact.out
	awk '/^==> experiment charact$$/{f=1;next} /^==> experiment /{f=0} f' \
		levbench_ref_output.txt | diff - .golden_charact.out
	rm -f .golden_charact.out
	@echo "golden charact sweep: byte-identical"

# gate enforces the engine layering: every cmd/ main is a thin adapter over
# internal/engine, so none may wire internal/cpu or internal/secure directly.
gate:
	@if grep -rnE '"levioso/internal/(cpu|secure)"' cmd/; then \
		echo "FAIL: cmd/ must not import internal/cpu or internal/secure (build on internal/engine)"; \
		exit 1; \
	fi
	@echo "import gate: cmd/ builds exclusively on internal/engine"

# smoke drives the levserve daemon end to end under -race: start, POST a
# simulate request, assert the identical second request is a cache hit,
# coalesce concurrent identical requests onto one simulation (single-flight),
# answer a reference-model request over the wire protocol byte-identical to
# an in-process one, prove a client disconnect cancels an in-flight run
# without wedging the worker pool, and shut down cleanly.
smoke:
	$(GO) test -race -run 'TestServeSmoke|TestServeClientCancel|TestServeSimulateSingleFlight|TestServeRefOverPipe' ./internal/serve

# obssmoke is the observability gate: boot levserve, run one simulate,
# scrape GET /metrics and fail on unparseable Prometheus exposition lines or
# missing required families (per-stage engine histograms, per-route serve
# counters), then assert every failure status renders the unified
# {"error":{kind,message,retryable}} envelope.
obssmoke:
	$(GO) test -race -count=1 -run 'TestServeMetricsSmoke|TestServeErrorEnvelope|TestServeQueueGiveUp503|TestServeVersion|TestServeAccessLog' ./internal/serve

# chaossmoke is the resilience gate: a 100-cell batch through the dispatch
# coordinator under a seeded transport-fault storm (worker kills, stalls,
# corrupted and delayed replies), with -race. Every cell must come back
# bit-identical to a fault-free run, nothing lost or duplicated, and the
# retry/breaker/restart counters must scrape as valid Prometheus text. The
# batch streaming endpoint's own e2e tests ride along.
chaossmoke:
	$(GO) test -race -count=1 -run TestChaosBatchGracefulDegradation ./internal/faultinject
	$(GO) test -race -count=1 -run 'TestBatchStreamsCorrectResults|TestBatchShedsWithRetryAfter|TestBatchClientDisconnectKeepsPartialResults' ./internal/serve

# netchaossmoke is the partition-tolerance gate: a 100-cell batch dispatched
# to two worker daemons over real loopback TCP under a seeded storm of
# connection kills, silent partitions, corrupted frames, and link latency,
# with -race. Every cell must come back bit-identical, no call may hang, no
# goroutine may leak, and the remote-fleet counters (dials, reconnects,
# partitions, heartbeats, dedup hits) must scrape as valid Prometheus text.
# The remote-worker lifecycle and single-flight unit tests ride along.
netchaossmoke:
	$(GO) test -race -count=1 -run TestNetChaosBatchBitIdentical ./internal/faultinject
	$(GO) test -race -count=1 -run 'TestRemote|TestSingleFlight' ./internal/dispatch
	$(GO) test -race -count=1 -run TestServeRemoteBatch ./internal/serve

# fuzzsmoke runs the differential fuzzer as a fixed-seed, fixed-count
# campaign: seeded random and mutated programs (all six generation profiles)
# judged by the full oracle stack — architectural differential vs the
# reference model, bit-exact determinism, core invariants under squash
# storms, the gadget security oracle — under every registered policy. The
# outcome does not depend on the machine's speed. Any finding fails ci.
fuzzsmoke:
	$(GO) run ./cmd/levfuzz -count 400 -seed 1 -q

# campaignsmoke is the coverage-guided campaign gate, under -race: a seeded
# campaign is SIGKILLed mid-run from a subprocess and resumed — it must
# resume at an epoch boundary, no committed case may re-execute, and the
# converged state file must be bit-identical to an uninterrupted run's; the
# same seed judged on 1, 2 and 8 workers must write byte-identical state
# files; the guided scheduler must beat blind generation at a fixed seed and
# budget; and the daemon's /v1/fuzz endpoints must complete a campaign end
# to end with valid Prometheus exposition for the fuzz_campaign_* families.
campaignsmoke:
	$(GO) test -race -count=1 -run 'TestCampaignKillResume|TestCampaignResumeDeterminism|TestCampaignWorkersIdentical|TestCampaignGuidedBeatsBlind' ./internal/fuzz
	$(GO) test -race -count=1 -run 'TestServeFuzz' ./internal/serve

# attacksmoke replays the attack expectation matrix: all four transient-
# execution gadgets against every registered policy configuration (the full
# registry sweep — parameterized families at every level), each outcome judged
# against its coverage contract. Exit 1 on any contract violation.
attacksmoke:
	$(GO) run ./cmd/levattack

# replay re-judges the checked-in regression corpus (internal/fuzz/testdata)
# through the complete oracle stack under the race detector, twice,
# asserting bit-identical verdicts.
replay:
	$(GO) test -race -count=1 -run TestCorpusReplay ./internal/fuzz

# ci is the gate: vet, build, the full suite under -race, a short benchmark
# pass (catches bench-only compile/regression breakage), the cmd/ import
# gate, the levserve smoke test, the seeded chaos smoke (batch dispatch under
# a transport-fault storm), the seeded network chaos smoke (remote TCP
# workers under a connection-fault storm), the fixed-count fuzz smoke +
# corpus replay, the kill -9 campaign resume smoke, the attack
# expectation-matrix replay, and the golden timing-model diff.
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) benchsmoke
	$(MAKE) gate
	$(MAKE) smoke
	$(MAKE) obssmoke
	$(MAKE) chaossmoke
	$(MAKE) netchaossmoke
	$(MAKE) fuzzsmoke
	$(MAKE) campaignsmoke
	$(MAKE) attacksmoke
	$(MAKE) replay
	$(MAKE) golden

clean:
	$(GO) clean ./...
