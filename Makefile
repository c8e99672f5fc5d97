# Developer entry points. `make check` is the CI gate: vet, the full test
# suite, and the race-instrumented run. The race target uses -short so the
# heavyweight differential sweeps keep the instrumented run fast; drop the
# flag (make race SHORT=) for the exhaustive version.

SHORT ?= -short
# Per-benchmark budget for `make bench` and `make bench-scale` (any
# go-test -benchtime value: durations like 2s or fixed counts like 3x;
# BENCHTIME=1x gives a single pass of each size).
BENCHTIME ?= 1s
# Flags for `make bench-json`; default to CI scale plus the zero-alloc
# gate. Drop -quick for the full-size suite, which adds the n=1e6
# engine-scale point (BENCHSUITE_FLAGS="-gate" make bench-json).
BENCHSUITE_FLAGS ?= -quick -gate

# Race-suite selections: a package list and a -run pattern per suite.
# `make suites-lint` checks that every |-alternative of every pattern
# still matches at least one test in its packages, so renaming or moving
# a test cannot silently drop it from a suite.
FAULTS_PKGS = ./internal/faults ./internal/congest ./internal/transport/workloads
FAULTS_RUN = Fault|Crash|Sever|Delayed
TCP_PKGS = ./internal/transport/... ./internal/congest
TCP_RUN = TestDifferentialSuite|TestProcMatchesDirectEngine|TestRealProcess|TestShardDeath|TestShardStall|TestDialShard|TestTCPValidates|TestFrame|TestNewShard|TestShardInject|TestConfigure
FAULT_TCP_PKGS = ./internal/transport ./internal/transport/workloads
FAULT_TCP_RUN = TestGoldenFaultParityOverTCP|TestCrossShardFaultCountsSumToProc|TestWalksFaultsMatchesInProcessDriver|TestGHSFaultsMatchesInProcessDriver|TestWholeShardCrashRecoversOverTCP|TestGHSRecoveryAfterShardCrashOverTCP|TestPlainWorkloadsRejectFaultSpec|FuzzParseFateTable|TestWalksFaults|TestGHSFaults
OBS_PKGS = ./internal/flightrec ./internal/transport
OBS_RUN = TestObs|TestTelemetry|TestFlightRec|TestShardDeath|TestShardStall|TestNilRecorder|TestRing|TestPartialRing|TestAttribute|TestValidate|TestDump|TestWriteDump|TestConcurrentRecord|TestDefaultCapacity
DECOMP_PKGS = ./internal/decomp ./internal/embed ./internal/route ./internal/mst
DECOMP_RUN = TestDecomp|TestBuildPartitioned|TestBuildDisconnectedError|TestRoutePartitioned|TestRunPartitioned

.PHONY: build vet test race check bench bench-json bench-scale fuzz smoke faults tcp-suite fault-tcp-suite decomp-suite obs-suite perfbench-selftest suites-lint

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race $(SHORT) ./...

# The fault-injection suite, race-instrumented and never shortened: the
# differential fault tests are the determinism contract for the fault
# layer across both engines and all worker counts, and the retry-driver
# tests hold the walks and GHS recovery stories on every worker count.
faults:
	go test -race -run '$(FAULTS_RUN)' $(FAULTS_PKGS)

check: vet test race faults

# End-to-end smoke of every experiment driver: build each cmd/ binary, run
# it at tiny scale with -trace, and check the trace lands non-empty.
smoke:
	sh scripts/smoke.sh

# The transport differential suite, race-instrumented and never shortened:
# every workload × shard count × seed over loopback TCP (goroutine-mode
# shards AND real cmd/tcpnode processes) must be trace-byte-identical to
# the sequential engine, and shard death/stall must surface as clean
# errors within the deadline. The hard -timeout keeps a wedged coordinator
# from hanging CI.
tcp-suite:
	go test -race -timeout 300s $(TCP_PKGS) -run '$(TCP_RUN)'

# The faults-over-the-wire suite, race-instrumented and never shortened:
# the fate-table codec, the golden fault traces (reused from
# internal/congest/testdata/golden) byte-identical over proc and tcp at
# shards 1/2/4, per-shard fault counts summing to the in-process totals,
# and the walk re-issue / windowed-GHS recovery stories pinned by their
# goldens over proc and tcp, including a killed-and-recovering shard.
fault-tcp-suite:
	go test -race -timeout 300s $(FAULT_TCP_PKGS) -run '$(FAULT_TCP_RUN)'
	go test -race ./internal/faults

# The observability suite, race-instrumented and never shortened: the
# -obsout document on every exit path (an induced StallAtRound must
# produce a schema-valid dump naming the guilty shard, its last completed
# round and the barrier phase), the shard telemetry ship-back reaching
# the coordinator's registry, the flight-recorder ring contract, and the
# differential guarantee that full telemetry leaves trace bytes identical
# across backends and worker counts.
obs-suite:
	go test -race -timeout 300s $(OBS_PKGS) -run '$(OBS_RUN)'

# The cluster-scoped-tier suite, race-instrumented and never shortened:
# the decomposition must be byte-identical across worker counts, the
# stitched router must deliver every packet deterministically, and the
# stitched MST must reproduce Kruskal's exact edge set (the correctness
# contract of DESIGN.md §3's decomposition section).
decomp-suite:
	go test -race -timeout 300s $(DECOMP_PKGS) -run '$(DECOMP_RUN)'

# Every -run alternative of every race suite above must match at least
# one test (go test -list), so suite selection cannot drift when tests are
# renamed or moved.
suites-lint:
	sh scripts/suites-lint.sh faults '$(FAULTS_RUN)' $(FAULTS_PKGS)
	sh scripts/suites-lint.sh tcp-suite '$(TCP_RUN)' $(TCP_PKGS)
	sh scripts/suites-lint.sh fault-tcp-suite '$(FAULT_TCP_RUN)' $(FAULT_TCP_PKGS)
	sh scripts/suites-lint.sh obs-suite '$(OBS_RUN)' $(OBS_PKGS)
	sh scripts/suites-lint.sh decomp-suite '$(DECOMP_RUN)' $(DECOMP_PKGS)

# The repository benchmark's self-test (perfbench is a module of its own,
# outside ./...): metric names against BENCHMARK.json, repeatable counts,
# failing checks on corrupted outputs, and the replay-fidelity gate that
# re-runs embed.Build's walk and scheduler calls and must reproduce the
# construction ledger and emulation rounds exactly.
perfbench-selftest:
	cd perfbench && go test .

bench:
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./...

# Standard benchmark set with warmup/repetition control, written as a
# schema-versioned BENCH_<git-sha>.json for the perf trajectory. With
# -gate (the default) it also measures steady-state allocs/round on both
# engines and fails unless integer-zero (DESIGN.md §3, EXPERIMENTS.md E16).
bench-json:
	go run ./cmd/benchsuite $(BENCHSUITE_FLAGS)

# E16 engine scale sweep: ticker broadcasts on ring lattices at
# n ∈ {1e4, 1e5, 1e6}, both engines. ns/msg must stay essentially flat
# and the sequential engine must report 0 allocs/op. The 1e6 points need
# ~1 GB and a few seconds each; BENCHTIME=1x make bench-scale for one pass.
bench-scale:
	go test -run '^$$' -bench BenchmarkCongestEngineScale -benchmem -benchtime $(BENCHTIME) .

# Continuous fuzzing of the simulator's round engines (30s; the committed
# f.Add corpus always runs as part of `make test`).
fuzz:
	go test -run '^$$' -fuzz FuzzNetworkRun -fuzztime 30s ./internal/congest
