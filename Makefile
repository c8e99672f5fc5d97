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

.PHONY: build vet test race check bench bench-json bench-scale fuzz smoke faults tcp-suite fault-tcp-suite decomp-suite obs-suite perfbench-selftest

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
# layer across both engines and all worker counts.
faults:
	go test -race -run 'Fault|Crash|Sever|Delayed' ./internal/faults ./internal/congest ./internal/randomwalk ./internal/mstbase

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
	go test -race -timeout 300s ./internal/transport/... ./internal/congest -run 'TestDifferentialSuite|TestProcMatchesDirectEngine|TestRealProcess|TestShardDeath|TestShardStall|TestDialShard|TestTCPValidates|TestFrame|TestNewShard|TestShardInject|TestConfigure'

# The faults-over-the-wire suite, race-instrumented and never shortened:
# the fate-table codec, the golden fault traces (reused from
# internal/congest/testdata/golden) byte-identical over proc and tcp at
# shards 1/2/4, per-shard fault counts summing to the in-process totals,
# and the walk re-issue / windowed-GHS recovery stories end-to-end over
# real processes including a killed-and-recovering shard.
fault-tcp-suite:
	go test -race -timeout 300s ./internal/transport -run 'TestGoldenFaultParityOverTCP|TestCrossShardFaultCountsSumToProc|TestWalksFaultsMatchesInProcessDriver|TestGHSFaultsMatchesInProcessDriver|TestWholeShardCrashRecoversOverTCP|TestGHSRecoveryAfterShardCrashOverTCP|TestPlainWorkloadsRejectFaultSpec|TestFateTable|TestParseFateTable'
	go test -race ./internal/faults

# The observability suite, race-instrumented and never shortened: the
# -obsout document on every exit path (an induced StallAtRound must
# produce a schema-valid dump naming the guilty shard, its last completed
# round and the barrier phase), the shard telemetry ship-back reaching
# the coordinator's registry, the flight-recorder ring contract, and the
# differential guarantee that full telemetry leaves trace bytes identical
# across backends and worker counts.
obs-suite:
	go test -race -timeout 300s ./internal/flightrec ./internal/transport -run 'TestObs|TestTelemetry|TestFlightRec|TestShardDeath|TestShardStall|TestNilRecorder|TestRing|TestPartialRing|TestAttribute|TestValidate|TestDump|TestWriteDump|TestConcurrentRecord|TestDefaultCapacity'

# The cluster-scoped-tier suite, race-instrumented and never shortened:
# the decomposition must be byte-identical across worker counts, the
# stitched router must deliver every packet deterministically, and the
# stitched MST must reproduce Kruskal's exact edge set (the correctness
# contract of DESIGN.md §3's decomposition section).
decomp-suite:
	go test -race -timeout 300s ./internal/decomp ./internal/embed ./internal/route ./internal/mst -run 'TestDecomp|TestBuildPartitioned|TestBuildDisconnectedError|TestRoutePartitioned|TestRunPartitioned'

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
