package transport_test

// The fault-over-wire differential suite: faulty executions must be
// byte-identical between the in-process engines and the TCP backend.
// The tentpole assertion replays internal/congest's committed fault
// goldens (testdata/golden/faults-*.json) through the transport layer —
// proc and tcp at shards 1, 2 and 4 — and requires the full golden
// document (trace bytes, rounds, messages, fault totals) to reproduce
// byte for byte. On top sit the retry stories: walks re-issue and
// windowed-GHS recovery over proc and real shard barriers, including a
// whole-shard crash-and-recover round, each pinned by a golden in
// testdata/golden (regenerate with -update). Shards run as goroutines so the whole fate-table
// handshake sits under the race detector.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// goldenFaultProgram replicates internal/congest's goldenProgram
// exactly (same RNG consumption, marks, staggered halting, per-port
// duplication guard), so a transport run of the "goldenfault" workload
// is the same execution the committed goldens pin.
type goldenFaultProgram struct {
	haltAt int
	seen   int
	sent   []bool
}

func (p *goldenFaultProgram) Init(ctx *congest.Ctx) {
	p.sent = make([]bool, ctx.Degree())
	ctx.Broadcast(ctx.ID())
}

func (p *goldenFaultProgram) Step(ctx *congest.Ctx, inbox []congest.Inbound) {
	for i := range p.sent {
		p.sent[i] = false
	}
	for _, in := range inbox {
		v := in.Payload.(int)
		p.seen += v
		if ctx.Rand().IntN(4) != 0 && !p.sent[in.Port] {
			p.sent[in.Port] = true
			ctx.Send(in.Port, v+1)
		}
	}
	if ctx.Round()%3 == 0 && ctx.Tracing() {
		ctx.Mark(fmt.Sprintf("beat-%d", ctx.Round()/3))
	}
	if ctx.Round() >= p.haltAt {
		ctx.Halt()
	}
}

// goldenFaultScenarios mirror congest's golden fault scenarios; Value
// selects the graph in buildGoldenFault since Gnp is not a BuildGraph
// kind.
var goldenFaultScenarios = []struct {
	name      string
	value     int
	faultSpec string
}{
	{"faults-gnp24", 0, "drop=0.15,dup=0.1,delay=0.15:2,crash=3@4+5,sever=2@6"},
	{"faults-star16", 1, "drop=0.1,dup=0.2,delay=0.1:3,crash=0@5+4"},
	{"faults-rr32d4", 2, "drop=0.2,delay=0.2:1,sever=5@3,crash=7@2+6"},
}

func buildGoldenFault(spec transport.Spec) (*transport.Instance, error) {
	var g *graph.Graph
	switch spec.Value {
	case 0:
		g = graph.Gnp(24, 0.3, rngutil.NewRand(7))
	case 1:
		g = graph.Star(16)
	case 2:
		g = graph.RandomRegular(32, 4, rngutil.NewRand(9))
	default:
		return nil, fmt.Errorf("goldenfault: unknown scenario %d", spec.Value)
	}
	plan, err := spec.FaultPlan()
	if err != nil {
		return nil, err
	}
	programs := make([]congest.Program, g.N())
	for v := range programs {
		programs[v] = &goldenFaultProgram{haltAt: 12 + v%5}
	}
	return &transport.Instance{
		Graph:     g,
		Programs:  programs,
		Source:    rngutil.NewSource(spec.SrcSeed),
		Faults:    plan,
		MaxRounds: 40,
	}, nil
}

func init() {
	transport.Register(transport.Workload{
		Name:  "goldenfault",
		Build: buildGoldenFault,
		Encode: func(buf []byte, m congest.Message) ([]byte, error) {
			v, ok := m.(int)
			if !ok {
				return nil, fmt.Errorf("goldenfault: payload codec got %T", m)
			}
			return binary.AppendUvarint(buf, uint64(v)), nil
		},
		Decode: func(b []byte) (congest.Message, error) {
			v, n := binary.Uvarint(b)
			if n <= 0 || n != len(b) {
				return nil, fmt.Errorf("goldenfault: malformed payload")
			}
			return int(v), nil
		},
	})
}

// goldenFaultDoc replicates congest's goldenDoc layout so the marshaled
// bytes can be compared against the committed files directly.
type goldenFaultDoc struct {
	Trace    json.RawMessage `json:"trace"`
	Rounds   int             `json:"rounds"`
	Messages int             `json:"messages"`
	Faults   faults.Counts   `json:"faults"`
}

// runGoldenFault executes one golden fault scenario on tr and returns
// the serialized golden document, built exactly like congest's
// runGolden.
func runGoldenFault(t *testing.T, tr transport.Transport, value int, faultSpec string) []byte {
	t.Helper()
	sink := congest.NewTraceSink()
	res, err := tr.Run(transport.Spec{
		Workload:  "goldenfault",
		Value:     value,
		SrcSeed:   41,
		FaultSpec: faultSpec,
		FaultSeed: 99,
	}, transport.Options{Probe: sink})
	if err != nil {
		t.Fatalf("%s run: %v", tr.Name(), err)
	}
	var trace bytes.Buffer
	if err := sink.WriteJSON(&trace); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	buf, err := json.MarshalIndent(goldenFaultDoc{
		Trace:    trace.Bytes(),
		Rounds:   res.Rounds,
		Messages: res.Messages,
		Faults:   res.Faults,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestGoldenFaultParityOverTCP is the tentpole assertion: the three
// committed fault goldens reproduce byte for byte through the transport
// layer — trace bytes, rounds, messages and fault totals — on proc and
// on tcp at shards 1, 2 and 4.
func TestGoldenFaultParityOverTCP(t *testing.T) {
	for _, sc := range goldenFaultScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "congest", "testdata", "golden", sc.name+".json"))
			if err != nil {
				t.Fatalf("missing congest golden: %v", err)
			}
			if got := runGoldenFault(t, transport.Proc{Workers: 1}, sc.value, sc.faultSpec); !bytes.Equal(got, want) {
				t.Fatalf("proc diverges from committed golden (%d vs %d bytes)", len(got), len(want))
			}
			for _, shards := range []int{1, 2, 4} {
				tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil)}
				if got := runGoldenFault(t, tcp, sc.value, sc.faultSpec); !bytes.Equal(got, want) {
					t.Errorf("tcp shards=%d diverges from committed golden (%d vs %d bytes)", shards, len(got), len(want))
				}
			}
		})
	}
}

// TestCrossShardFaultCountsSumToProc pins the counted-exactly-once
// contract: a message crossing shards has its fate applied at the
// receiving shard's delivery scan, never at Inject, so the per-shard
// totals shipped back in TELEMETRY frames sum to the sequential
// engine's totals field for field.
func TestCrossShardFaultCountsSumToProc(t *testing.T) {
	sc := goldenFaultScenarios[0] // gnp24: dense cross-shard traffic, all fate kinds
	spec := transport.Spec{
		Workload:  "goldenfault",
		Value:     sc.value,
		SrcSeed:   41,
		FaultSpec: sc.faultSpec,
		FaultSeed: 99,
	}
	procRes, err := transport.Proc{Workers: 1}.Run(spec, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !procRes.Faults.Any() {
		t.Fatal("proc run injected no faults; scenario is not exercising the counters")
	}
	for _, shards := range []int{2, 4} {
		out := filepath.Join(t.TempDir(), "obs.json")
		tcp := transport.TCP{Shards: shards, Timeout: 30 * time.Second, Spawn: goroutineSpawner(nil), ObsOut: out}
		tcpRes, err := tcp.Run(spec, transport.Options{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if tcpRes.Faults != procRes.Faults {
			t.Errorf("shards=%d: coordinator totals %+v, proc %+v", shards, tcpRes.Faults, procRes.Faults)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := transport.ReadObs(raw)
		if err != nil {
			t.Fatal(err)
		}
		var sum faults.Counts
		rows := 0
		for _, ws := range doc.Wire {
			if ws.Endpoint == "shard" {
				sum.Add(ws.Faults)
				rows++
			} else if ws.Faults.Any() {
				t.Errorf("shards=%d: coord wire row for shard %d carries fault counts %+v", shards, ws.Shard, ws.Faults)
			}
		}
		if rows != shards {
			t.Fatalf("shards=%d: %d shard telemetry rows", shards, rows)
		}
		if sum != procRes.Faults {
			t.Errorf("shards=%d: per-shard fault totals sum to %+v, proc counted %+v — some fate applied twice or not at all",
				shards, sum, procRes.Faults)
		}
	}
}

// faultTransports are the backends every retry-story test runs against.
func faultTransports() []transport.Transport {
	return []transport.Transport{
		transport.Proc{Workers: 1},
		transport.Proc{Workers: 2},
		transport.Proc{Workers: 8},
		transport.TCP{Shards: 2, Timeout: 60 * time.Second, Spawn: goroutineSpawner(nil)},
		transport.TCP{Shards: 4, Timeout: 60 * time.Second, Spawn: goroutineSpawner(nil)},
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the retry goldens in testdata/golden")

// retryScenario is one retry-driver execution whose full result
// (FaultyWalkResult or FaultyMSTResult, JSON-encoded) is pinned by
// testdata/golden/<name>.json.
type retryScenario struct {
	name     string
	spec     transport.Spec
	attempts int
}

var (
	walksRetry = retryScenario{"retry-walks-rr32d4", transport.Spec{
		Workload: "walks-faults", Graph: "rr", N: 32, D: 4, K: 1, Steps: 8,
		Seed: 11, SrcSeed: 111,
		FaultSpec: "drop=0.08,dup=0.05,delay=0.1:2", FaultSeed: 5,
	}, 8}
	ghsRetry = retryScenario{"retry-ghs-rr24d4", transport.Spec{
		Workload: "ghs-faults", Graph: "rr", N: 24, D: 4,
		Seed: 3, SrcSeed: 73, WeightSeed: 10,
		FaultSpec: "drop=0.05,delay=0.1:2", FaultSeed: 9,
	}, 6}
	// The crash schedule replays every attempt (each re-run crashes the
	// shard again at round 3), so re-issued tokens keep braving the same
	// window; 16 attempts deterministically drains this seed.
	walksShardCrash = retryScenario{"retry-walks-shardcrash-rr24d4", transport.Spec{
		Workload: "walks-faults", Graph: "rr", N: 24, D: 4, K: 1, Steps: 6,
		Seed: 21, SrcSeed: 121,
		FaultSpec: "drop=0.05," + workloads.CrashShardSpec(24, 4, 2, 3, 4), FaultSeed: 17,
	}, 16}
	// A crash-only plan (no FATES frames: crash schedules replay from the
	// spec on every replica) that takes down shard 1 of 4 and brings it
	// back.
	ghsShardCrash = retryScenario{"retry-ghs-shardcrash-rr16d4", transport.Spec{
		Workload: "ghs-faults", Graph: "rr", N: 16, D: 4,
		Seed: 5, SrcSeed: 75, WeightSeed: 12,
		FaultSpec: workloads.CrashShardSpec(16, 4, 1, 5, 6), FaultSeed: 23,
	}, 4}
)

// runRetry executes sc's retry driver over tr.
func runRetry(t *testing.T, tr transport.Transport, sc retryScenario) any {
	t.Helper()
	var res any
	var err error
	switch sc.spec.Workload {
	case "walks-faults":
		res, err = workloads.RunWalksFaults(tr, sc.spec, transport.Options{}, sc.attempts)
	case "ghs-faults":
		res, err = workloads.RunGHSFaults(tr, sc.spec, transport.Options{}, sc.attempts)
	default:
		t.Fatalf("%s: no retry driver for %q", sc.name, sc.spec.Workload)
	}
	if err != nil {
		t.Fatalf("%s over %s: %v", sc.name, tr.Name(), err)
	}
	return res
}

func encodeRetry(t *testing.T, res any) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// checkRetry runs sc over every fault transport and requires each result
// to encode to the committed golden byte for byte and to DeepEqual the
// Proc{Workers: 1} run, which it returns for scenario-specific
// assertions. Under -update the golden is first rewritten from that run.
func checkRetry(t *testing.T, sc retryScenario) any {
	t.Helper()
	path := filepath.Join("testdata", "golden", sc.name+".json")
	ref := runRetry(t, transport.Proc{Workers: 1}, sc)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encodeRetry(t, ref), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	for _, tr := range faultTransports() {
		got := runRetry(t, tr, sc)
		if !bytes.Equal(encodeRetry(t, got), want) {
			t.Errorf("%s over %s diverges from golden %s:\n%s", sc.name, tr.Name(), path, encodeRetry(t, got))
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s over %s diverges from proc workers=1:\nwant %+v\ngot  %+v", sc.name, tr.Name(), ref, got)
		}
	}
	return ref
}

// TestWalksFaultsMatchesInProcessDriver pins the walks retry driver:
// identical arrival placement, rounds, messages, attempts, re-issue and
// fault accounting on every backend, equal to the golden.
func TestWalksFaultsMatchesInProcessDriver(t *testing.T) {
	got := checkRetry(t, walksRetry).(*workloads.FaultyWalkResult)
	if got.Reissued == 0 {
		t.Fatal("driver re-issued nothing; the scenario is not exercising the retry story")
	}
	if got.Lost != 0 {
		t.Fatalf("driver lost %d tokens within %d attempts", got.Lost, walksRetry.attempts)
	}
}

// TestGHSFaultsMatchesInProcessDriver pins the GHS retry driver: the
// recovered MST, the accumulated rounds/iterations/attempts and the
// fault totals are identical on every backend and equal to the golden.
func TestGHSFaultsMatchesInProcessDriver(t *testing.T) {
	got := checkRetry(t, ghsRetry).(*workloads.FaultyMSTResult)
	if !got.Recovered {
		t.Fatalf("driver did not recover the MST within %d attempts", ghsRetry.attempts)
	}
	if !got.Faults.Any() {
		t.Fatal("driver injected no faults")
	}
}

// TestWholeShardCrashRecoversOverTCP is the killed-and-recovering-shard
// story: every node of one shard crashes mid-run and recovers rounds
// later, with probabilistic drops layered on top, over real shard
// barriers. The run must complete with every token re-delivered and the
// crash accounted at exactly crashed-nodes × crashed-rounds, identical
// on every backend and equal to the golden.
func TestWholeShardCrashRecoversOverTCP(t *testing.T) {
	sc := walksShardCrash
	got := checkRetry(t, sc).(*workloads.FaultyWalkResult)
	if got.Lost != 0 {
		t.Errorf("%d tokens lost across %d attempts", got.Lost, sc.attempts)
	}
	g, err := transport.BuildGraph(sc.spec)
	if err != nil {
		t.Fatal(err)
	}
	issued, arrived := 0, 0
	for _, c := range randomwalk.UniformCountTimesDegree(g, sc.spec.K) {
		issued += c
	}
	for _, c := range got.ArrivedAt {
		arrived += c
	}
	if arrived != issued {
		t.Errorf("%d of %d tokens arrived", arrived, issued)
	}
	// Shard 2 owns nodes [12, 18): 6 nodes crashed for 4 rounds in every
	// attempt's replay of the schedule.
	if wantCrash := int64(6 * 4 * got.Attempts); got.Faults.Crashed != wantCrash {
		t.Errorf("crash node-rounds = %d over %d attempts, want %d", got.Faults.Crashed, got.Attempts, wantCrash)
	}
}

// TestGHSRecoveryAfterShardCrashOverTCP runs the windowed-GHS recovery
// story over real shard barriers with a whole shard crashed and brought
// back. The oracle-validated MST must come out identical on every
// backend and equal to the golden.
func TestGHSRecoveryAfterShardCrashOverTCP(t *testing.T) {
	sc := ghsShardCrash
	got := checkRetry(t, sc).(*workloads.FaultyMSTResult)
	if !got.Recovered {
		t.Fatalf("driver did not recover the MST within %d attempts", sc.attempts)
	}
	g, err := transport.BuildGraph(sc.spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mstbase.GHS(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != ref.Weight {
		t.Errorf("recovered MST weight %v, oracle %v", got.Weight, ref.Weight)
	}
}

// TestPlainWorkloadsRejectFaultSpec pins the satellite contract: the
// five fault-unaware workloads error out on a FaultSpec instead of
// silently ignoring it, on both backends (the builder runs before any
// network exists, so one code path serves both).
func TestPlainWorkloadsRejectFaultSpec(t *testing.T) {
	for _, spec := range suiteSpecs(1) {
		spec.FaultSpec = "drop=0.1"
		if _, err := (transport.Proc{Workers: 1}).Run(spec, transport.Options{}); err == nil {
			t.Errorf("%s: fault spec accepted by a fault-unaware workload", spec.Workload)
		}
	}
}
