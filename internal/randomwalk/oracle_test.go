package randomwalk

// Differential tests of the flat-CSR step engine against oracleRun and
// oracleReverseDeliveryRounds (oracle_ref_test.go): every path, endpoint,
// statistic and probe record must match, and the rng must be left in the
// same state, because callers keep drawing from it after Run.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// recordingProbe keeps a deep copy of every hook call.
type recordingProbe struct {
	starts []congest.RunInfo
	rounds []congest.RoundRecord
	ends   []int
}

func (p *recordingProbe) RunStart(info congest.RunInfo)       { p.starts = append(p.starts, info) }
func (p *recordingProbe) PhaseMark(node, round int, _ string) {}
func (p *recordingProbe) NodeHalted(node, round int)          {}
func (p *recordingProbe) RunEnd(rounds int, _ error)          { p.ends = append(p.ends, rounds) }
func (p *recordingProbe) RoundEnd(rec *congest.RoundRecord) {
	c := *rec
	c.InboxSizes = slices.Clone(rec.InboxSizes)
	c.EdgeLoad = slices.Clone(rec.EdgeLoad)
	p.rounds = append(p.rounds, c)
}

// isolatedGraph has two isolated nodes besides a small ring with a chord.
func isolatedGraph() *graph.Graph {
	g := graph.New(8)
	for v := 0; v < 5; v++ {
		g.AddEdge(v, (v+1)%5, 1)
	}
	g.AddEdge(0, 2, 1)
	g.AddEdge(6, 3, 1)
	return g // nodes 5 and 7 are isolated
}

// diffGraphs are the differential fixtures; wide (Δ = 300) forces
// 16-bit choice-log entries.
func diffGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rr40d6":   graph.RandomRegular(40, 6, rngutil.NewRand(1)),
		"star9":    graph.Star(9),
		"lollipop": graph.Lollipop(8, 6),
		"isolated": isolatedGraph(),
		"wide":     graph.Star(301),
	}
}

// compareRun runs both engines from identical rng states and reports the
// first difference.
func compareRun(g *graph.Graph, sources []int32, cfg Config, seed uint64) error {
	rNew, rOld := rngutil.NewRand(seed), rngutil.NewRand(seed)
	cNew, cOld := cfg, cfg
	var pNew, pOld *recordingProbe
	if cfg.Probe != nil {
		pNew, pOld = &recordingProbe{}, &recordingProbe{}
		cNew.Probe, cOld.Probe = pNew, pOld
	}
	got := Run(g, sources, cNew, rNew)
	want := oracleRun(g, sources, cOld, rOld)
	if !slices.Equal(got.Ends, want.Ends) {
		return fmt.Errorf("ends differ")
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		return fmt.Errorf("stats %+v, oracle %+v", got.Stats, want.Stats)
	}
	if a, b := rNew.Uint64(), rOld.Uint64(); a != b {
		return fmt.Errorf("rng state after Run differs: next draw %d vs %d", a, b)
	}
	if cfg.Record {
		for i := range sources {
			if p := got.Path(i); !slices.Equal(p, want.Walks[i].Path) {
				return fmt.Errorf("walk %d path %v, oracle %v", i, p, want.Walks[i].Path)
			}
		}
		keep := []int{}
		for i := range sources {
			if i%3 != 1 {
				keep = append(keep, i)
			}
		}
		for _, k := range [][]int{nil, keep, {}} {
			if a, b := ReverseDeliveryRounds(g, want.Walks, k), oracleReverseDeliveryRounds(g, want.Walks, k); a != b {
				return fmt.Errorf("reverse rounds %d, oracle %d (keep %v)", a, b, k)
			}
		}
	}
	if pNew != nil && !reflect.DeepEqual(pNew, pOld) {
		return fmt.Errorf("probe records differ")
	}
	return nil
}

// TestRunMatchesOracle sweeps every mode on every fixture.
func TestRunMatchesOracle(t *testing.T) {
	for name, g := range diffGraphs() {
		for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
			for _, correlated := range []bool{false, true} {
				for _, steps := range []int{0, 1, 9} {
					sources := SourcesPerNode(UniformCountTimesDegree(g, 2))
					sources = append(sources, 5, 7, 0) // isolated starts on "isolated"
					cfg := Config{Kind: kind, Steps: steps, Record: true, Correlated: correlated,
						Probe: congest.NopProbe{}, TraceName: "diff"}
					if err := compareRun(g, sources, cfg, uint64(steps)+3); err != nil {
						t.Fatalf("%s kind=%v correlated=%v steps=%d: %v", name, kind, correlated, steps, err)
					}
				}
			}
		}
	}
}

// TestPropertyRunMatchesOracle draws random graphs, sources and configs.
func TestPropertyRunMatchesOracle(t *testing.T) {
	f := func(seed uint64, n8, k8, steps8 uint8, regular, correlated, record, probe bool) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		n := 4 + int(n8)%40
		g := graph.Gnp(n, 0.15, r) // sparse: isolated nodes do occur
		sources := make([]int32, 1+int(k8)%120)
		for i := range sources {
			sources[i] = int32(r.IntN(n))
		}
		cfg := Config{Kind: spectral.Lazy, Steps: int(steps8) % 17, Record: record, Correlated: correlated}
		if regular {
			cfg.Kind = spectral.Regular
		}
		if probe {
			cfg.Probe = congest.NopProbe{}
		}
		if err := compareRun(g, sources, cfg, seed); err != nil {
			t.Logf("seed %d n %d cfg %+v: %v", seed, n, cfg, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChoiceLogWidth pins the log entry width: one byte below Δ = 255,
// wider from there on.
func TestChoiceLogWidth(t *testing.T) {
	for _, c := range []struct {
		leaves int
		want   any
	}{{254, stepLog[uint8](nil)}, {255, stepLog[uint16](nil)}, {300, stepLog[uint16](nil)}} {
		g := graph.Star(c.leaves + 1)
		res := Run(g, []int32{0, 1}, Config{Kind: spectral.Lazy, Steps: 3, Record: true}, rngutil.NewRand(1))
		if reflect.TypeOf(res.log) != reflect.TypeOf(c.want) {
			t.Fatalf("Δ=%d: log %T, want %T", c.leaves, res.log, c.want)
		}
	}
}

// TestPathNeedsRecord: an unrecorded run has no log to replay.
func TestPathNeedsRecord(t *testing.T) {
	res := Run(graph.Ring(5), []int32{0}, Config{Kind: spectral.Lazy, Steps: 3}, rngutil.NewRand(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Path on an unrecorded run did not panic")
		}
	}()
	res.Path(0)
}
