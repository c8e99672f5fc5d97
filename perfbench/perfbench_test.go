package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"almostmix/internal/embed"
	"almostmix/internal/mst"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// tinySizes shrinks every workload so the self-test runs in seconds. The
// hierarchy keeps one partition level, as at full size, so the traced
// run emits the same metric names.
var tinySizes = sizes{
	hierN: 64, hierD: 8,
	walksN: 256, walksD: 4, walksSteps: 6,
	ghsN: 64, ghsD: 4,
}

func tinyConfig() *config { return &config{seed: 7, seconds: 0.01, sz: tinySizes} }

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkEmitted fails unless the result carries exactly the named
// metrics, each with the unit BENCHMARK.json gives it.
func checkEmitted(t *testing.T, what string, res result, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// TestPlainRun runs every workload untraced twice on one seed: both runs
// must pass their checks, emit every end-to-end metric with its unit and
// report the same simulated rounds.
func TestPlainRun(t *testing.T) {
	spec := readSpec(t)
	for _, w := range allWorkloads {
		var rounds []float64
		for range 2 {
			res, err := runPlain(w, tinyConfig())
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.minOps {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
			}
			checkEmitted(t, w.name, res, spec.EndToEnd)
			rounds = append(rounds, res.Metrics["sim_rounds"].Value)
		}
		if rounds[0] != rounds[1] || rounds[0] <= 0 {
			t.Errorf("%s: sim_rounds %v, want two equal positive counts", w.name, rounds)
		}
	}
}

// simulatedCounts are the per-layer metrics other than rounds that
// depend on the inputs alone, so they must repeat exactly for a seed.
var simulatedCounts = []string{
	"randomwalk.Run.token_steps", "pathsched.Schedule.hops", "route.packets",
	"mst.iterations", "congest.net_messages", "transport.net_messages",
}

// TestTracedRun runs the traced run twice on one seed: the replay
// fidelity gate must pass, every per-layer metric must be emitted with
// its unit, and every simulated count must repeat exactly.
func TestTracedRun(t *testing.T) {
	spec := readSpec(t)
	w, _ := lookupWorkload("walks-proc")
	var runs []result
	for range 2 {
		res, err := runTraced(w, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		checkEmitted(t, "traced run", res, spec.PerLayer)
		runs = append(runs, res)
	}
	for _, m := range spec.PerLayer {
		if m.Unit != "rounds" && !slices.Contains(simulatedCounts, m.Name) {
			continue
		}
		a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
		if a != b || a <= 0 {
			t.Errorf("%s: %v then %v, want two equal positive counts", m.Name, a, b)
		}
	}
}

// TestCorruptOutputFails corrupts every operation's output before its
// check, and expects every operation to count as failed.
func TestCorruptOutputFails(t *testing.T) {
	corrupt := func(out any) {
		switch o := out.(type) {
		case *embed.Hierarchy: // cut one G0 edge's path short
			o.G0.Paths[0] = o.G0.Paths[0][:1]
		case *mst.Result: // drop an MST edge
			o.Edges = o.Edges[1:]
		case *transport.Result:
			switch v := o.Output.(type) {
			case workloads.MSTOutput: // drop an MST edge
				v.Edges = v.Edges[1:]
				o.Output = v
			case workloads.WalksOutput: // lose a walk
				v.Arrived--
				o.Output = v
			}
		}
	}
	for _, w := range allWorkloads {
		cfg := tinyConfig()
		fam, _, err := setUp(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		cfg.corrupt = corrupt
		res := runOps(w, fam, cfg)
		if res.Correct || res.Failed != res.Attempted || res.Metrics["ok_frac"].Value != 0 {
			t.Errorf("%s: corrupted outputs gave correct=%v attempted=%d failed=%d ok_frac=%v",
				w.name, res.Correct, res.Attempted, res.Failed, res.Metrics["ok_frac"].Value)
		}
	}
}
