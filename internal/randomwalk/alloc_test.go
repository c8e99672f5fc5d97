package randomwalk

import (
	"testing"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// maxRunAllocs bounds the allocations of one recorded Run: the result,
// its endpoint, source and per-step load slices, the choice log, the CSR
// view, the load and occupancy arrays, the correlated-step buckets and
// the probe buffers. None of them is per walk or per step.
const maxRunAllocs = 16

// TestRunAllocsConstant: a recorded Run allocates the same small number
// of times for 64 or 1024 walks and for 4 or 64 steps, in every mode.
func TestRunAllocsConstant(t *testing.T) {
	g := graph.RandomRegular(64, 4, rngutil.NewRand(1))
	rng := rngutil.NewRand(2)
	for _, cfg := range []Config{
		{Kind: spectral.Lazy, Record: true},
		{Kind: spectral.Regular, Record: true},
		{Kind: spectral.Lazy, Record: true, Correlated: true},
		{Kind: spectral.Lazy, Record: true, Probe: congest.NopProbe{}},
	} {
		var counts []float64
		for _, size := range []struct{ k, steps int }{{1, 4}, {16, 4}, {1, 64}, {16, 64}} {
			cfg := cfg
			cfg.Steps = size.steps
			sources := SourcesPerNode(UniformCountTimesDegree(g, size.k))
			counts = append(counts, testing.AllocsPerRun(3, func() { Run(g, sources, cfg, rng) }))
		}
		for _, c := range counts {
			if c != counts[0] || c > maxRunAllocs {
				t.Fatalf("%+v: allocs per Run %v over (walks, steps) sizes; want one constant ≤ %d", cfg, counts, maxRunAllocs)
			}
		}
	}
}
