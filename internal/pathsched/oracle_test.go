package pathsched

// Differential tests of the dense-link scheduler against oracleSchedule
// (oracle_ref_test.go), the map-queue scheduler with a global per-round
// sort: per-link packet-ID ordering of each round's arrivals must give
// the same queues, hence the same Result, on every input.

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"almostmix/internal/graph"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
)

// randomPaths draws a path set over ids node IDs (scaled by stride, so
// sparse ID ranges are covered too): random walks on a small complete
// graph with lazy repeats, shared links, and empty and single-node paths.
func randomPaths(r *rand.Rand, count, maxLen, ids int, stride int32) [][]int32 {
	paths := make([][]int32, count)
	for i := range paths {
		n := r.IntN(maxLen + 1)
		p := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			v := int32(r.IntN(ids))
			if j > 0 && r.IntN(4) == 0 {
				v = p[j-1] // lazy repeat
			}
			p = append(p, v*stride)
		}
		paths[i] = p
	}
	return paths
}

func TestPropertyScheduleMatchesOracle(t *testing.T) {
	f := func(seed uint64, count, maxLen, ids uint8, sparse bool) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		stride := int32(1)
		if sparse {
			stride = 1 << 20
		}
		paths := randomPaths(r, int(count)%80, int(maxLen)%24, 2+int(ids)%12, stride)
		got, want := Schedule(paths), oracleSchedule(paths)
		if got != want {
			t.Logf("seed %d: got %+v, oracle %+v", seed, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleMatchesOracleEdgeCases(t *testing.T) {
	for _, paths := range [][][]int32{
		nil,
		{},
		{{}, {4}, {4, 4, 4}},
		{{-5, 7, -5, 7}, {7, -5}, {1 << 30, -1 << 30}},
		{{0, 1, 2}, {0, 1, 2}, {3, 1, 2}, {2, 1, 0}},
	} {
		if got, want := Schedule(paths), oracleSchedule(paths); got != want {
			t.Fatalf("%v: got %+v, oracle %+v", paths, got, want)
		}
	}
}

// TestScheduleMatchesOracleOnWalks schedules recorded walk paths and
// their reversals, the shape of an overlay's emulation batch.
func TestScheduleMatchesOracleOnWalks(t *testing.T) {
	g := graph.RandomRegular(48, 6, rngutil.NewRand(4))
	src := randomwalk.SourcesPerNode(randomwalk.UniformCountTimesDegree(g, 3))
	for _, kind := range []spectral.WalkKind{spectral.Lazy, spectral.Regular} {
		res := randomwalk.Run(g, src, randomwalk.Config{Kind: kind, Steps: 14, Record: true}, rngutil.NewRand(5))
		paths := make([][]int32, 0, 2*len(src))
		for i := range src {
			p := res.Path(i)
			rev := make([]int32, len(p))
			for j, v := range p {
				rev[len(p)-1-j] = v
			}
			paths = append(paths, p, rev)
		}
		if got, want := Schedule(paths), oracleSchedule(paths); got != want {
			t.Fatalf("kind %v: got %+v, oracle %+v", kind, got, want)
		}
	}
}
