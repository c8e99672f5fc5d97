package pathsched_test

import (
	"testing"

	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/pathsched"
	"almostmix/internal/rngutil"
)

// TestScheduleMatchesOracleOnHierarchy schedules every overlay's
// emulation batch (each embedded path both ways) of a real hierarchy
// with both schedulers.
func TestScheduleMatchesOracleOnHierarchy(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(1))
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h, err := embed.Build(g, p, rngutil.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= h.Levels; l++ {
		o := h.Overlay(l)
		var paths [][]int32
		for e, edge := range o.Graph.Edges() {
			paths = append(paths, o.EdgePath(e, int32(edge.U)), o.EdgePath(e, int32(edge.V)))
		}
		got, want := pathsched.Schedule(paths), pathsched.OracleSchedule(paths)
		if got != want {
			t.Fatalf("level %d: got %+v, oracle %+v", l, got, want)
		}
		if max(got.Makespan, 1) != o.EmulationRounds {
			t.Fatalf("level %d: makespan %d, overlay emulation rounds %d", l, got.Makespan, o.EmulationRounds)
		}
	}
}
