package embed

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// maxBuildMallocs bounds the heap allocations of one Build on rr(128,8),
// measured at about 17k on go1.24/amd64: none of them is per walk, per
// step, per hop or per scheduling round, which would each add hundreds
// of thousands.
const maxBuildMallocs = 25_000

// TestBuildMallocBound is the construction's alloc-regression gate: a
// change that reintroduces per-walk, per-hop or per-round allocation on
// the hot path multiplies the count far past the bound.
func TestBuildMallocBound(t *testing.T) {
	g := graph.RandomRegular(128, 8, rngutil.NewRand(5))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(g, DefaultParams(), rngutil.NewSource(3)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > maxBuildMallocs {
		t.Fatalf("Build on rr(128,8) made %d heap allocations, bound %d", n, maxBuildMallocs)
	}
}

// TestConstructionSpanWalls: the overlay spans and their walks and
// endpoint-replay children bracket the work they charge, so the walks
// span reports real host time and every parent's wall covers its
// sequential children.
func TestConstructionSpanWalls(t *testing.T) {
	h := testHierarchy(t)
	root := h.Costs.Root
	if w := root.Child("g0").Child("walks").Wall(); w <= 0 {
		t.Fatalf("g0/walks wall %v, want > 0", w)
	}
	// The slack absorbs clock granularity.
	for _, gap := range cost.WallGaps(root, time.Microsecond) {
		t.Error(gap)
	}
	for l := 1; l <= h.Levels; l++ {
		sp := root.Child(fmt.Sprintf("level-%d", l))
		if sp.Wall() <= 0 || sp.Child("walks").Wall() <= 0 || sp.Child("endpoint-replay").Wall() <= 0 {
			t.Fatalf("level-%d walls %v (walks %v, endpoint-replay %v), want all > 0",
				l, sp.Wall(), sp.Child("walks").Wall(), sp.Child("endpoint-replay").Wall())
		}
	}
}
