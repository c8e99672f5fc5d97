package pathsched

import (
	"math/rand/v2"
	"testing"
)

// maxScheduleAllocs bounds one Schedule call: the compacted path and
// link arrays, the hop buckets, and the per-node, per-link and
// per-packet queue arrays. None of them is per round or per packet.
const maxScheduleAllocs = 20

// TestScheduleAllocsConstant: Schedule allocates the same small number of
// times for 50 or 5000 paths.
func TestScheduleAllocsConstant(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var counts []float64
	for _, count := range []int{50, 500, 5000} {
		paths := randomPaths(r, count, 20, 30, 1)
		counts = append(counts, testing.AllocsPerRun(3, func() { Schedule(paths) }))
	}
	for _, c := range counts {
		if c != counts[0] || c > maxScheduleAllocs {
			t.Fatalf("allocs per Schedule %v for 50/500/5000 paths; want one constant ≤ %d", counts, maxScheduleAllocs)
		}
	}
}
