package route

// Differential tests of the leaf-path table (embed.LeafPaths, read
// through router.appendLeafPath) against partBFS (oracle_ref_test.go):
// every ordered vid pair of every leaf part must get the identical path,
// or the identical error.

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// sharedDefault is rr(128,8) under default parameters: one partition
// level, 16 leaf parts of up to 77 vids.
var sharedDefault = sync.OnceValues(func() (*embed.Hierarchy, error) {
	g := graph.RandomRegular(128, 8, rngutil.NewRand(5))
	return embed.Build(g, embed.DefaultParams(), rngutil.NewSource(3))
})

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkLeafPaths compares the table with the oracle on the given ordered
// vid pairs (all pairs inside each leaf part when pairs is nil) and
// returns the number of pairs checked and of parallel leaf edges.
func checkLeafPaths(t *testing.T, h *embed.Hierarchy, pairs [][2]int32) (checked, parallel int) {
	t.Helper()
	o := h.Overlay(h.Levels)
	if pairs == nil {
		members := make([][]int32, o.NumParts)
		for v, p := range o.PartOf {
			members[p] = append(members[p], int32(v))
		}
		for _, mem := range members {
			for _, src := range mem {
				for _, dst := range mem {
					pairs = append(pairs, [2]int32{src, dst})
				}
			}
		}
	}
	r := &router{h: h, leaf: h.LeafPaths()}
	oracle := newPartBFS(o)
	buf := []int32{-7} // a non-empty prefix the table must leave alone
	for _, pr := range pairs {
		src, dst := pr[0], pr[1]
		want, wantErr := oracle.path(src, dst)
		got, gotErr := r.appendLeafPath(buf, src, dst)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("(%d→%d): table error %q, oracle %q", src, dst, errText(gotErr), errText(wantErr))
		}
		if got[0] != -7 || (wantErr == nil && !slices.Equal(got[1:], want)) || (wantErr != nil && len(got) != 1) {
			t.Fatalf("(%d→%d): table path %v, oracle %v", src, dst, got[1:], want)
		}
		buf = got[:1]
		checked++
	}
	seen := make(map[[2]int]bool, o.Graph.M())
	for _, e := range o.Graph.Edges() {
		k := [2]int{min(e.U, e.V), max(e.U, e.V)}
		if seen[k] {
			parallel++
		}
		seen[k] = true
	}
	return checked, parallel
}

func TestLeafPathsMatchOracle(t *testing.T) {
	t.Run("rr64d6-beta4", func(t *testing.T) {
		n, par := checkLeafPaths(t, testHierarchy(t), nil)
		t.Logf("%d pairs, %d parallel leaf edges", n, par)
	})
	t.Run("rr128d8-default", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds a default-parameter rr(128,8) hierarchy")
		}
		h, err := sharedDefault()
		if err != nil {
			t.Fatal(err)
		}
		n, par := checkLeafPaths(t, h, nil)
		t.Logf("%d pairs, %d parallel leaf edges", n, par)
	})
	t.Run("barbell16x8-clusters", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds the barbell cluster tier")
		}
		pe := buildTier(t, graph.Barbell(16, 8), decomp.Params{})
		hierarchies := 0
		for _, ce := range pe.Clusters {
			if ce.Direct {
				continue
			}
			n, par := checkLeafPaths(t, ce.H, nil)
			t.Logf("cluster of %d nodes: %d pairs, %d parallel leaf edges", len(ce.Cluster.Nodes), n, par)
			hierarchies++
		}
		if hierarchies == 0 {
			t.Fatal("no cluster hierarchy to check")
		}
	})
	t.Run("hand-built", func(t *testing.T) {
		h := handBuiltLeafHierarchy()
		n := h.Overlay(1).Graph.N()
		var all [][2]int32
		for src := int32(0); src < int32(n); src++ {
			for dst := int32(0); dst < int32(n); dst++ {
				all = append(all, [2]int32{src, dst})
			}
		}
		if _, par := checkLeafPaths(t, h, all); par < 2 {
			t.Fatalf("hand-built overlay has %d parallel edges, want 2", par)
		}
	})
}

// handBuiltLeafHierarchy is a one-level hierarchy around a hand-made leaf
// overlay: parts interleave in vid order (part = vid mod 3, part 3
// empty), part 0 is a cycle with a parallel edge, part 1 has a parallel
// edge listed in both orientations and an isolated vid, and one edge
// crosses parts, which the BFS must not use.
func handBuiltLeafHierarchy() *embed.Hierarchy {
	g := graph.New(10)
	for _, e := range [][2]int{
		{0, 3}, {3, 6}, {0, 3}, {6, 9}, {9, 0}, // part 0
		{1, 4}, {4, 1}, // part 1; vid 7 is isolated
		{2, 5}, {5, 8}, {8, 2}, // part 2
		{3, 4}, // across parts 0 and 1
	} {
		g.AddEdge(e[0], e[1], 1)
	}
	partOf := make([]int32, g.N())
	for v := range partOf {
		partOf[v] = int32(v % 3)
	}
	leaf := &embed.Overlay{Level: 1, Graph: g, PartOf: partOf, NumParts: 4}
	return &embed.Hierarchy{Levels: 1, Upper: []*embed.Overlay{leaf}}
}

// sameReport compares two routing reports field by field, their ledgers
// by exported rows (span walls are host time and always differ).
func sameReport(a, b *Report) bool {
	if !reflect.DeepEqual(a.Costs.Rows(), b.Costs.Rows()) {
		return false
	}
	ac, bc := *a, *b
	ac.Costs, bc.Costs = nil, nil
	return reflect.DeepEqual(ac, bc)
}

// TestRouteConcurrent: Route and RouteExact on one fresh hierarchy from
// four goroutines race to build its leaf-path table, and each result
// must equal the one a sequential call gives afterwards. Under -race it
// checks the lazy build.
func TestRouteConcurrent(t *testing.T) {
	g := graph.RandomRegular(48, 6, rngutil.NewRand(1))
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h, err := embed.Build(g, p, rngutil.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	reqs := RandomPermutation(g, rngutil.NewRand(3))
	reps := make([]*Report, 4)
	exacts := make([]*ExactReport, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Alternate the order so both entry points race for the build.
			var err1, err2 error
			if i%2 == 0 {
				reps[i], err1 = Route(h, reqs, rngutil.NewSource(5))
				exacts[i], err2 = RouteExact(h, reqs, rngutil.NewSource(6))
			} else {
				exacts[i], err2 = RouteExact(h, reqs, rngutil.NewSource(6))
				reps[i], err1 = Route(h, reqs, rngutil.NewSource(5))
			}
			errs[i] = errors.Join(err1, err2)
		}()
	}
	wg.Wait()
	want, err := Route(h, reqs, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	wantExact, err := RouteExact(h, reqs, rngutil.NewSource(6))
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		switch ex := exacts[i]; {
		case err != nil:
			t.Errorf("goroutine %d: %v", i, err)
		case !sameReport(reps[i], want):
			t.Errorf("goroutine %d: Route report differs from the sequential one", i)
		case !sameReport(ex.Paper, wantExact.Paper) || ex.ExactRounds != wantExact.ExactRounds ||
			ex.Congestion != wantExact.Congestion || ex.Dilation != wantExact.Dilation:
			t.Errorf("goroutine %d: RouteExact report differs from the sequential one", i)
		}
	}
}

// maxRouteMallocs bounds the heap allocations of one Route call on
// rr(128,8) with its 1,024 degree-demand packets, once the hierarchy's
// leaf-path table exists: fewer than one per packet. Measured at 111 on
// go1.24/amd64; one BFS path slice per packet made it 9,608.
const maxRouteMallocs = 1024

// TestRouteMallocBound is routing's alloc-regression gate: a per-packet
// or per-hop allocation on the routing path pushes the count past the
// number of packets.
func TestRouteMallocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a default-parameter rr(128,8) hierarchy")
	}
	h, err := sharedDefault()
	if err != nil {
		t.Fatal(err)
	}
	reqs := DegreeDemand(h.Base, rngutil.NewRand(8))
	if len(reqs) != maxRouteMallocs {
		t.Fatalf("%d packets, want %d", len(reqs), maxRouteMallocs)
	}
	var routeErr error
	allocs := testing.AllocsPerRun(3, func() {
		_, routeErr = Route(h, reqs, rngutil.NewSource(9))
	})
	if routeErr != nil {
		t.Fatal(routeErr)
	}
	t.Logf("Route: %.0f allocations for %d packets", allocs, len(reqs))
	if allocs >= maxRouteMallocs {
		t.Fatalf("Route on rr(128,8) made %.0f heap allocations, want fewer than its %d packets", allocs, len(reqs))
	}
}
