package cliquemu

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

var shared = sync.OnceValues(func() (*embed.Hierarchy, error) {
	r := rngutil.NewRand(1)
	g := graph.RandomRegular(48, 6, r)
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	return embed.Build(g, p, rngutil.NewSource(3))
})

func testHierarchy(t *testing.T) *embed.Hierarchy {
	t.Helper()
	h, err := shared()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestAllToAllWorkload(t *testing.T) {
	g := graph.Ring(10)
	reqs := AllToAll(g)
	if len(reqs) != 90 {
		t.Fatalf("workload size %d, want 90", len(reqs))
	}
	perDest := make([]int, g.N())
	for _, r := range reqs {
		if r.SrcNode == r.DstNode {
			t.Fatal("self message generated")
		}
		if r.DstIndex < 0 || r.DstIndex >= g.Degree(r.DstNode) {
			t.Fatalf("invalid index %d", r.DstIndex)
		}
		perDest[r.DstNode]++
	}
	for v, c := range perDest {
		if c != 9 {
			t.Fatalf("node %d receives %d messages, want 9", v, c)
		}
	}
}

func TestHierarchicalDeliversAll(t *testing.T) {
	h := testHierarchy(t)
	res, err := Hierarchical(h, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	n := h.Base.N()
	if res.Messages != n*(n-1) {
		t.Fatalf("delivered %d, want %d", res.Messages, n*(n-1))
	}
	if res.Rounds <= 0 || res.Phases < 1 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestDirectDeliversAll(t *testing.T) {
	g := graph.RandomRegular(32, 4, rngutil.NewRand(7))
	res, err := Direct(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 32*31 {
		t.Fatalf("delivered %d", res.Messages)
	}
	// Each node must receive n−1 messages over ≤ Δ edges: rounds are at
	// least (n−1)/Δ.
	if res.Rounds < 31/4 {
		t.Fatalf("rounds %d below trivial lower bound", res.Rounds)
	}
}

func TestDirectRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	if _, err := Direct(g); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestDirectOnCompleteIsOneRound(t *testing.T) {
	res, err := Direct(graph.Complete(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("clique emulating itself took %d rounds", res.Rounds)
	}
}

func TestBoundsShapes(t *testing.T) {
	if !math.IsInf(CutLowerBound(10, 0), 1) {
		t.Fatal("zero expansion should give infinite bound")
	}
	if CutLowerBound(100, 2) != 25 {
		t.Fatalf("CutLowerBound = %v, want 25", CutLowerBound(100, 2))
	}
	// Balliu: min{1/p², np} — the np branch wins on sparse small graphs,
	// the 1/p² branch on large ones.
	if BalliuBound(100, 0.05) != 5 {
		t.Fatalf("BalliuBound np branch = %v, want 5", BalliuBound(100, 0.05))
	}
	if math.Abs(BalliuBound(10000, 0.05)-400) > 1e-9 {
		t.Fatalf("BalliuBound 1/p² branch = %v, want 400", BalliuBound(10000, 0.05))
	}
	// The paper's curve beats Balliu's in the regime 1/√n < p < 1 where
	// both branches of Balliu's bound are expensive.
	n, p := 1024, 0.1
	if PaperBound(n, p) >= BalliuBound(n, p) {
		t.Fatalf("paper curve %v not below Balliu %v at p=%v",
			PaperBound(n, p), BalliuBound(n, p), p)
	}
	if math.IsInf(PaperBound(10, 0.5), 1) || !math.IsInf(PaperBound(10, 0), 1) {
		t.Fatal("PaperBound edge cases wrong")
	}
}

func TestHierarchicalLedger(t *testing.T) {
	h := testHierarchy(t)
	res, err := Hierarchical(h, rngutil.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	led := res.Costs
	if led == nil {
		t.Fatal("Hierarchical left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != led.Root.Total() {
		t.Fatalf("Rounds %d != ledger root %d", res.Rounds, led.Root.Total())
	}
	// The grafted child is the phased-routing ledger root; its children
	// (one per phase) sum to the whole run.
	if len(led.Root.Children) != 1 || led.Root.Children[0].Name != "route-phased" {
		t.Fatalf("unexpected ledger children %+v", led.Root.Children)
	}
	phased := led.Root.Children[0]
	sum := 0
	for _, ph := range phased.Children {
		sum += ph.Rolled()
	}
	if sum != res.Rounds {
		t.Fatalf("phase spans sum %d != Rounds %d", sum, res.Rounds)
	}
}

func TestDirectLedger(t *testing.T) {
	g := graph.Ring(12)
	res, err := Direct(g)
	if err != nil {
		t.Fatal(err)
	}
	led := res.Costs
	if led == nil {
		t.Fatal("Direct left Costs nil")
	}
	if err := led.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != led.Root.Total() {
		t.Fatalf("Rounds %d != ledger root %d", res.Rounds, led.Root.Total())
	}
	sp := led.Root.Child("bfs-schedule")
	if sp == nil {
		t.Fatal("no bfs-schedule span")
	}
	if sp.Total() != res.Rounds {
		t.Fatalf("bfs-schedule span %d != Rounds %d", sp.Total(), res.Rounds)
	}
}

// TestHierarchicalSpanWalls: the clique ledger is open while the phased
// routing runs, so its wall covers the grafted routing ledger, and every
// routing phase's prep span measured its walks.
func TestHierarchicalSpanWalls(t *testing.T) {
	res, err := Hierarchical(testHierarchy(t), rngutil.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	root := res.Costs.Root
	for _, w := range cost.FlattenWall(root) {
		if strings.HasSuffix(w.Path, "/prep") && w.WallNS <= 0 {
			t.Errorf("%s: wall %dns, want > 0", w.Path, w.WallNS)
		}
	}
	for _, gap := range cost.WallGaps(root, time.Microsecond) {
		t.Error(gap)
	}
}
