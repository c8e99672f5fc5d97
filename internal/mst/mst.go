// Package mst implements the paper's distributed minimum-spanning-tree
// algorithm (§4, Theorem 1.1): Borůvka iterations with random head/tail
// coin merges, where each iteration's minimum-weight-outgoing-edge
// computation is an upcast/downcast over per-fragment virtual trees whose
// edges are served by the hierarchical routing scheme of §3.
//
// Round accounting per iteration, all measured on the simulator:
//
//   - one physical round for the fragment-ID exchange between neighbors;
//   - one routing instance (child → parent over every virtual tree edge)
//     measured once and charged per tree level for the upcast, again for
//     the downcast, and per balancing wave (the paper repeats the same
//     routing pattern once per level, so the per-step request multiset is
//     identical; we measure it once per iteration and multiply).
package mst

import (
	"fmt"
	"math"
	"sort"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
)

// IterationStats records one Borůvka iteration of the hierarchical MST.
type IterationStats struct {
	Fragments     int // fragments at the start of the iteration
	Merges        int // tail-into-head merges performed
	TreeDepth     int // max virtual-tree depth before merging
	UpcastSteps   int // tree levels walked for upcast + downcast
	BalanceWaves  int // token waves during rebalancing
	StepRounds    int // measured base rounds of one routing step
	Rounds        int // total base rounds charged to this iteration
	MaxInDegRatio float64
}

// Result is the outcome of a hierarchical MST computation.
type Result struct {
	// Edges are the chosen MST edge IDs.
	Edges []int
	// Weight is the total weight of the chosen edges.
	Weight float64
	// Rounds is the total measured base-graph rounds, including the
	// hierarchy construction.
	Rounds int
	// AlgorithmRounds excludes the (reusable) hierarchy construction.
	AlgorithmRounds int
	// Iterations records per-iteration statistics (experiment E9).
	Iterations []IterationStats
	// MaxTreeDepth is the largest virtual-tree depth ever observed.
	MaxTreeDepth int
	// MaxInDegRatio is the largest observed inDeg(v)/d_G(v).
	MaxInDegRatio float64
	// Costs is the run's cost ledger: the hierarchy's construction
	// ledger grafted next to an algorithm span holding one span per
	// Borůvka iteration (fragment exchange plus the measured tree step
	// multiplied by upcast/downcast/balancing repetitions). Rounds and
	// AlgorithmRounds are read off it.
	Costs *cost.Ledger
}

// Run computes the MST of h's weighted base graph using the hierarchical
// routing structure. Edge weights should be distinct (use
// AssignDistinctRandomWeights); ties are broken by edge ID, under which
// the reported tree is still a minimum spanning tree.
func Run(h *embed.Hierarchy, src *rngutil.Source) (*Result, error) {
	g := h.Base
	n := g.N()
	if !g.IsConnected() {
		return nil, fmt.Errorf("mst: %w", graph.ErrDisconnected)
	}
	forest := NewForest(n)
	res := &Result{}
	coinRng := src.Stream("coins", 0)
	maxIter := 30 * (log2int(n) + 1)

	// The MST ledger reuses the hierarchy's construction ledger as a
	// grafted child (the structure is built once and amortized), next to
	// an algorithm span the iterations charge into.
	led := cost.New("mst", "base rounds")
	if h.Costs != nil {
		led.Attach(h.Costs.Root)
	} else {
		led.Open("construction", "base rounds", 1)
		led.Charge(h.ConstructionRoundsBase())
		led.Close()
	}
	led.Open("algorithm", "base rounds", 1)

	for iter := 0; iter < maxIter; iter++ {
		frags := forest.NumFragments()
		if frags == 1 {
			led.CloseExpect(res.AlgorithmRounds) // algorithm span
			res.Rounds = led.Close()             // root: construction + algorithm
			if err := led.Err(); err != nil {
				return nil, fmt.Errorf("mst: cost ledger: %w", err)
			}
			res.Costs = led
			res.Weight = g.TotalWeight(res.Edges)
			return res, nil
		}
		stats := IterationStats{Fragments: frags}

		depths := forest.Depths()
		stats.TreeDepth = maxDepth(depths)
		if stats.TreeDepth > res.MaxTreeDepth {
			res.MaxTreeDepth = stats.TreeDepth
		}

		// Charge: fragment exchange + (up + down + balancing) steps.
		// The iteration's spans are open while their work runs. The
		// tree-steps span grafts the measured routing instance's own
		// ledger; its multiplier repeats it once per upcast/downcast
		// level and balancing wave, known once the merge is done.
		// Closing checks the span tree against the direct formula, and
		// the iteration total becomes stats.Rounds.
		led.Open(fmt.Sprintf("iteration-%02d", iter), "base rounds", 1)
		led.Open("fragment-exchange", "base rounds", 1)
		led.Charge(1)
		led.Close()
		treeSteps := led.Open("tree-steps", "base rounds per step", 0)

		// Measure the cost of one tree-routing step: every non-root
		// sends one message to its virtual parent.
		stepRep, err := measureTreeStep(h, forest, src.Child("step", uint64(iter)))
		if err != nil {
			return nil, fmt.Errorf("mst: iteration %d: %w", iter, err)
		}
		stepRounds := 0
		if stepRep != nil {
			stepRounds = stepRep.BaseRounds
			led.Attach(stepRep.Costs.Root)
		}
		led.CloseExpect(stepRounds)
		stats.StepRounds = stepRounds

		// MWOE per fragment (the upcast's semantic outcome).
		mwoe := computeMWOE(g, forest)

		// Random head/tail coins per fragment, assigned in sorted
		// fragment order so runs are reproducible (map iteration order
		// would otherwise scramble the coin stream).
		fragIDs := make([]int32, 0, len(mwoe))
		for fragID := range mwoe {
			fragIDs = append(fragIDs, fragID)
		}
		sort.Slice(fragIDs, func(a, b int) bool { return fragIDs[a] < fragIDs[b] })
		coins := make(map[int32]bool, len(fragIDs)) // true = head
		for _, fragID := range fragIDs {
			coins[fragID] = coinRng.Uint64()&1 == 0
		}

		// Snapshot for balancing before any attachment.
		snapParent := make([]int32, n)
		copy(snapParent, forest.parent)
		snapDepth := depths

		// Merge tails into heads along their MWOEs (sorted order keeps
		// the edge list and balancing deterministic).
		attach := make(map[int32][]int32) // head root -> attachment points
		for _, fragID := range fragIDs {
			e := mwoe[fragID]
			if e.edge < 0 || coins[fragID] {
				continue // head or no outgoing edge
			}
			target := forest.Fragment(e.y)
			if !coins[target] {
				continue // tail → tail: skip this iteration
			}
			forest.Attach(fragID, e.y)
			res.Edges = append(res.Edges, e.edge)
			attach[target] = append(attach[target], e.y)
			stats.Merges++
		}

		// Rebalance each head tree that received attachments.
		waves := 0
		for headRoot, points := range attach {
			b := forest.balance(headRoot, points, snapParent, snapDepth)
			if b.Waves > waves {
				waves = b.Waves
			}
		}
		stats.BalanceWaves = waves
		forest.Relabel()

		// Audit Lemma 4.1's degree invariant.
		for v := 0; v < n; v++ {
			ratio := float64(forest.InDegree(int32(v))) / float64(g.Degree(v))
			if ratio > stats.MaxInDegRatio {
				stats.MaxInDegRatio = ratio
			}
		}
		if stats.MaxInDegRatio > res.MaxInDegRatio {
			res.MaxInDegRatio = stats.MaxInDegRatio
		}

		stats.UpcastSteps = 2 * (stats.TreeDepth + 1)
		treeSteps.Mul = stats.UpcastSteps + waves
		stats.Rounds = led.CloseExpect(1 + (stats.UpcastSteps+waves)*stepRounds)
		res.AlgorithmRounds += stats.Rounds
		res.Iterations = append(res.Iterations, stats)
	}
	return nil, fmt.Errorf("mst: did not converge within %d iterations", maxIter)
}

// mwoeEdge is a fragment's minimum-weight outgoing edge: the edge ID and
// its head-side endpoint y (outside the fragment).
type mwoeEdge struct {
	edge int
	y    int32
	w    float64
}

// computeMWOE finds each fragment's minimum-weight outgoing edge, with
// ties broken by edge ID (weights are expected distinct anyway).
func computeMWOE(g *graph.Graph, f *Forest) map[int32]mwoeEdge {
	out := make(map[int32]mwoeEdge)
	for v := int32(0); v < int32(g.N()); v++ {
		if _, ok := out[f.Fragment(v)]; !ok {
			out[f.Fragment(v)] = mwoeEdge{edge: -1}
		}
	}
	for id, e := range g.Edges() {
		fu, fv := f.Fragment(int32(e.U)), f.Fragment(int32(e.V))
		if fu == fv {
			continue
		}
		consider := func(fragID, y int32) {
			best := out[fragID]
			if best.edge < 0 || e.W < best.w || (e.W == best.w && id < best.edge) {
				out[fragID] = mwoeEdge{edge: id, y: y, w: e.W}
			}
		}
		consider(fu, int32(e.V))
		consider(fv, int32(e.U))
	}
	return out
}

// measureTreeStep routes one message from every non-root node to its
// virtual-tree parent and returns the routing report (nil when every node
// is a fragment root and there is nothing to send). This is the per-level
// cost of the upcast/downcast (and of the balancing token waves, which use
// the same channel).
func measureTreeStep(h *embed.Hierarchy, f *Forest, src *rngutil.Source) (*route.Report, error) {
	g := h.Base
	reqs := make([]route.Request, 0, g.N())
	childRank := make(map[int32]int)
	for v := int32(0); v < int32(g.N()); v++ {
		p := f.Parent(v)
		if p < 0 {
			continue
		}
		idx := childRank[p] % g.Degree(int(p))
		childRank[p]++
		reqs = append(reqs, route.Request{SrcNode: int(v), DstNode: int(p), DstIndex: idx})
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	return route.Route(h, reqs, src)
}

func maxDepth(depths []int32) int {
	maxD := int32(0)
	for _, d := range depths {
		if d > maxD {
			maxD = d
		}
	}
	return int(maxD)
}

func log2int(n int) int {
	return int(math.Ceil(math.Log2(float64(n))))
}

// Kruskal computes the MST centrally (sorting by weight with edge-ID tie
// break, union-find) and returns the chosen edge IDs and total weight. It
// is the ground truth the distributed algorithms are verified against.
// It delegates to mstbase.Kruskal, which owns the implementation.
func Kruskal(g *graph.Graph) ([]int, float64) { return mstbase.Kruskal(g) }
