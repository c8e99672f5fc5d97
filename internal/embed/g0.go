package embed

import (
	"fmt"
	"math/rand/v2"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/randomwalk"
	"almostmix/internal/spectral"
)

// buildG0 constructs the level-zero overlay of §3.1.1: every virtual node
// starts walksPerVNode lazy random walks of length walkLenFactor·τ_mix in
// the base graph; each walk endpoint, being (near-)stationary, lands on a
// physical node with probability proportional to its degree, and choosing
// a uniform virtual node of that endpoint yields a uniform virtual node
// overall. Each virtual node keeps degreeG0 sampled out-neighbors, and the
// recorded walk becomes the embedded path of the overlay edge.
//
// The returned overlay's ConstructionRounds is the measured cost in
// physical rounds: the forward walk execution plus the backward replay
// that informs sources of their endpoints plus the second forward replay
// that informs endpoints of their in-edges (three traversals, as in the
// paper). The two components are charged to the "walks" and
// "endpoint-replay" children of led's current span as they run.
func buildG0(g *graph.Graph, vm *VirtualMap, r resolved, tau int, rng *rand.Rand, led *cost.Ledger) (*Overlay, error) {
	m2 := vm.Count()
	walkLen := r.walkLenFactor * tau
	if walkLen < 1 {
		walkLen = 1
	}

	sources := make([]int32, 0, m2*r.walksPerVNode)
	for vid := 0; vid < m2; vid++ {
		owner := int32(vm.Owner(int32(vid)))
		for j := 0; j < r.walksPerVNode; j++ {
			sources = append(sources, owner)
		}
	}
	res := runWalks(led, g, sources, randomwalk.Config{
		Kind:   spectral.Lazy,
		Steps:  walkLen,
		Record: true,
	}, rng)

	overlay := &Overlay{
		Level:    0,
		Graph:    graph.New(m2),
		PartOf:   make([]int32, m2),
		Digit:    make([]int32, m2),
		NumParts: 1,
	}
	kept := make([]int, 0, m2*r.degreeG0)
	// seenBy[t] = vid+1 once vid's candidates reached target t, whose
	// first walk there is walkTo[t].
	seenBy := make([]int32, m2)
	walkTo := make([]int32, m2)
	order := make([]int32, 0, r.walksPerVNode)
	for vid := 0; vid < m2; vid++ {
		base := vid * r.walksPerVNode
		// Deduplicate candidate endpoints, then keep a random
		// degreeG0-subset (the paper keeps exactly 100·log n of the at
		// least 100·log n distinct endpoints).
		order = order[:0]
		for j := 0; j < r.walksPerVNode; j++ {
			w := base + j
			endPhys := int(res.Ends[w])
			target := vm.VID(endPhys, rng.IntN(vm.DegreeOf(endPhys)))
			if int(target) == vid || seenBy[target] == int32(vid)+1 {
				continue
			}
			seenBy[target] = int32(vid) + 1
			walkTo[target] = int32(w)
			order = append(order, target)
		}
		take := r.degreeG0
		if take > len(order) {
			take = len(order)
		}
		// Partial Fisher–Yates to sample `take` targets uniformly.
		for i := 0; i < take; i++ {
			j := i + rng.IntN(len(order)-i)
			order[i], order[j] = order[j], order[i]
			target := order[i]
			if e := overlay.Graph.AddEdge(vid, int(target), 1); e != len(kept) {
				panic("embed: G0 edge/path misalignment")
			}
			kept = append(kept, int(walkTo[target]))
		}
	}

	if !overlay.Graph.IsConnected() {
		return nil, fmt.Errorf("embed: G0 is disconnected (%d virtual nodes, %d edges); increase DegreeG0 or walk count",
			m2, overlay.Graph.M())
	}
	overlay.embedWalks(led, g, res, kept, walkLen, 2)
	overlay.measureEmulation()
	return overlay, nil
}
