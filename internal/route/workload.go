package route

import (
	"fmt"
	"math/rand/v2"

	"almostmix/internal/cost"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/rngutil"
)

// RandomPermutation generates the canonical permutation-routing workload:
// node i sends one packet to node π(i) for a uniform random permutation π
// (fixed points are allowed and route trivially). Every node is the
// destination of exactly one packet, which lands on its virtual index 0.
func RandomPermutation(g *graph.Graph, rng *rand.Rand) []Request {
	perm := rngutil.Perm(rng, g.N())
	reqs := make([]Request, g.N())
	for i, p := range perm {
		reqs[i] = Request{SrcNode: i, DstNode: p, DstIndex: 0}
	}
	return reqs
}

// DegreeDemand generates the paper's full-rate workload: each node v
// sends d_G(v) packets to destinations drawn with probability proportional
// to degree, so every node is also the destination of ≈ d_G(v) packets in
// expectation (the Theorem 1.2 premise). Destination virtual indices are
// assigned round-robin per destination.
func DegreeDemand(g *graph.Graph, rng *rand.Rand) []Request {
	// Degree-proportional sampling via the edge list: a uniform random
	// edge endpoint is degree-distributed.
	reqs := make([]Request, 0, 2*g.M())
	nextIndex := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		for i := 0; i < g.Degree(v); i++ {
			e := g.Edge(rng.IntN(g.M()))
			dst := e.U
			if rng.Uint64()&1 == 0 {
				dst = e.V
			}
			idx := nextIndex[dst] % g.Degree(dst)
			nextIndex[dst]++
			reqs = append(reqs, Request{SrcNode: v, DstNode: dst, DstIndex: idx})
		}
	}
	return reqs
}

// RoutePhased implements the footnote-3 extension: when nodes are sources
// or destinations of up to K·d_G(v) packets, split the packets into
// `phases` uniformly random phases and route each phase separately; the
// reported costs are the sums over phases.
func RoutePhased(h *embed.Hierarchy, reqs []Request, phases int, src *rngutil.Source) (*Report, error) {
	if phases < 1 {
		return nil, fmt.Errorf("route: phases must be >= 1, got %d", phases)
	}
	if phases == 1 {
		return Route(h, reqs, src)
	}
	rng := src.Stream("phase-split", 0)
	buckets := make([][]Request, phases)
	for _, req := range reqs {
		b := rng.IntN(phases)
		buckets[b] = append(buckets[b], req)
	}
	led := cost.New("route-phased", "base rounds")
	total := &Report{HopG0Rounds: make([]int, h.Levels), Costs: led}
	for b, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		// The phase's own ledger is grafted under a per-phase span that
		// is open while the phase runs, checked against the phase
		// report's base-round total.
		led.Open(fmt.Sprintf("phase-%d", b), "base rounds", 1)
		rep, err := Route(h, bucket, src.Child("phase", uint64(b)))
		if err != nil {
			return nil, fmt.Errorf("route: phase %d: %w", b, err)
		}
		led.Attach(rep.Costs.Root)
		led.CloseExpect(rep.BaseRounds)
		total.Delivered += rep.Delivered
		total.PrepRounds += rep.PrepRounds
		total.G0Rounds += rep.G0Rounds
		total.LeafG0Rounds += rep.LeafG0Rounds
		total.LeafSchedules += rep.LeafSchedules
		for l := range rep.HopG0Rounds {
			total.HopG0Rounds[l] += rep.HopG0Rounds[l]
		}
		if rep.MaxPortalLoad > total.MaxPortalLoad {
			total.MaxPortalLoad = rep.MaxPortalLoad
		}
	}
	total.BaseRounds = led.Close()
	if err := led.Err(); err != nil {
		return nil, fmt.Errorf("route: phased cost ledger: %w", err)
	}
	return total, nil
}
