package embed

import (
	"fmt"
	"math/rand/v2"

	"almostmix/internal/cost"
	"almostmix/internal/graph"
	"almostmix/internal/pathsched"
	"almostmix/internal/randomwalk"
)

// Overlay is one level of the hierarchical embedding: a virtual graph on
// the 2m virtual nodes, together with, for each overlay edge, the path in
// the level below along which it is embedded.
//
// Level 0 is the Erdős–Rényi-style graph G0, embedded in the base graph
// (paths are physical node sequences). Level ℓ ≥ 1 is a disjoint union of
// per-part random graphs, embedded in level ℓ−1 (paths are virtual node
// sequences over the level-(ℓ−1) overlay).
type Overlay struct {
	// Level is 0 for G0, ℓ for Gℓ.
	Level int
	// Graph is the overlay topology on virtual-node indices.
	Graph *graph.Graph
	// Paths[e] is the embedded path of overlay edge e in the level
	// below (physical nodes for level 0).
	Paths [][]int32
	// PartOf[vid] is the part index of vid at this level; level 0 has a
	// single part 0. Part indices satisfy
	// part_ℓ = part_{ℓ-1}·β + digit_ℓ, so siblings share a parent quotient.
	PartOf []int32
	// Digit[vid] is this level's β-ary partition digit (level 0: 0).
	Digit []int32
	// NumParts is β^level (parts may be empty).
	NumParts int
	// ConstructionRounds is the measured cost of building this level,
	// in rounds of the level below (physical rounds for level 0).
	ConstructionRounds int
	// EmulationRounds is the measured cost of one full communication
	// round of this overlay (one message each way on every overlay
	// edge), in rounds of the level below.
	EmulationRounds int
}

// runWalks executes a level's walks inside a "walks" child of led's
// current span, charging their measured rounds to it.
func runWalks(led *cost.Ledger, g *graph.Graph, sources []int32, cfg randomwalk.Config, rng *rand.Rand) *randomwalk.Result {
	led.Open("walks", led.Current().Unit, 1)
	res := randomwalk.Run(g, sources, cfg, rng)
	led.Charge(res.Stats.Rounds)
	led.Close()
	return res
}

// embedWalks makes the kept walks of res (steps long, one per overlay
// edge, in edge order) the overlay's embedded paths, materialised into
// one buffer. It charges the endpoint replay, replays reverse or forward
// traversals of the kept walks on g, to an "endpoint-replay" child of
// led's current span. ConstructionRounds is the walk execution plus the
// replay.
func (o *Overlay) embedWalks(led *cost.Ledger, g *graph.Graph, res *randomwalk.Result, kept []int, steps, replays int) {
	flat := make([]int32, 0, len(kept)*(steps+1))
	o.Paths = make([][]int32, len(kept))
	walks := make([]randomwalk.Walk, len(kept))
	for e, w := range kept {
		at := len(flat)
		flat = res.AppendPath(flat, w)
		o.Paths[e] = flat[at:len(flat):len(flat)]
		walks[e].Path = o.Paths[e]
	}
	led.Open("endpoint-replay", led.Current().Unit, 1)
	replay := replays * randomwalk.ReverseDeliveryRounds(g, walks, nil)
	led.Charge(replay)
	led.Close()
	o.ConstructionRounds = res.Stats.Rounds + replay
}

// measureEmulation schedules one packet per direction over every overlay
// edge's embedded path and records the makespan as EmulationRounds. The
// reversed copies share one buffer.
func (o *Overlay) measureEmulation() {
	total := 0
	for _, p := range o.Paths {
		total += len(p)
	}
	back := make([]int32, total)
	paths := make([][]int32, 0, 2*len(o.Paths))
	for _, p := range o.Paths {
		r := back[:len(p):len(p)]
		back = back[len(p):]
		for i, v := range p {
			r[len(p)-1-i] = v
		}
		paths = append(paths, p, r)
	}
	res := pathsched.Schedule(paths)
	o.EmulationRounds = res.Makespan
	if o.EmulationRounds == 0 {
		o.EmulationRounds = 1
	}
}

func reversed(p []int32) []int32 {
	out := make([]int32, len(p))
	for i, v := range p {
		out[len(p)-1-i] = v
	}
	return out
}

// EdgePath returns the embedded path of edge e oriented to start at the
// overlay endpoint from. Paths are stored oriented U→V; note that path
// entries live in the space of the level below (physical nodes for level
// 0), so orientation keys off the edge's endpoints, not path contents.
func (o *Overlay) EdgePath(e int, from int32) []int32 {
	edge := o.Graph.Edge(e)
	switch int(from) {
	case edge.U:
		return o.Paths[e]
	case edge.V:
		return reversed(o.Paths[e])
	default:
		panic(fmt.Sprintf("embed: vid %d is not an endpoint of edge %d", from, e))
	}
}

// SamePart reports whether two virtual nodes are in the same part at this
// level.
func (o *Overlay) SamePart(a, b int32) bool { return o.PartOf[a] == o.PartOf[b] }

// PartSizes returns the size of every non-empty part, keyed by part index.
func (o *Overlay) PartSizes() map[int32]int {
	sizes := make(map[int32]int)
	for _, p := range o.PartOf {
		sizes[p]++
	}
	return sizes
}

// Validate checks that every embedded path is a walk in the provided
// level-below adjacency and connects the edge's endpoints. project maps
// an overlay endpoint into the space path entries live in (the owner's
// physical node for level 0, identity for upper levels).
func (o *Overlay) Validate(adjacentBelow func(a, b int32) bool, project func(vid int32) int32) error {
	for e, edge := range o.Graph.Edges() {
		p := o.Paths[e]
		if len(p) == 0 {
			return fmt.Errorf("embed: level %d edge %d has empty path", o.Level, e)
		}
		u, v := project(int32(edge.U)), project(int32(edge.V))
		endsOK := p[0] == u && p[len(p)-1] == v
		if !endsOK {
			return fmt.Errorf("embed: level %d edge %d=(%d,%d) path ends (%d,%d)",
				o.Level, e, edge.U, edge.V, p[0], p[len(p)-1])
		}
		if err := pathsched.Validate([][]int32{p}, adjacentBelow); err != nil {
			return fmt.Errorf("embed: level %d edge %d: %w", o.Level, e, err)
		}
	}
	return nil
}
