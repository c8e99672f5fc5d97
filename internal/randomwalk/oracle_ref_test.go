package randomwalk

// The walk engine as it stood before the flat-CSR rewrite, kept verbatim
// (renamed, unexported) as the differential oracle of oracle_test.go: per
// walk path recording through g.Edge/g.Neighbors, a per-step applyMove
// closure, per-step byNode buckets for correlated steps, and a map-keyed
// reverse replay. Only identifiers changed.

import (
	"fmt"
	"math/rand/v2"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/spectral"
)

// oracleResult is the old Result: full per-walk paths.
type oracleResult struct {
	Walks []Walk // full paths if cfg.Record, else length-1 stubs updated to endpoints
	Ends  []int32
	Stats Stats
}

// oracleRun executes one walk from each entry of sources (sources[i] = start
// node of walk i) for cfg.Steps parallel steps, and returns trajectories,
// endpoints and congestion statistics. The rng drives all token decisions;
// runs are reproducible given the same rng state.
func oracleRun(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *oracleResult {
	if cfg.Steps < 0 {
		panic("randomwalk: negative step count")
	}
	if cfg.Kind != spectral.Lazy && cfg.Kind != spectral.Regular {
		panic(fmt.Sprintf("randomwalk: unsupported walk kind %v", cfg.Kind))
	}
	nWalks := len(sources)
	res := &oracleResult{
		Ends: make([]int32, nWalks),
	}
	copy(res.Ends, sources)
	if cfg.Record {
		res.Walks = make([]Walk, nWalks)
		for i := range res.Walks {
			path := make([]int32, 1, cfg.Steps+1)
			path[0] = sources[i]
			res.Walks[i].Path = path
		}
	}
	res.Stats.PerStepMaxLoad = make([]int, cfg.Steps)

	delta := g.MaxDegree()
	edgeLoad := make([]int64, 2*g.M()) // directed: 2*id + dir
	touched := make([]int, 0, nWalks)
	tokensAt := make([]int32, g.N())
	for _, s := range sources {
		tokensAt[s]++
	}
	res.noteOccupancy(g, tokensAt)
	var inboxBuf []int // per-node occupancy copy handed to the probe
	if cfg.Probe != nil {
		inboxBuf = make([]int, g.N())
		cfg.Probe.RunStart(congest.RunInfo{
			Name:    cfg.TraceName,
			Engine:  "randomwalk",
			Workers: 1,
			Nodes:   g.N(),
			Edges:   g.M(),
		})
	}

	for step := 0; step < cfg.Steps; step++ {
		maxLoad, moves := 0, 0
		applyMove := func(i, v, next, edgeID int) {
			if next != v {
				moves++
				dir := 0
				if g.Edge(edgeID).V == next {
					dir = 1
				}
				slot := 2*edgeID + dir
				if edgeLoad[slot] == 0 {
					touched = append(touched, slot)
				}
				edgeLoad[slot]++
				if int(edgeLoad[slot]) > maxLoad {
					maxLoad = int(edgeLoad[slot])
				}
				tokensAt[v]--
				tokensAt[next]++
				res.Ends[i] = int32(next)
			}
			if cfg.Record {
				res.Walks[i].Path = append(res.Walks[i].Path, int32(next))
			}
		}
		if cfg.Correlated {
			oracleCorrelatedStep(g, cfg.Kind, res.Ends, delta, rng, applyMove)
		} else {
			for i := 0; i < nWalks; i++ {
				v := int(res.Ends[i])
				next, edgeID := oracleStepToken(g, cfg.Kind, v, delta, rng)
				applyMove(i, v, next, edgeID)
			}
		}
		if maxLoad == 0 {
			maxLoad = 1 // a phase takes at least one round even if all tokens stayed
		}
		res.Stats.PerStepMaxLoad[step] = maxLoad
		res.Stats.Rounds += maxLoad
		res.noteOccupancy(g, tokensAt)
		if cfg.Probe != nil {
			// Emit the step record before the edge loads are cleared: one
			// "round" per walk step, congestion as Lemma 2.5 counts it.
			rec := &congest.RoundRecord{
				Round:        step + 1,
				Delivered:    moves,
				Active:       nWalks,
				MaxInboxNode: -1,
				MaxEdgeLoad:  int64(maxLoad),
				InboxSizes:   inboxBuf,
				EdgeLoad:     edgeLoad,
			}
			for v, c := range tokensAt {
				inboxBuf[v] = int(c)
				if int(c) > rec.MaxInbox {
					rec.MaxInbox = int(c)
					rec.MaxInboxNode = v
				}
			}
			cfg.Probe.RoundEnd(rec)
		}
		for _, slot := range touched {
			edgeLoad[slot] = 0
		}
		touched = touched[:0]
	}
	if cfg.Probe != nil {
		cfg.Probe.RunEnd(res.Stats.Rounds, nil)
	}
	return res
}

// oracleCorrelatedStep advances every token one step with negative correlation:
// each node deals its resident tokens over a uniformly rotated "deck" of
// transition slots (d stay slots + d edge slots for the lazy walk;
// 2Δ−d(v) stay slots + d(v) edge slots for the 2Δ-regular walk), so the
// per-edge load is at most ⌈tokens/deck⌉ while every token's marginal
// transition stays exact.
func oracleCorrelatedStep(g *graph.Graph, kind spectral.WalkKind, ends []int32, delta int,
	rng *rand.Rand, applyMove func(i, v, next, edgeID int)) {
	byNode := make([][]int32, g.N())
	for i, v := range ends {
		byNode[v] = append(byNode[v], int32(i))
	}
	for v, tokens := range byNode {
		if len(tokens) == 0 {
			continue
		}
		d := g.Degree(v)
		if d == 0 {
			for _, i := range tokens {
				applyMove(int(i), v, v, -1)
			}
			continue
		}
		var deckSize, stayCount int
		switch kind {
		case spectral.Lazy:
			deckSize, stayCount = 2*d, d
		case spectral.Regular:
			deckSize, stayCount = 2*delta, 2*delta-d
		default:
			panic("randomwalk: unsupported walk kind")
		}
		// Shuffle tokens, then deal them round-robin from a random
		// deck offset: position in a random permutation plus a uniform
		// rotation makes each token's slot marginally uniform.
		for i := len(tokens) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			tokens[i], tokens[j] = tokens[j], tokens[i]
		}
		offset := rng.IntN(deckSize)
		for j, tok := range tokens {
			slot := (offset + j) % deckSize
			if slot < stayCount {
				applyMove(int(tok), v, v, -1)
				continue
			}
			h := g.Neighbors(v)[slot-stayCount]
			applyMove(int(tok), v, h.To, h.EdgeID)
		}
	}
}

// oracleStepToken draws one transition of the configured walk from node v and
// returns the next node and, if moving, the edge used (-1 when staying).
func oracleStepToken(g *graph.Graph, kind spectral.WalkKind, v, delta int, rng *rand.Rand) (next, edgeID int) {
	if g.Degree(v) == 0 {
		return v, -1 // isolated node: the token can only stay
	}
	switch kind {
	case spectral.Lazy:
		if rng.Uint64()&1 == 0 {
			return v, -1
		}
		h := g.Neighbors(v)[rng.IntN(g.Degree(v))]
		return h.To, h.EdgeID
	case spectral.Regular:
		r := rng.IntN(2 * delta)
		if r >= g.Degree(v) {
			return v, -1
		}
		h := g.Neighbors(v)[r]
		return h.To, h.EdgeID
	default:
		panic("randomwalk: unsupported walk kind")
	}
}

func (r *oracleResult) noteOccupancy(g *graph.Graph, tokensAt []int32) {
	for v, c := range tokensAt {
		if int(c) > r.Stats.MaxTokensAtNode {
			r.Stats.MaxTokensAtNode = int(c)
		}
		if d := g.Degree(v); d > 0 {
			if ratio := float64(c) / float64(d); ratio > r.Stats.MaxTokensOverDegree {
				r.Stats.MaxTokensOverDegree = ratio
			}
		}
	}
}

// oracleReverseDeliveryRounds measures the CONGEST rounds needed to run the
// given recorded walks backwards (the mechanism of §3.1.1 for informing
// sources of their endpoints). By symmetry each reverse step loads edges
// exactly as the forward step did, so the cost equals replaying the
// forward schedule; this function recomputes it from the recorded paths
// for the subset keep of walk indices (nil = all).
func oracleReverseDeliveryRounds(g *graph.Graph, walks []Walk, keep []int) int {
	if keep == nil {
		keep = make([]int, len(walks))
		for i := range keep {
			keep[i] = i
		}
	}
	if len(keep) == 0 {
		return 0
	}
	steps := 0
	for _, i := range keep {
		if len(walks[i].Path)-1 > steps {
			steps = len(walks[i].Path) - 1
		}
	}
	edgeLoad := make(map[int64]int)
	rounds := 0
	for s := steps; s >= 1; s-- {
		clear(edgeLoad)
		maxLoad := 1
		for _, i := range keep {
			path := walks[i].Path
			if s >= len(path) {
				continue
			}
			from, to := path[s], path[s-1]
			if from == to {
				continue
			}
			key := int64(from)<<32 | int64(to)
			edgeLoad[key]++
			if edgeLoad[key] > maxLoad {
				maxLoad = edgeLoad[key]
			}
		}
		rounds += maxLoad
	}
	return rounds
}
