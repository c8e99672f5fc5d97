// Package randomwalk runs many independent random walks in parallel on a
// graph under CONGEST edge-capacity constraints, implementing the
// scheduling of Lemmas 2.4 and 2.5 of the paper.
//
// Per walk step, every token at a node either stays (laziness) or crosses
// an incident edge. Each edge can carry one token per direction per
// CONGEST round, so executing one parallel step costs as many rounds as
// the most loaded directed edge. The engine executes walks step by step,
// measures that cost exactly, and records each token's choices so that
// walks can be replayed, re-run in reverse (the paper's mechanism for
// turning walk endpoints into usable overlay edges) and re-used as
// embedded routing paths.
package randomwalk

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"almostmix/internal/congest"
	"almostmix/internal/graph"
	"almostmix/internal/spectral"
)

// Walk is one token's trajectory: Path[s] is the node occupied after s
// steps, so Path[0] is the source and Path[len-1] the endpoint. Equal
// consecutive entries are lazy (non-moving) steps.
type Walk struct {
	Path []int32
}

// Source returns the walk's start node.
func (w *Walk) Source() int { return int(w.Path[0]) }

// End returns the walk's final node.
func (w *Walk) End() int { return int(w.Path[len(w.Path)-1]) }

// Moves returns the number of edge traversals (non-lazy steps).
func (w *Walk) Moves() int {
	moves := 0
	for i := 1; i < len(w.Path); i++ {
		if w.Path[i] != w.Path[i-1] {
			moves++
		}
	}
	return moves
}

// Stats captures the congestion quantities that Lemmas 2.4 and 2.5 bound.
// It is the aggregate view; the per-step trajectory is also exposed
// through the simulator's uniform probe layer (Config.Probe), whose
// max_edge_load column equals PerStepMaxLoad entry for entry.
type Stats struct {
	// Rounds is the total measured CONGEST rounds to execute all steps:
	// the sum over steps of the maximum directed-edge load.
	Rounds int
	// MaxTokensAtNode is the maximum, over steps and nodes, of tokens
	// simultaneously at one node (Lemma 2.4's subject).
	MaxTokensAtNode int
	// MaxTokensOverDegree is the maximum over steps and nodes of
	// tokens(v)/d(v), the degree-normalized occupancy.
	MaxTokensOverDegree float64
	// PerStepMaxLoad[s] is the maximum directed-edge load in step s
	// (the measured analogue of Lemma 2.5's O(k+log n) phase length).
	PerStepMaxLoad []int
}

// Config controls a parallel walk execution.
type Config struct {
	Kind  spectral.WalkKind // Lazy or Regular (2Δ-regular)
	Steps int               // walk length T
	// Record keeps every walk's choices (needed for reversal/embedding),
	// so Result.Path can replay any trajectory. When false only
	// endpoints and statistics are tracked.
	Record bool
	// Correlated runs the walks in the negatively-correlated fashion
	// the paper sketches for the k = o(log n) regime (the full-version
	// refinement of Lemma 2.5): per step, each node deals its resident
	// tokens across its transition slots like a shuffled deck instead
	// of sampling independently, so no edge carries more than ⌈tokens/d⌉
	// of them and the additive log n congestion term disappears. Each
	// token's marginal transition distribution is unchanged.
	Correlated bool
	// Probe, when non-nil, observes the execution through the simulator's
	// uniform observability layer: one RoundRecord per walk step, with
	// Delivered = edge traversals, MaxEdgeLoad = the step's maximum
	// directed-edge load (the Lemma 2.5 congestion, == PerStepMaxLoad),
	// InboxSizes = tokens resident per node after the step (the Lemma 2.4
	// occupancy), and Active = the token count. Hooks fire on the calling
	// goroutine; the handed slices are only valid during each call.
	Probe congest.Probe
	// TraceName labels the run in the probe's RunInfo.
	TraceName string
}

// Result is the outcome of a parallel walk execution.
type Result struct {
	Ends  []int32
	Stats Stats

	// A recorded run keeps its sources, the graph's CSR view and the
	// step-major choice log, from which Path replays any walk.
	sources []int32
	csr     *csr
	log     choiceLog
}

// Path returns walk i's trajectory: Path(i)[s] is the node occupied after
// s steps, with lazy steps repeating the node, as in Walk. The walk is
// replayed from its source through the recorded choice log, so Run must
// have been called with Config.Record.
func (r *Result) Path(i int) []int32 {
	return r.AppendPath(nil, i)
}

// AppendPath appends walk i's trajectory (see Path) to dst and returns
// the extended slice, so callers can materialise many walks into one
// buffer.
func (r *Result) AppendPath(dst []int32, i int) []int32 {
	if r.log == nil {
		panic("randomwalk: Path needs a run with Config.Record")
	}
	return r.log.appendPath(dst, r.csr, r.sources[i], i, len(r.sources))
}

// csr is a flat view of a graph's adjacency: node v's halfedges are
// off[v]..off[v+1], in Neighbors order, so a halfedge index relative to
// off[v] is the position in g.Neighbors(v).
type csr struct {
	off  []int32 // len n+1
	to   []int32 // len 2m: the halfedge's head
	slot []int32 // len 2m: directed-edge slot 2·EdgeID+dir, dir = 1 iff the head is the edge's V
}

func newCSR(g *graph.Graph) *csr {
	if g.N() >= math.MaxInt32 || 2*g.M() >= math.MaxInt32 {
		panic(fmt.Sprintf("randomwalk: graph with %d nodes and %d edges exceeds int32 indexing", g.N(), g.M()))
	}
	c := &csr{
		off:  make([]int32, g.N()+1),
		to:   make([]int32, 2*g.M()),
		slot: make([]int32, 2*g.M()),
	}
	h := 0
	for v := 0; v < g.N(); v++ {
		for _, he := range g.Neighbors(v) {
			c.to[h] = int32(he.To)
			dir := int32(0)
			if g.Edge(he.EdgeID).V == he.To {
				dir = 1
			}
			c.slot[h] = 2*int32(he.EdgeID) + dir
			h++
		}
		c.off[v+1] = int32(h)
	}
	return c
}

// halfLoad is the step engine's per-halfedge state.
type halfLoad struct{ to, load int32 }

// choice is a choice-log entry: the chosen halfedge's index among the
// walker's node's halfedges, or the type's maximum value for a stay.
type choice interface{ ~uint8 | ~uint16 | ~uint32 }

// stepLog is the step-major choice log: entry s·nWalks+i is walk i's
// choice in step s.
type stepLog[C choice] []C

// choiceLog hides the log's entry width from Result.
type choiceLog interface {
	appendPath(dst []int32, c *csr, v int32, i, stride int) []int32
}

func (l stepLog[C]) appendPath(dst []int32, c *csr, v int32, i, stride int) []int32 {
	dst = append(dst, v)
	for at := i; at < len(l); at += stride {
		if h := l[at]; h != ^C(0) {
			v = c.to[c.off[v]+int32(h)]
		}
		dst = append(dst, v)
	}
	return dst
}

// Run executes one walk from each entry of sources (sources[i] = start
// node of walk i) for cfg.Steps parallel steps, and returns endpoints,
// congestion statistics and, with cfg.Record, the choice log Path replays
// trajectories from. The rng drives all token decisions; runs are
// reproducible given the same rng state.
func Run(g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *Result {
	if cfg.Steps < 0 {
		panic("randomwalk: negative step count")
	}
	if cfg.Kind != spectral.Lazy && cfg.Kind != spectral.Regular {
		panic(fmt.Sprintf("randomwalk: unsupported walk kind %v", cfg.Kind))
	}
	// One log byte per choice while every halfedge index fits below the
	// stay marker; wider graphs get wider entries from the same engine.
	switch delta := g.MaxDegree(); {
	case delta < math.MaxUint8:
		return run[uint8](g, sources, cfg, rng)
	case delta < math.MaxUint16:
		return run[uint16](g, sources, cfg, rng)
	default:
		return run[uint32](g, sources, cfg, rng)
	}
}

// run is the step engine. Per step and walk it draws a halfedge (or a
// stay), charges the directed edge, moves the token and logs the choice.
// Random draws match the per-walk reference exactly: for lazy walks
// Uint64()&1 then IntN(d), for 2Δ-regular walks IntN(2Δ), nothing at
// isolated nodes; correlated steps draw per node, in node order.
func run[C choice](g *graph.Graph, sources []int32, cfg Config, rng *rand.Rand) *Result {
	stay := ^C(0)
	c := newCSR(g)
	off, to, slot := c.off, c.to, c.slot
	nWalks := len(sources)
	res := &Result{
		Ends:  slices.Clone(sources),
		Stats: Stats{PerStepMaxLoad: make([]int, cfg.Steps)},
	}
	ends := res.Ends
	var log stepLog[C]
	if cfg.Record {
		log = make(stepLog[C], cfg.Steps*nWalks)
		res.sources, res.csr, res.log = slices.Clone(sources), c, log
	}

	lazy := cfg.Kind == spectral.Lazy
	twoDelta := 2 * g.MaxDegree()
	// A move reads its halfedge's head and bumps its load: one cache
	// line. A halfedge is a directed edge, so per-halfedge loads are the
	// per-directed-edge loads Lemma 2.5 counts.
	half := make([]halfLoad, len(to))
	for h := range half {
		half[h].to = to[h]
	}
	touched := make([]int32, 0, min(nWalks, len(to))) // halfedges with load > 0
	tokensAt := make([]int32, g.N())
	for _, s := range sources {
		tokensAt[s]++
	}
	res.noteOccupancy(off, tokensAt)
	var pick, byNode, nodeStart []int32 // correlated steps: dealt halfedges, tokens bucketed by node
	if cfg.Correlated {
		pick = make([]int32, nWalks)
		byNode = make([]int32, nWalks)
		nodeStart = make([]int32, g.N()+1)
	}
	var inboxBuf []int           // per-node occupancy copy handed to the probe
	var edgeLoad []int64         // per directed-edge slot, handed to the probe
	var rec *congest.RoundRecord // refilled every step
	if cfg.Probe != nil {
		inboxBuf = make([]int, g.N())
		edgeLoad = make([]int64, 2*g.M())
		rec = new(congest.RoundRecord)
		cfg.Probe.RunStart(congest.RunInfo{
			Name:    cfg.TraceName,
			Engine:  "randomwalk",
			Workers: 1,
			Nodes:   g.N(),
			Edges:   g.M(),
		})
	}

	for step := 0; step < cfg.Steps; step++ {
		var row stepLog[C]
		if cfg.Record {
			row = log[step*nWalks : (step+1)*nWalks]
		}
		if cfg.Correlated {
			dealStep(off, cfg.Kind, ends, twoDelta, rng, pick, byNode, nodeStart)
		}
		maxLoad, moves := 0, 0
		for i, v := range ends {
			lo := off[v]
			h := int32(-1)
			switch d := off[v+1] - lo; {
			case cfg.Correlated:
				h = pick[i]
			case d == 0: // isolated node: the token can only stay
			case lazy:
				if rng.Uint64()&1 != 0 {
					h = lo + int32(rng.IntN(int(d)))
				}
			default:
				if r := rng.IntN(twoDelta); r < int(d) {
					h = lo + int32(r)
				}
			}
			if h < 0 {
				if row != nil {
					row[i] = stay
				}
				continue
			}
			e := &half[h]
			if e.load == 0 {
				touched = append(touched, h)
			}
			e.load++
			if l := int(e.load); l > maxLoad {
				maxLoad = l
			}
			next := e.to
			tokensAt[v]--
			tokensAt[next]++
			ends[i] = next
			moves++
			if row != nil {
				row[i] = C(h - lo)
			}
		}
		if maxLoad == 0 {
			maxLoad = 1 // a phase takes at least one round even if all tokens stayed
		}
		res.Stats.PerStepMaxLoad[step] = maxLoad
		res.Stats.Rounds += maxLoad
		res.noteOccupancy(off, tokensAt)
		if cfg.Probe != nil {
			// Emit the step record before the edge loads are cleared: one
			// "round" per walk step, congestion as Lemma 2.5 counts it.
			for _, h := range touched {
				edgeLoad[slot[h]] = int64(half[h].load)
			}
			*rec = congest.RoundRecord{
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
		for _, h := range touched {
			half[h].load = 0
			if edgeLoad != nil {
				edgeLoad[slot[h]] = 0
			}
		}
		touched = touched[:0]
	}
	if cfg.Probe != nil {
		cfg.Probe.RunEnd(res.Stats.Rounds, nil)
	}
	return res
}

// dealStep draws one negatively correlated step: each node deals its
// resident tokens over a uniformly rotated "deck" of transition slots
// (d stay slots + d edge slots for the lazy walk; 2Δ−d(v) stay slots +
// d(v) edge slots for the 2Δ-regular walk), so the per-edge load is at
// most ⌈tokens/deck⌉ while every token's marginal transition stays
// exact. pick[i] receives walk i's halfedge, or -1 to stay; byNode and
// nodeStart are scratch buckets of the tokens by node, in walk order.
func dealStep(off []int32, kind spectral.WalkKind, ends []int32, twoDelta int, rng *rand.Rand,
	pick, byNode, nodeStart []int32) {
	clear(nodeStart)
	for _, v := range ends {
		nodeStart[v+1]++
	}
	for v := 1; v < len(nodeStart); v++ {
		nodeStart[v] += nodeStart[v-1]
	}
	for i, v := range ends { // stable: each bucket lists its walks in index order
		byNode[nodeStart[v]] = int32(i)
		nodeStart[v]++
	}
	from := int32(0)
	for v := 0; v+1 < len(nodeStart); v++ {
		tokens := byNode[from:nodeStart[v]]
		from = nodeStart[v]
		if len(tokens) == 0 {
			continue
		}
		lo, d := off[v], int(off[v+1]-off[v])
		if d == 0 {
			for _, i := range tokens {
				pick[i] = -1
			}
			continue
		}
		deckSize, stayCount := 2*d, d
		if kind == spectral.Regular {
			deckSize, stayCount = twoDelta, twoDelta-d
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
			if s := (offset + j) % deckSize; s < stayCount {
				pick[tok] = -1
			} else {
				pick[tok] = lo + int32(s-stayCount)
			}
		}
	}
}

func (r *Result) noteOccupancy(off []int32, tokensAt []int32) {
	for v, c := range tokensAt {
		if int(c) > r.Stats.MaxTokensAtNode {
			r.Stats.MaxTokensAtNode = int(c)
		}
		if d := off[v+1] - off[v]; d > 0 {
			if ratio := float64(c) / float64(d); ratio > r.Stats.MaxTokensOverDegree {
				r.Stats.MaxTokensOverDegree = ratio
			}
		}
	}
}

// SourcesPerNode expands per-node walk counts into a flat source list:
// counts[v] walks start at node v.
func SourcesPerNode(counts []int) []int32 {
	total := 0
	for _, c := range counts {
		total += c
	}
	sources := make([]int32, 0, total)
	for v, c := range counts {
		for i := 0; i < c; i++ {
			sources = append(sources, int32(v))
		}
	}
	return sources
}

// UniformCountTimesDegree returns the start-count vector k·d_G(v) used by
// Lemma 2.5's premise.
func UniformCountTimesDegree(g *graph.Graph, k int) []int {
	counts := make([]int, g.N())
	for v := range counts {
		counts[v] = k * g.Degree(v)
	}
	return counts
}

// ReverseDeliveryRounds measures the CONGEST rounds needed to run the
// given recorded walks backwards (the mechanism of §3.1.1 for informing
// sources of their endpoints). By symmetry each reverse step loads edges
// exactly as the forward step did, so the cost equals replaying the
// forward schedule; this function recomputes it from the recorded paths
// for the subset keep of walk indices (nil = all). The paths must be
// walks of g.
func ReverseDeliveryRounds(g *graph.Graph, walks []Walk, keep []int) int {
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
	// Each directed edge is one halfedge of the CSR; with every node's
	// heads sorted, a binary search finds it.
	c := newCSR(g)
	for v := 0; v < g.N(); v++ {
		slices.Sort(c.to[c.off[v]:c.off[v+1]])
	}
	load := make([]int32, len(c.to))
	touched := make([]int32, 0, min(len(keep), len(c.to)))
	rounds := 0
	for s := steps; s >= 1; s-- {
		maxLoad := int32(1)
		for _, i := range keep {
			path := walks[i].Path
			if s >= len(path) {
				continue
			}
			from, to := path[s], path[s-1]
			if from == to {
				continue
			}
			heads := c.to[c.off[from]:c.off[from+1]]
			k, ok := slices.BinarySearch(heads, to)
			if !ok {
				panic(fmt.Sprintf("randomwalk: walk %d step %d crosses non-edge (%d,%d)", i, s, from, to))
			}
			h := c.off[from] + int32(k)
			if load[h] == 0 {
				touched = append(touched, h)
			}
			load[h]++
			maxLoad = max(maxLoad, load[h])
		}
		rounds += int(maxLoad)
		for _, h := range touched {
			load[h] = 0
		}
		touched = touched[:0]
	}
	return rounds
}
