package route

import (
	"fmt"

	"almostmix/internal/embed"
	"almostmix/internal/pathsched"
	"almostmix/internal/rngutil"
)

// RouteExact measures the same routing execution two ways: with the
// paper's per-level emulation accounting (as Route does) and by expanding
// every packet's full journey — preparation walk, every overlay-edge
// traversal at every level, every portal hop — down to base-graph edges
// and scheduling all packets store-and-forward in one CONGEST schedule.
//
// The exact makespan is the cost of the actual traffic under ideal
// pipelining across phases, so it lower-bounds any faithful execution,
// while the paper-style figure charges a full overlay round per routing
// step; the ratio between the two is the measured slack of the Lemma
// 3.1/3.2 emulation accounting (experiment E12).
type ExactReport struct {
	// Paper is the per-level-accounting report (identical to Route's).
	Paper *Report
	// ExactRounds is the makespan of the fully expanded schedule.
	ExactRounds int
	// Congestion and Dilation are the classic lower bounds of that
	// schedule: max base-edge load and max expanded path length.
	Congestion, Dilation int
}

// traversal records one overlay-edge crossing by a packet. Portal hops
// name their exact crossing edge; leaf BFS hops know only their two vids
// and record a negative edge, which the expansion resolves to the
// highest-ID edge between them.
type traversal struct {
	level    int
	edge     int32
	from, to int32
}

// RouteExact routes reqs like Route while recording every overlay-edge
// traversal, then expands and schedules the real packet paths.
func RouteExact(h *embed.Hierarchy, reqs []Request, src *rngutil.Source) (*ExactReport, error) {
	r, err := newRouter(h, reqs, src)
	if err != nil {
		return nil, err
	}
	r.trace = make([][]traversal, len(reqs))

	// Preparation with recorded walk paths, so the physical prefix of
	// each packet's journey is part of the exact schedule.
	prep := r.prepare(reqs, src, true)

	g0Cost, err := r.runRecursion()
	if err != nil {
		return nil, err
	}
	if err := r.finish(g0Cost, len(reqs)); err != nil {
		return nil, err
	}

	// Expand every packet's journey to a base-graph walk, built in one
	// scratch buffer and kept in the expander's arena.
	ex := newExpander(h)
	var buf []int32
	paths := make([][]int32, len(reqs))
	for i := range reqs {
		buf = prep.AppendPath(buf[:0], i)
		for _, tr := range r.trace[i] {
			edge := tr.edge
			if edge < 0 {
				edge = ex.edgeBetween(tr.level, tr.from, tr.to)
			}
			buf = ex.appendEdge(buf, tr.level, int(edge), tr.from)
		}
		paths[i] = ex.arena.keep(buf)
	}
	sched := pathsched.Schedule(paths)
	if err := pathsched.Validate(paths, func(a, b int32) bool {
		return h.Base.HasEdge(int(a), int(b))
	}); err != nil {
		return nil, fmt.Errorf("route: exact expansion produced a non-walk: %w", err)
	}
	return &ExactReport{
		Paper:       r.report,
		ExactRounds: sched.Makespan,
		Congestion:  sched.Congestion,
		Dilation:    sched.Dilation,
	}, nil
}

// pathArena keeps int32 paths in large shared chunks: many paths cost a
// few allocations, without the copy spikes of one doubling buffer.
type pathArena struct{ chunk []int32 }

const arenaChunk = 1 << 16

// keep copies p into the arena and returns the copy.
func (a *pathArena) keep(p []int32) []int32 {
	if cap(a.chunk)-len(a.chunk) < len(p) {
		a.chunk = make([]int32, 0, max(arenaChunk, len(p)))
	}
	at := len(a.chunk)
	a.chunk = append(a.chunk, p...)
	return a.chunk[at:len(a.chunk):len(a.chunk)]
}

// expander memoizes the physical expansion of overlay edges.
type expander struct {
	h *embed.Hierarchy
	// memo[level][edge] is the forward (U→V) physical path, nil until
	// computed. Paths above level 0 are built in scratch[level] and kept
	// in arena; level-0 paths are the overlay's own embedded paths.
	memo    [][][]int32
	scratch [][]int32
	arena   pathArena
}

func newExpander(h *embed.Hierarchy) *expander {
	ex := &expander{
		h:       h,
		memo:    make([][][]int32, h.Levels+1),
		scratch: make([][]int32, h.Levels+1),
	}
	for l := range ex.memo {
		ex.memo[l] = make([][]int32, h.Overlay(l).Graph.M())
	}
	return ex
}

// edgeBetween finds the overlay edge between two vids at the given level.
// Parallel edges embed different paths, so the choice is fixed: the
// highest edge ID.
func (ex *expander) edgeBetween(level int, a, b int32) int32 {
	id := -1
	for _, he := range ex.h.Overlay(level).Graph.Neighbors(int(a)) {
		if he.To == int(b) && he.EdgeID > id {
			id = he.EdgeID
		}
	}
	if id < 0 {
		panic(fmt.Sprintf("route: no level-%d edge between vids %d and %d", level, a, b))
	}
	return int32(id)
}

// appendEdge appends the physical walk of overlay edge `edge` at `level`,
// oriented to start at the owner of vid `from`, to dst. When dst ends at
// the walk's first node, the two join there and that node is not
// repeated.
func (ex *expander) appendEdge(dst []int32, level, edge int, from int32) []int32 {
	fwd := ex.forward(level, edge)
	joins := func(v int32) bool { return len(dst) > 0 && dst[len(dst)-1] == v }
	if int(from) == ex.h.Overlay(level).Graph.Edge(edge).U {
		if joins(fwd[0]) {
			fwd = fwd[1:]
		}
		return append(dst, fwd...)
	}
	i := len(fwd) - 1
	if joins(fwd[i]) {
		i--
	}
	for ; i >= 0; i-- {
		dst = append(dst, fwd[i])
	}
	return dst
}

// forward computes (and memoizes) the U→V physical path of an overlay
// edge.
func (ex *expander) forward(level, edge int) []int32 {
	if p := ex.memo[level][edge]; p != nil {
		return p
	}
	o := ex.h.Overlay(level)
	e := o.Graph.Edge(edge)
	below := o.EdgePath(edge, int32(e.U))
	if level == 0 {
		ex.memo[0][edge] = below // already physical
		return below
	}
	out := ex.scratch[level][:0]
	for i := 1; i < len(below); i++ {
		a, b := below[i-1], below[i]
		if a == b {
			continue
		}
		out = ex.appendEdge(out, level-1, int(ex.edgeBetween(level-1, a, b)), a)
	}
	if len(out) == 0 {
		// Degenerate all-lazy path: stay at the owner.
		out = append(out, int32(ex.h.VM.Owner(int32(e.U))))
	}
	ex.scratch[level] = out
	p := ex.arena.keep(out)
	ex.memo[level][edge] = p
	return p
}
