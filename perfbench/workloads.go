package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"almostmix/internal/cliquemu"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/mst"
	"almostmix/internal/mstbase"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
	"almostmix/internal/spectral"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// sizes fixes the input sizes of every workload family.
type sizes struct {
	hierN, hierD               int // rr(hierN, hierD): the build and route base graph
	walksN, walksD, walksSteps int // walks-proc: rr(walksN, walksD), k=1, walksSteps steps
	ghsN, ghsD                 int // ghs-tcp: rr(ghsN, ghsD)
}

var fullSizes = sizes{
	hierN: 256, hierD: 8,
	walksN: 8192, walksD: 8, walksSteps: 16,
	ghsN: 512, ghsD: 8,
}

// opStats is what one operation reports: the host time spent inside
// program calls (input generation and output checks excluded) and the
// simulated rounds the operation charged.
type opStats struct {
	host   time.Duration
	rounds float64
}

// family is a workload's state between operations. op runs operation i
// with inputs derived from (seed, i), checks its output and returns an
// error when the call or the check fails. A non-nil tracer records a
// span around every program call.
type family interface {
	op(i int, tr *tracer) (opStats, error)
}

// workload is one named benchmark input.
type workload struct {
	name string
	// minOps is the number of operations every run completes; the
	// simulated counts are taken over exactly these.
	minOps int
	setup  func(cfg *config) (family, error)
}

var allWorkloads = []workload{
	{"build", 2, func(cfg *config) (family, error) {
		hs, err := setupHier(cfg)
		return buildFamily{hs}, err
	}},
	{"route", 5, func(cfg *config) (family, error) { return setupRoute(cfg) }},
	{"walks-proc", 8, func(cfg *config) (family, error) { return setupWalks(cfg) }},
	{"ghs-tcp", 8, func(cfg *config) (family, error) { return setupGHS(cfg) }},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

// warmUpOp is the index of the operation the walks-proc and ghs-tcp
// set-ups run once, checked but not measured, so the heap and the
// loopback stack are warm when measuring starts. It is -1 so its inputs
// differ from every measured operation's.
const warmUpOp = -1

// errCheck marks an output that failed its check.
var errCheck = errors.New("output check failed")

// fixture roots the workloads' fixed inputs: the base graphs and the
// route workload's hierarchy are the same for every seed, so a run's
// figures vary with the seed only through what its operations draw
// (walk and build randomness, demands, edge weights), not through a
// different instance.
var fixture = rngutil.NewSource(1)

// --- build and route: the embedded tier on rr(hierN, hierD) ---

// hierState holds the base graph with distinct weights and its exact
// lazy mixing time, shared by the build and route workloads.
type hierState struct {
	cfg    *config
	src    *rngutil.Source
	g      *graph.Graph
	params embed.Params
}

func setupHier(cfg *config) (*hierState, error) {
	g := graph.RandomRegular(cfg.sz.hierN, cfg.sz.hierD, rngutil.NewRand(fixture.Derive("hier-graph", 0)))
	g.AssignDistinctRandomWeights(rngutil.NewRand(fixture.Derive("hier-weights", 0)))
	tau, err := spectral.MixingTime(g, spectral.Lazy, 1_000_000)
	if err != nil {
		return nil, fmt.Errorf("mixing time: %w", err)
	}
	p := embed.DefaultParams()
	p.TauMix = tau
	return &hierState{cfg: cfg, src: rngutil.NewSource(cfg.seed), g: g, params: p}, nil
}

// opSource is the randomness root of one program call of operation i.
func (s *hierState) opSource(label string, i int) *rngutil.Source {
	return rngutil.NewSource(s.src.Derive(label, uint64(i)))
}

// build runs embed.Build with randomness root src and validates the
// hierarchy.
func (s *hierState) build(src *rngutil.Source, tr *tracer) (*embed.Hierarchy, opStats, error) {
	var st opStats
	var h *embed.Hierarchy
	err := tr.call("embed.Build", &st.host, func() (err error) {
		h, err = embed.Build(s.g, s.params, src)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	st.rounds = float64(h.ConstructionRoundsBase())
	if s.cfg.corrupt != nil {
		s.cfg.corrupt(h)
	}
	if err := h.Validate(); err != nil {
		return h, st, fmt.Errorf("%w: %v", errCheck, err)
	}
	return h, st, nil
}

// buildFamily is the build workload: one embed.Build per operation.
type buildFamily struct{ *hierState }

func (b buildFamily) op(i int, tr *tracer) (opStats, error) {
	_, st, err := b.build(b.opSource("build", i), tr)
	return st, err
}

// routeState is the route workload: operations reuse one hierarchy.
type routeState struct {
	*hierState
	h       *embed.Hierarchy
	mstWant []int // sorted Kruskal edge IDs
}

func setupRoute(cfg *config) (*routeState, error) {
	hs, err := setupHier(cfg)
	if err != nil {
		return nil, err
	}
	h, _, err := hs.build(rngutil.NewSource(fixture.Derive("route-hierarchy", 0)), nil)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	want, _ := mst.Kruskal(hs.g)
	slices.Sort(want)
	return &routeState{hierState: hs, h: h, mstWant: want}, nil
}

// routeOut holds the outputs of one route operation.
type routeOut struct {
	packets int
	rep     *route.Report
	exact   *route.ExactReport
	clique  *cliquemu.Result
	mst     *mst.Result
}

// run performs route operation i: degree-demand routing by level
// accounting and by exact schedule, clique emulation and the
// hierarchical MST, all on the same hierarchy.
func (s *routeState) run(i int, tr *tracer) (routeOut, opStats, error) {
	var st opStats
	var out routeOut
	reqs := route.DegreeDemand(s.g, rngutil.NewRand(s.src.Derive("route-demand", uint64(i))))
	out.packets = len(reqs)
	err := errors.Join(
		tr.call("route.Route", &st.host, func() (err error) {
			out.rep, err = route.Route(s.h, reqs, s.opSource("route", i))
			return err
		}),
		tr.call("route.RouteExact", &st.host, func() (err error) {
			out.exact, err = route.RouteExact(s.h, reqs, s.opSource("route-exact", i))
			return err
		}),
		tr.call("cliquemu.Hierarchical", &st.host, func() (err error) {
			out.clique, err = cliquemu.Hierarchical(s.h, s.opSource("clique", i))
			return err
		}),
		tr.call("mst.Run", &st.host, func() (err error) {
			out.mst, err = mst.Run(s.h, s.opSource("mst", i))
			return err
		}))
	if err != nil {
		return out, st, err
	}
	// The four round counts differ by orders of magnitude; their
	// geometric mean weighs a relative change in any of them alike.
	st.rounds = math.Pow(float64(out.rep.BaseRounds)*float64(out.exact.ExactRounds)*
		float64(out.clique.Rounds)*float64(out.mst.AlgorithmRounds), 0.25)
	if s.cfg.corrupt != nil {
		s.cfg.corrupt(out.mst)
	}
	n := s.g.N()
	switch got := sortedCopy(out.mst.Edges); {
	case out.rep.Delivered != len(reqs):
		err = fmt.Errorf("route delivered %d of %d packets", out.rep.Delivered, len(reqs))
	case out.exact.Paper.Delivered != len(reqs):
		err = fmt.Errorf("exact route delivered %d of %d packets", out.exact.Paper.Delivered, len(reqs))
	case out.clique.Messages != n*(n-1):
		err = fmt.Errorf("clique emulation delivered %d of %d messages", out.clique.Messages, n*(n-1))
	case !slices.Equal(got, s.mstWant):
		err = fmt.Errorf("MST has %d edges and differs from Kruskal's %d", len(got), len(s.mstWant))
	}
	if err != nil {
		return out, st, fmt.Errorf("%w: %v", errCheck, err)
	}
	return out, st, nil
}

func (s *routeState) op(i int, tr *tracer) (opStats, error) {
	_, st, err := s.run(i, tr)
	return st, err
}

// --- walks-proc: message-heavy CONGEST on the in-process engine ---

type walksState struct {
	cfg  *config
	src  *rngutil.Source
	spec transport.Spec // SrcSeed is set per operation
	want int            // arrivals: k walks per unit of degree, k·2m
}

func setupWalks(cfg *config) (*walksState, error) {
	src := rngutil.NewSource(cfg.seed)
	spec := transport.Spec{Workload: "walks", Graph: "rr", N: cfg.sz.walksN, D: cfg.sz.walksD,
		K: 1, Steps: cfg.sz.walksSteps, Seed: fixture.Derive("walks-graph", 0)}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	s := &walksState{cfg: cfg, src: src, spec: spec, want: spec.K * 2 * g.M()}
	if _, _, err := s.run(warmUpOp, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *walksState) specFor(i int) transport.Spec {
	spec := s.spec
	spec.SrcSeed = s.src.Derive("walks-src", uint64(i))
	return spec
}

// run performs walks operation i on Proc{Workers: 1}. Traced, it also
// hands the engine a metrics registry, which is part of what tracing
// costs.
func (s *walksState) run(i int, tr *tracer) (transport.Result, opStats, error) {
	var st opStats
	var res transport.Result
	opts := transport.Options{}
	if tr != nil {
		opts.Metrics = metrics.New()
	}
	err := tr.call("transport.Proc.Run", &st.host, func() (err error) {
		res, err = transport.Proc{Workers: 1}.Run(s.specFor(i), opts)
		return err
	})
	if err != nil {
		return res, st, err
	}
	st.rounds = float64(res.Rounds)
	return res, st, s.check(res)
}

func (s *walksState) check(res transport.Result) error {
	if s.cfg.corrupt != nil {
		s.cfg.corrupt(&res)
	}
	out, ok := res.Output.(workloads.WalksOutput)
	if !ok || out.Arrived != s.want {
		return fmt.Errorf("%w: %d of %d walks arrived", errCheck, out.Arrived, s.want)
	}
	return nil
}

func (s *walksState) op(i int, tr *tracer) (opStats, error) {
	_, st, err := s.run(i, tr)
	return st, err
}

// --- ghs-tcp: round-heavy CONGEST over the TCP transport ---

type ghsState struct {
	cfg  *config
	src  *rngutil.Source
	spec transport.Spec // WeightSeed is set per operation
}

func setupGHS(cfg *config) (*ghsState, error) {
	src := rngutil.NewSource(cfg.seed)
	spec := transport.Spec{Workload: "ghs", Graph: "rr", N: cfg.sz.ghsN, D: cfg.sz.ghsD,
		Seed: fixture.Derive("ghs-graph", 0), SrcSeed: src.Derive("ghs-src", 0)}
	s := &ghsState{cfg: cfg, src: src, spec: spec}
	if _, _, err := s.run(warmUpOp, nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *ghsState) specFor(i int) transport.Spec {
	spec := s.spec
	spec.WeightSeed = s.src.Derive("ghs-weights", uint64(i)) | 1 // nonzero
	return spec
}

// run performs ghs operation i over two loopback TCP shards. reg, when
// non-nil, receives the coordinator's tcpnet_* telemetry.
func (s *ghsState) run(i int, tr *tracer, reg *metrics.Registry) (transport.Result, opStats, error) {
	var st opStats
	var res transport.Result
	err := tr.call("transport.TCP.Run", &st.host, func() (err error) {
		res, err = loopbackTCP().Run(s.specFor(i), transport.Options{Metrics: reg})
		return err
	})
	if err != nil {
		return res, st, err
	}
	st.rounds = float64(res.Rounds)
	return res, st, s.check(i, res)
}

// check compares the GHS tree with Kruskal's on the operation's graph.
func (s *ghsState) check(i int, res transport.Result) error {
	if s.cfg.corrupt != nil {
		s.cfg.corrupt(&res)
	}
	g, err := transport.BuildGraph(s.specFor(i))
	if err != nil {
		return err
	}
	want, _ := mstbase.Kruskal(g)
	slices.Sort(want)
	out, ok := res.Output.(workloads.MSTOutput)
	if got := sortedCopy(out.Edges); !ok || !slices.Equal(got, want) {
		return fmt.Errorf("%w: GHS tree has %d edges and differs from Kruskal's %d", errCheck, len(out.Edges), len(want))
	}
	return nil
}

func (s *ghsState) op(i int, tr *tracer) (opStats, error) {
	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.New()
	}
	_, st, err := s.run(i, tr, reg)
	return st, err
}

// loopbackTCP is the two-shard TCP backend with its shards served by
// goroutines of this process over loopback connections, so the run
// needs no node binary. Every shard goroutine has returned once Run
// does: the coordinator waits on each handle before returning.
func loopbackTCP() transport.TCP {
	return transport.TCP{
		Shards:  2,
		Timeout: 60 * time.Second,
		Spawn: func(shard int, addr string) (transport.ShardHandle, error) {
			done := make(chan error, 1)
			go func() {
				conn, err := transport.DialShard(addr, 10*time.Second)
				if err != nil {
					done <- err
					return
				}
				done <- transport.ServeShard(conn, shard, transport.ShardConfig{})
			}()
			return transport.ShardHandle{Wait: func() error { return <-done }, Kill: func() {}}, nil
		},
	}
}

// sortedCopy returns xs sorted, leaving xs as it was.
func sortedCopy(xs []int) []int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
