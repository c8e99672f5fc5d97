package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/metrics"
	"almostmix/internal/pathsched"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/spectral"
	"almostmix/internal/transport"
)

// runTraced is the traced run. Whatever the workload, it first runs one
// leg per workload family, each at operation 0 of the seed with a span
// around every program call, and turns the spans and the program's own
// counts into the per-layer metrics:
//
//   - build: embed.Build, then a replay of the randomwalk, pathsched
//     calls Build made, each checked against the number Build recorded;
//   - route: route.Route, route.RouteExact, cliquemu.Hierarchical and
//     mst.Run on the route workload's hierarchy;
//   - walks-proc: the Proc run, then its instance build and engine run
//     apart, a ticker run on the same graph (the engine floor) and the
//     same spec over the TCP transport (the wire);
//   - ghs-tcp: the TCP run, then the same spec over Proc.
//
// Every transport run of the traced run has a metrics registry attached,
// the TCP coordinator's tcpnet_* telemetry included.
//
// It then alternates untraced and traced operations of the chosen
// workload for the run's measuring time, for trace.overhead_frac. A
// replayed call that does not reproduce the program's number counts as
// a failed check and makes the result incorrect.
func runTraced(w workload, cfg *config) (result, error) {
	tr := &tracer{}
	res := result{Correct: true, Metrics: map[string]metric{}}
	fams := map[string]family{}
	legs := []struct {
		name string
		run  func() error
	}{
		{"build", func() (err error) {
			fams["build"], err = buildLeg(cfg, tr, &res)
			return err
		}},
		{"route", func() (err error) {
			fams["route"], err = routeLeg(cfg, tr, &res)
			return err
		}},
		{"walks-proc", func() (err error) {
			fams["walks-proc"], err = walksLeg(cfg, tr, &res)
			return err
		}},
		{"ghs-tcp", func() (err error) {
			fams["ghs-tcp"], err = ghsLeg(cfg, tr, &res)
			return err
		}},
	}
	for _, leg := range legs {
		if err := leg.run(); err != nil {
			return res, fmt.Errorf("%s leg: %w", leg.name, err)
		}
	}

	fam := fams[w.name]
	var plain, traced []float64
	start := time.Now()
	for i := 1; len(plain) == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		for _, t := range []*tracer{nil, tr} {
			runtime.GC() // as before every untraced operation
			st, err := fam.op(i, t)
			if err := res.op(err); err != nil {
				return res, err
			}
			if t == nil {
				plain = append(plain, st.host.Seconds())
			} else {
				traced = append(traced, st.host.Seconds())
			}
		}
	}
	res.layer("trace.overhead_frac", median(traced)/median(plain)-1, "frac", "none: tracing cost on "+w.name)
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// op counts one checked operation. A failed output check is counted and
// swallowed; any other error is returned, since it leaves nothing to
// measure.
func (r *result) op(err error) error {
	r.Attempted++
	if err == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	if errors.Is(err, errCheck) {
		r.Failed++
		return nil
	}
	return err
}

// expect is one replay-fidelity check: a replayed layer call must
// reproduce the number the program recorded.
func (r *result) expect(what string, got, want int) {
	r.Attempted++
	if got != want {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: replay fidelity: %s = %d, program recorded %d\n", what, got, want)
	}
}

// layer records one per-layer metric, and prints it to standard error
// with the end-to-end metric it is expected to move.
func (r *result) layer(name string, v float64, unit, target string) {
	r.set(name, v, unit)
	fmt.Fprintf(os.Stderr, "%-38s %16.6g %-6s -> %s\n", name, r.Metrics[name].Value, unit, target)
}

// --- build leg: embed, randomwalk, pathsched ---

const buildTarget = "op_s, peak_rss_mb on build; setup_s on route"

func buildLeg(cfg *config, tr *tracer, res *result) (family, error) {
	hs, err := setupHier(cfg)
	if err != nil {
		return nil, err
	}
	src := hs.opSource("build", 0)
	runtime.GC()
	heapBefore := heapAlloc()
	h, _, err := hs.build(src, tr)
	if err := res.op(err); err != nil || h == nil {
		return nil, errors.Join(err, errors.New("no hierarchy"))
	}
	runtime.GC()
	live := float64(heapAlloc()) - float64(heapBefore)
	b := tr.last("embed.Build")

	mark := len(tr.spans)
	work := replayConstruction(hs, h, src, tr, res)
	rw := tr.sumSince(mark, "randomwalk.Run")
	rev := tr.sumSince(mark, "randomwalk.ReverseDeliveryRounds")
	ps := tr.sumSince(mark, "pathsched.Schedule")

	set := func(name string, v float64, unit string) { res.layer(name, v, unit, buildTarget) }
	set("embed.Build.s", b.seconds(), "s")
	set("embed.Build.alloc_mb", b.allocMB(), "MB")
	set("embed.Build.mallocs", float64(b.mallocs), "count")
	set("embed.Build.live_mb", live/(1<<20), "MB")
	set("embed.self_s", b.seconds()-rw.seconds()-rev.seconds()-ps.seconds(), "s")
	set("randomwalk.Run.s", rw.seconds(), "s")
	set("randomwalk.Run.token_steps", float64(work.tokenSteps), "count")
	set("randomwalk.Run.ns_per_token_step", rw.seconds()*1e9/float64(work.tokenSteps), "ns")
	set("randomwalk.Run.alloc_mb", rw.allocMB(), "MB")
	set("randomwalk.ReverseDeliveryRounds.s", rev.seconds(), "s")
	set("pathsched.Schedule.s", ps.seconds(), "s")
	set("pathsched.Schedule.hops", float64(work.hops), "count")
	set("pathsched.Schedule.ns_per_hop", ps.seconds()*1e9/float64(work.hops), "ns")
	set("pathsched.Schedule.alloc_mb", ps.allocMB(), "MB")

	var walkRounds, replayRounds int
	for _, sp := range h.Costs.Root.Children {
		if sp.Mul > 0 { // the overlay levels; emulation-factors is informational
			walkRounds += sp.Mul * sp.Child("walks").Total()
			replayRounds += sp.Mul * sp.Child("endpoint-replay").Total()
		}
	}
	set("embed.construction_rounds", float64(h.ConstructionRoundsBase()), "rounds")
	set("embed.walk_rounds", float64(walkRounds), "rounds")
	set("embed.replay_rounds", float64(replayRounds), "rounds")
	set("embed.emulation_rounds.g0", float64(h.G0.EmulationRounds), "rounds")
	for l := 1; l <= h.Levels; l++ {
		set(fmt.Sprintf("embed.emulation_rounds.level-%d", l), float64(h.Overlay(l).EmulationRounds), "rounds")
	}
	return buildFamily{hs}, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// replayWork is the work the replayed calls did.
type replayWork struct{ tokenSteps, hops int }

// replayConstruction re-executes the randomwalk and pathsched calls that
// embed.Build made for hierarchy h, built from randomness root src, with
// the same inputs and random streams, and checks each against the count the hierarchy
// recorded: walk rounds and endpoint-replay rounds per level against
// the construction ledger, schedule makespans against the overlays'
// emulation rounds. The replay mirrors Build's own derivation of walk
// counts and lengths; a change to that derivation shows up here as a
// failed fidelity check.
func replayConstruction(hs *hierState, h *embed.Hierarchy, src *rngutil.Source, tr *tracer, res *result) replayWork {
	var work replayWork
	led := h.Costs.Root
	walk := func(g *graph.Graph, sources []int32, cfg randomwalk.Config, stream string, idx uint64) int {
		var out *randomwalk.Result
		tr.call("randomwalk.Run", nil, func() error {
			out = randomwalk.Run(g, sources, cfg, src.Stream(stream, idx))
			return nil
		})
		work.tokenSteps += len(sources) * cfg.Steps
		return out.Stats.Rounds
	}
	reverse := func(g *graph.Graph, paths [][]int32) int {
		walks := make([]randomwalk.Walk, len(paths))
		for i, p := range paths {
			walks[i].Path = p
		}
		var rounds int
		tr.call("randomwalk.ReverseDeliveryRounds", nil, func() error {
			rounds = randomwalk.ReverseDeliveryRounds(g, walks, nil)
			return nil
		})
		return rounds
	}

	// G0: WalksPerVirtualNode lazy walks from every virtual node's owner.
	var sources []int32
	for vid := 0; vid < h.VM.Count(); vid++ {
		for j := 0; j < h.Resolved.WalksPerVirtualNode; j++ {
			sources = append(sources, int32(h.VM.Owner(int32(vid))))
		}
	}
	g0 := led.Child("g0")
	res.expect("g0 walk rounds", walk(h.Base, sources,
		randomwalk.Config{Kind: spectral.Lazy, Steps: max(h.Resolved.WalkLen, 1), Record: true}, "g0", 0),
		g0.Child("walks").Total())
	res.expect("g0 endpoint-replay rounds", 2*reverse(h.Base, h.G0.Paths), g0.Child("endpoint-replay").Total())

	// Levels: SuccessMargin·OverlayDegree·β 2Δ-regular walks per virtual
	// node on the level below, 2⌈log₂ s⌉+4 steps for the largest part s.
	perNode := int(hs.params.SuccessMargin * float64(h.Resolved.OverlayDegree) * float64(h.Resolved.Beta))
	for l := 1; l <= h.Levels; l++ {
		below := h.Overlay(l - 1)
		maxPart := 0
		for _, s := range below.PartSizes() {
			maxPart = max(maxPart, s)
		}
		sources = sources[:0]
		for vid := 0; vid < below.Graph.N(); vid++ {
			for j := 0; j < perNode; j++ {
				sources = append(sources, int32(vid))
			}
		}
		sp := led.Child(fmt.Sprintf("level-%d", l))
		cfg := randomwalk.Config{Kind: spectral.Regular, Steps: 2*log2ceil(maxPart) + 4, Record: true}
		res.expect(fmt.Sprintf("level-%d walk rounds", l), walk(below.Graph, sources, cfg, "level", uint64(l)),
			sp.Child("walks").Total())
		res.expect(fmt.Sprintf("level-%d endpoint-replay rounds", l), reverse(below.Graph, h.Overlay(l).Paths),
			sp.Child("endpoint-replay").Total())
	}

	// Emulation: one packet each way along every overlay edge's path.
	for l := 0; l <= h.Levels; l++ {
		o := h.Overlay(l)
		paths := make([][]int32, 0, 2*len(o.Paths))
		for _, p := range o.Paths {
			paths = append(paths, p, reversed(p))
			work.hops += 2 * hops(p)
		}
		var sched pathsched.Result
		tr.call("pathsched.Schedule", nil, func() error {
			sched = pathsched.Schedule(paths)
			return nil
		})
		res.expect(fmt.Sprintf("level-%d emulation makespan", l), max(sched.Makespan, 1), o.EmulationRounds)
	}
	return work
}

// log2ceil returns ⌈log₂ x⌉ for x ≥ 1.
func log2ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(x))))
}

func reversed(p []int32) []int32 {
	out := slices.Clone(p)
	slices.Reverse(out)
	return out
}

// hops counts a path's edge traversals, lazy repeats excluded.
func hops(p []int32) int {
	n := 0
	for i := 1; i < len(p); i++ {
		if p[i] != p[i-1] {
			n++
		}
	}
	return n
}

// --- route leg: route, cliquemu, mst ---

func routeLeg(cfg *config, tr *tracer, res *result) (*routeState, error) {
	rs, err := setupRoute(cfg)
	if err != nil {
		return nil, err
	}
	out, _, err := rs.run(0, tr)
	if err := res.op(err); err != nil || out.mst == nil {
		return nil, errors.Join(err, errors.New("no route output"))
	}
	const target = "op_s on route"
	for _, name := range []string{"route.Route", "route.RouteExact", "cliquemu.Hierarchical", "mst.Run"} {
		sp := tr.last(name)
		res.layer(name+".s", sp.seconds(), "s", target)
		res.layer(name+".alloc_mb", sp.allocMB(), "MB", target)
	}
	res.layer("route.packets", float64(out.rep.Delivered), "count", target)
	res.layer("mst.iterations", float64(len(out.mst.Iterations)), "count", target)
	res.layer("route.route_rounds", float64(out.rep.BaseRounds), "rounds", target)
	res.layer("route.exact_rounds", float64(out.exact.ExactRounds), "rounds", target)
	res.layer("cliquemu.clique_rounds", float64(out.clique.Rounds), "rounds", target)
	res.layer("mst.mst_rounds", float64(out.mst.AlgorithmRounds), "rounds", target)
	return rs, nil
}

// --- walks leg: congest, randomwalk's network walks, the wire ---

func walksLeg(cfg *config, tr *tracer, res *result) (*walksState, error) {
	ws, err := setupWalks(cfg)
	if err != nil {
		return nil, err
	}
	procRes, _, err := ws.run(0, tr)
	if err := res.op(err); err != nil {
		return nil, err
	}
	proc := tr.last("transport.Proc.Run")
	spec := ws.specFor(0)

	// The same run with its instance build and engine call apart.
	inst, err := buildInstance(tr, spec, "transport.Workload.Build")
	if err != nil {
		return nil, err
	}
	rounds, msgs, err := runInstance(tr, inst, "congest.Network.Run")
	if err != nil {
		return nil, err
	}
	res.expect("walks engine rounds", rounds, procRes.Rounds)
	res.expect("walks engine messages", msgs, procRes.Messages)
	eng := tr.last("congest.Network.Run")

	// The engine floor: every node broadcasts for as many rounds as the
	// walks take steps, on the same graph.
	tspec := transport.Spec{Workload: "ticker", Graph: spec.Graph, N: spec.N, D: spec.D,
		Steps: spec.Steps, Seed: spec.Seed, SrcSeed: spec.SrcSeed}
	tinst, err := buildInstance(tr, tspec, "transport.Workload.Build.ticker")
	if err != nil {
		return nil, err
	}
	_, tmsgs, err := runInstance(tr, tinst, "congest.Network.Run.ticker")
	if err != nil {
		return nil, err
	}
	ticker := tr.last("congest.Network.Run.ticker")

	// The wire: the same spec and telemetry over two loopback TCP shards.
	var tcpRes transport.Result
	if err := tr.call("transport.TCP.Run", nil, func() (err error) {
		tcpRes, err = loopbackTCP().Run(spec, transport.Options{Metrics: metrics.New()})
		return err
	}); err != nil {
		return nil, err
	}
	res.expect("walks tcp rounds", tcpRes.Rounds, procRes.Rounds)
	res.expect("walks tcp messages", tcpRes.Messages, procRes.Messages)
	if err := res.op(ws.check(tcpRes)); err != nil {
		return nil, err
	}
	tcp := tr.last("transport.TCP.Run")

	const target = "op_s on walks-proc"
	m := float64(msgs)
	msgNS := eng.seconds() * 1e9 / m
	tickNS := ticker.seconds() * 1e9 / float64(tmsgs)
	res.layer("transport.instance_build_s", tr.last("transport.Workload.Build").seconds(), "s", target)
	res.layer("congest.run_s", eng.seconds(), "s", target)
	res.layer("congest.msg_ns", msgNS, "ns", target)
	res.layer("congest.allocs_per_msg", float64(eng.mallocs)/m, "count", target)
	res.layer("congest.alloc_mb", eng.allocMB(), "MB", target)
	res.layer("congest.gc_cycles", float64(eng.gcs), "count", target)
	res.layer("congest.ticker_msg_ns", tickNS, "ns", target)
	res.layer("randomwalk.step_msg_ns", msgNS-tickNS, "ns", target)
	res.layer("transport.wire_tax_ns_per_msg", (tcp.seconds()-proc.seconds())*1e9/m, "ns",
		"op_s on ghs-tcp, the workload that uses the wire")
	res.layer("congest.net_rounds", float64(rounds), "rounds", target)
	res.layer("congest.net_messages", m, "count", target)
	return ws, nil
}

func buildInstance(tr *tracer, spec transport.Spec, span string) (*transport.Instance, error) {
	wl, err := transport.Lookup(spec.Workload)
	if err != nil {
		return nil, err
	}
	var inst *transport.Instance
	err = tr.call(span, nil, func() (err error) {
		inst, err = wl.Build(spec)
		return err
	})
	return inst, err
}

// runInstance runs an instance on the sequential engine the way Proc
// does, and returns its rounds and delivered messages.
func runInstance(tr *tracer, inst *transport.Instance, span string) (rounds, msgs int, err error) {
	err = tr.call(span, nil, func() (err error) {
		net := congest.NewNetwork(inst.Graph, inst.Programs, inst.Source).SetWorkers(1)
		if inst.Quiet {
			rounds, err = net.RunUntilQuiet(inst.MaxRounds)
		} else {
			rounds, err = net.Run(inst.MaxRounds)
		}
		msgs = net.Messages()
		return err
	})
	return rounds, msgs, err
}

// --- ghs leg: transport over the wire, mstbase's GHS ---

func ghsLeg(cfg *config, tr *tracer, res *result) (*ghsState, error) {
	gs, err := setupGHS(cfg)
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	tcpRes, _, err := gs.run(0, tr, reg)
	if err := res.op(err); err != nil {
		return nil, err
	}
	tcp := tr.last("transport.TCP.Run")

	var procRes transport.Result
	if err := tr.call("transport.Proc.Run", nil, func() (err error) {
		procRes, err = transport.Proc{Workers: 1}.Run(gs.specFor(0), transport.Options{Metrics: metrics.New()})
		return err
	}); err != nil {
		return nil, err
	}
	proc := tr.last("transport.Proc.Run")
	res.expect("ghs proc rounds", procRes.Rounds, tcpRes.Rounds)
	res.expect("ghs proc messages", procRes.Messages, tcpRes.Messages)
	if err := res.op(gs.check(0, procRes)); err != nil {
		return nil, err
	}

	snap := reg.Snapshot()
	counter := func(name string) float64 {
		v, _ := snap.Counter(name)
		return float64(v)
	}
	const target = "op_s on ghs-tcp"
	r := float64(tcpRes.Rounds)
	roundUS := tcp.seconds() * 1e6 / r
	procUS := proc.seconds() * 1e6 / r
	res.layer("transport.round_us", roundUS, "us", target)
	for _, q := range []struct {
		metric, hist string
		q            float64
	}{
		{"transport.deliver_wait_ns.p50", "tcpnet_deliver_wait_ns", 0.50},
		{"transport.deliver_wait_ns.p99", "tcpnet_deliver_wait_ns", 0.99},
		{"transport.step_wait_ns.p50", "tcpnet_step_wait_ns", 0.50},
		{"transport.step_wait_ns.p99", "tcpnet_step_wait_ns", 0.99},
		{"transport.flush_ns.p50", "tcpnet_flush_ns", 0.50},
		{"transport.round_skew_ns.p99", "tcpnet_round_skew_ns", 0.99},
	} {
		res.layer(q.metric, float64(snap.Histogram(q.hist).Quantile(q.q)), "ns", target)
	}
	res.layer("transport.frames_per_round", counter("tcpnet_frames_total")/r, "count", target)
	res.layer("transport.bytes_per_round", counter("tcpnet_bytes_total")/r, "B", target)
	res.layer("transport.proc_round_us", procUS, "us", target)
	res.layer("transport.wire_tax_us_per_round", roundUS-procUS, "us", target)
	res.layer("transport.net_rounds", r, "rounds", target)
	res.layer("transport.net_messages", float64(tcpRes.Messages), "count", target)
	return gs, nil
}
