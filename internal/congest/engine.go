package congest

// The parallel round engine. Rounds alternate two sharded phases separated
// by barriers:
//
//	deliver: each worker builds the inboxes of its receiver shard,
//	         receiver-driven — a receiver scans its own ports in order and
//	         reads the matching outbox slot of the sender across each
//	         port. Outboxes are only read in this phase.
//	step:    each worker clears the outboxes of its shard and calls Step
//	         on its non-halted nodes. Each node's outbox, RNG and program
//	         state are touched only by the worker owning its shard.
//
// Because inboxes are assembled in port order at the receiver (the same
// canonical order the sequential engine uses) and every node is owned by
// exactly one worker per phase, the execution is bit-identical to the
// sequential reference engine for every worker count: same rounds, same
// message counts, same per-node final state, same per-node RNG
// consumption. Parallelism changes wall-clock time only.
//
// Message accounting is sharded per node (Ctx.msgs, incremented only by
// the owning worker) and aggregated by Network.Messages after the run, so
// the engine has no shared mutable counters at all; the only cross-worker
// communication is the read-only outbox scan in the deliver phase, which
// the barriers order against the writes of the neighboring step phases.

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// normalizeWorkers resolves a worker-count request: values <= 0 select one
// worker per available CPU.
func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ShardBounds is the contiguous node split shared by the parallel engine's
// workers and the TCP backend's shard processes: shard i of k owns nodes
// [i·n/k, (i+1)·n/k).
func ShardBounds(n, k, i int) (lo, hi int) {
	return i * n / k, (i + 1) * n / k
}

// pad keeps per-worker counters on distinct cache lines.
const pad = 8

// workerPool is a fixed set of goroutines executing one task per shard per
// phase. Program panics are captured and re-raised on the coordinating
// goroutine, preserving the sequential engine's panic semantics.
type workerPool struct {
	tasks chan poolTask
	wg    sync.WaitGroup

	mu     sync.Mutex
	panics []any
}

type poolTask struct {
	fn    func(shard int)
	shard int
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask, workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range p.tasks {
				p.runOne(t)
			}
		}()
	}
	return p
}

func (p *workerPool) runOne(t poolTask) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			p.panics = append(p.panics, r)
			p.mu.Unlock()
		}
	}()
	t.fn(t.shard)
}

// dispatch runs fn once per shard and waits for all shards to finish. If
// any shard panicked, the first panic is re-raised here.
func (p *workerPool) dispatch(shards int, fn func(shard int)) {
	p.wg.Add(shards)
	for w := 0; w < shards; w++ {
		p.tasks <- poolTask{fn: fn, shard: w}
	}
	p.wg.Wait()
	if len(p.panics) > 0 {
		r := p.panics[0]
		p.panics = nil
		panic(r)
	}
}

func (p *workerPool) close() { close(p.tasks) }

// runParallel executes rounds on the sharded engine. Nodes are split into
// contiguous shards, one per worker; see the package comment above for the
// phase structure and the determinism argument.
func (n *Network) runParallel(maxRounds, workers int, quiet bool) (int, error) {
	if err := n.begin(); err != nil {
		return n.rounds, err
	}
	nNodes := n.g.N()
	if workers > nNodes {
		workers = nNodes
	}
	if workers < 1 {
		workers = 1
	}
	n.probeRunStart("parallel", workers)
	n.faultsRunStart(workers)
	ms := n.metricsRunStart(workers)
	for v, prog := range n.programs {
		prog.Init(&n.ctxs[v])
	}
	if n.probe != nil {
		n.probeDrainEvents() // marks/halts emitted during Init, round 0
	}
	bounds := make([]int, workers+1)
	for w := 0; w < workers; w++ {
		bounds[w], bounds[w+1] = ShardBounds(nNodes, workers, w)
	}
	delivered := make([]int, workers*pad)

	deliverPhase := func(w int) {
		count := 0
		for u := bounds[w]; u < bounds[w+1]; u++ {
			count += n.deliverTo(u, w)
		}
		delivered[w*pad] = count
	}
	stepPhase := func(w int) {
		for v := bounds[w]; v < bounds[w+1]; v++ {
			ctx := &n.ctxs[v]
			ctx.clearOutbox()
			if ctx.halted || n.nodeCrashed(v) {
				continue
			}
			n.programs[v].Step(ctx, n.inboxes[v])
		}
	}

	// With metrics attached, wrap both phase tasks so each worker
	// accumulates its shard's busy time; the fast path keeps the bare
	// closures.
	deliver, step := deliverPhase, stepPhase
	if ms != nil {
		deliver, step = ms.timed(deliverPhase), ms.timed(stepPhase)
	}
	sumDelivered := func() int {
		total := 0
		for w := 0; w < workers; w++ {
			total += delivered[w*pad]
		}
		return total
	}

	pool := newWorkerPool(workers)
	defer pool.close()
	for r := 0; r < maxRounds; r++ {
		if n.allHalted() {
			return n.finish(nil)
		}
		var t0 time.Time
		if ms != nil {
			t0 = time.Now()
		}
		pool.dispatch(workers, deliver)
		if quiet && r > 0 && sumDelivered() == 0 && n.faultsQuiet() {
			return n.finish(nil)
		}
		n.rounds++
		// The probe's active count (nodes about to step) is read here, on
		// the coordinator, between the deliver and step barriers.
		active := 0
		if n.probe != nil {
			for v := range n.ctxs {
				if !n.ctxs[v].halted && !n.nodeCrashed(v) {
					active++
				}
			}
		}
		pool.dispatch(workers, step)
		fc := n.faultsRoundEnd()
		if n.probe != nil {
			n.probeRoundFlush(sumDelivered(), active, fc)
		}
		if ms != nil {
			ms.roundEnd(t0, sumDelivered(), fc)
		}
	}
	if n.allHalted() {
		return n.finish(nil)
	}
	return n.finish(fmt.Errorf("after %d rounds: %w", n.rounds, ErrRoundLimit))
}
