package workloads

// The retry drivers of the fault-aware workloads, run over any
// Transport: Proc for the in-process engines, TCP for shard processes,
// with identical results. Each attempt is one tr.Run of the workload's
// single-attempt builder; the cross-attempt state travels in the Spec:
// the derived per-attempt fault seed in FaultSeed, the attempt index in
// Retry (offsetting the program RNG stream only), and for walks the
// re-issue counts and sequence bases in WalkCounts/WalkSeqBase. A whole
// faulty execution is a pure function of (spec, fault spec, fault seed)
// and bit-identical across backends, engines and worker counts.
//
// Walks: tokens are identified by (origin, sequence), an attempt runs
// until the network falls silent (with the fault layer's quiet rules,
// silence means no token is in flight or delayed and no crashed node is
// due to recover), and every issued token not absorbed by then is a
// casualty of a drop, sever or crash and is re-issued from its origin on
// the next attempt.
//
// GHS: the node program's defensive machinery (window stamping,
// per-port dedup, poisoning, label repair; see mstbase) makes a faulted
// window stall and retry rather than commit a corrupt choice, so most
// fault patterns heal in-run. The driver adds the outer story: each
// attempt's chosen edges are validated against the centralized GHS
// oracle (weights are distinct, so the MST is unique), and an attempt
// that stalled past its round budget or produced a non-MST edge set (in
// rare multi-fault corners, e.g. label splits straddling an uncommitted
// core edge) restarts from scratch with a derived RNG stream.

import (
	"errors"
	"fmt"
	"slices"

	"almostmix/internal/congest"
	"almostmix/internal/faults"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
)

// FaultyWalkResult extends NetworkWalkResult with the retry accounting
// of a faulty walk run. Rounds and Messages accumulate over all
// attempts.
type FaultyWalkResult struct {
	randomwalk.NetworkWalkResult
	// Attempts is the number of network runs executed (1 = first attempt
	// already delivered every token).
	Attempts int
	// Reissued counts tokens re-issued after being lost to faults.
	Reissued int
	// Lost counts tokens still unabsorbed when the attempt budget ran
	// out; 0 means every walk completed.
	Lost int
	// Faults aggregates the injected fault events over all attempts.
	Faults faults.Counts
}

// FaultyMSTResult extends mstbase.Result with the retry accounting of a
// faulty GHS run. Rounds and Iterations accumulate over all attempts.
type FaultyMSTResult struct {
	mstbase.Result
	// Attempts is the number of network runs executed (1 = the first
	// attempt already produced the MST).
	Attempts int
	// Recovered reports whether the final attempt's edge set is exactly
	// the MST. When false, Edges and Weight are zero — the attempt budget
	// ran out before the algorithm converged.
	Recovered bool
	// Faults aggregates the injected fault events over all attempts.
	Faults faults.Counts
}

// RunWalksFaults runs the walks-faults workload over tr for up to
// maxAttempts attempts (maxAttempts < 1 means 1), re-issuing tokens lost
// to faults under fresh sequence numbers. An empty FaultSpec reduces to
// the plain walk run with retry accounting around it. Spec's
// Workload/Retry/WalkCounts/WalkSeqBase fields are owned by the driver
// and overwritten; FaultSeed seeds the per-attempt derivation.
func RunWalksFaults(tr transport.Transport, spec transport.Spec, opts transport.Options, maxAttempts int) (*FaultyWalkResult, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	counts, err := walkCounts(spec, g)
	if err != nil {
		return nil, err
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	faultSrc := rngutil.NewSource(spec.FaultSeed)

	res := &FaultyWalkResult{}
	res.ArrivedAt = make([]int, g.N())

	// outstanding tracks every issued-but-unabsorbed token; issue[v] and
	// nextSeq[v]-issue[v] give the count and first sequence number of the
	// tokens node v injects on the next attempt.
	outstanding := make(map[randomwalk.WalkTokenID]struct{})
	nextSeq := make([]int, g.N())
	issue := make([]int, g.N())
	for v, c := range counts {
		issue[v] = c
		for s := 0; s < c; s++ {
			outstanding[randomwalk.WalkTokenID{Origin: int32(v), Seq: int32(s)}] = struct{}{}
		}
		nextSeq[v] = c
	}

	for attempt := 0; attempt < maxAttempts && len(outstanding) > 0; attempt++ {
		seqBase := make([]int, g.N())
		for v := range issue {
			seqBase[v] = nextSeq[v] - issue[v]
		}
		aspec := spec
		aspec.Workload = "walks-faults"
		aspec.FaultSeed = faultSrc.Derive("attempt", uint64(attempt))
		aspec.Retry = attempt
		aspec.WalkCounts = append([]int(nil), issue...)
		aspec.WalkSeqBase = seqBase
		run, err := tr.Run(aspec, opts)
		if err != nil {
			return nil, fmt.Errorf("workloads: walks-faults attempt %d: %w", attempt, err)
		}
		out, ok := run.Output.(WalksFaultsOutput)
		if !ok {
			return nil, fmt.Errorf("workloads: walks-faults attempt %d returned %T", attempt, run.Output)
		}
		res.Rounds += run.Rounds
		res.Messages += run.Messages
		res.Faults.Add(run.Faults)
		res.Attempts++

		// Reconcile: first absorption of an outstanding token counts;
		// duplicate arrivals of already-settled tokens are ignored.
		for v, ids := range out.Absorbed {
			for _, id := range ids {
				if _, open := outstanding[id]; open {
					delete(outstanding, id)
					res.ArrivedAt[v]++
				}
			}
		}
		// Whatever is still outstanding was lost: re-issue it from its
		// origin on the next attempt. The lost IDs are retired and fresh
		// sequence numbers minted, so a straggling duplicate of a lost
		// token can never masquerade as its replacement.
		for v := range issue {
			issue[v] = 0
		}
		for id := range outstanding {
			issue[id.Origin]++
		}
		if len(outstanding) == 0 || attempt+1 == maxAttempts {
			continue // loop condition ends the run; Lost reads outstanding
		}
		fresh := make(map[randomwalk.WalkTokenID]struct{}, len(outstanding))
		for v, c := range issue {
			for s := 0; s < c; s++ {
				fresh[randomwalk.WalkTokenID{Origin: int32(v), Seq: int32(nextSeq[v] + s)}] = struct{}{}
			}
			nextSeq[v] += c
		}
		res.Reissued += len(outstanding)
		outstanding = fresh
	}
	res.Lost = len(outstanding)
	return res, nil
}

// RunGHSFaults runs the ghs-faults workload over tr for up to
// maxAttempts attempts (maxAttempts < 1 means 1), restarting from
// scratch until an attempt's merged edge set equals the centralized
// oracle's MST. A round-limited attempt is still checked (its harvest
// may hold the MST). An empty FaultSpec reduces to the plain GHS run
// with retry accounting around it. Spec's Workload/Retry fields are
// owned by the driver; FaultSeed seeds the per-attempt derivation.
func RunGHSFaults(tr transport.Transport, spec transport.Spec, opts transport.Options, maxAttempts int) (*FaultyMSTResult, error) {
	g, err := transport.BuildGraph(spec)
	if err != nil {
		return nil, err
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	ref, err := mstbase.GHS(g)
	if err != nil {
		return nil, err
	}
	want := append([]int(nil), ref.Edges...)
	slices.Sort(want)

	faultSrc := rngutil.NewSource(spec.FaultSeed)
	res := &FaultyMSTResult{}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		aspec := spec
		aspec.Workload = "ghs-faults"
		aspec.FaultSeed = faultSrc.Derive("attempt", uint64(attempt))
		aspec.Retry = attempt
		run, rerr := tr.Run(aspec, opts)
		// A round-limited attempt is not necessarily a failure: when the
		// "none" decision is partially dropped, some nodes halt while the
		// rest stall against their silence, with the MST already chosen.
		// The backends harvest such an attempt (partial output and totals
		// included) and the oracle check, not the error, decides.
		// Anything else is fatal.
		if rerr != nil && !errors.Is(rerr, congest.ErrRoundLimit) {
			return nil, fmt.Errorf("workloads: ghs-faults attempt %d: %w", attempt, rerr)
		}
		out, ok := run.Output.(MSTOutput)
		if !ok {
			return nil, fmt.Errorf("workloads: ghs-faults attempt %d returned %T", attempt, run.Output)
		}
		res.Rounds += run.Rounds
		res.Iterations += mstbase.GHSIterations(g.N(), run.Rounds)
		res.Faults.Add(run.Faults)
		res.Attempts++

		got := append([]int(nil), out.Edges...)
		slices.Sort(got)
		if slices.Equal(got, want) {
			res.Recovered = true
			res.Edges = got
			res.Weight = g.TotalWeight(got)
			return res, nil
		}
	}
	return res, nil
}

// CrashShardSpec builds a fault-spec clause crashing every node of
// shard i (of shards over n nodes, split by congest.ShardBounds like
// the TCP backend) at round at, recovering after dur rounds: the "kill
// a whole shard and let it come back" scenario the TCP fault suite runs
// end-to-end. Compose with other clauses by joining with commas.
func CrashShardSpec(n, shards, i, at, dur int) string {
	lo, hi := congest.ShardBounds(n, shards, i)
	spec := ""
	for v := lo; v < hi; v++ {
		if spec != "" {
			spec += ","
		}
		spec += fmt.Sprintf("crash=%d@%d+%d", v, at, dur)
	}
	return spec
}
