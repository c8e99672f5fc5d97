package workloads_test

// Tests of the retry drivers: an empty fault spec must reduce to the
// plain fault-free run; under real faults the walks driver must recover
// every token and the GHS driver the exact MST, surviving a crashed
// fragment coordinator; an exhausted budget or a permanently severed link
// must be reported honestly. Every execution runs on Proc with 1, 2 and
// 8 workers and must be bit-identical across them.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"almostmix/internal/faults"
	"almostmix/internal/mstbase"
	"almostmix/internal/randomwalk"
	"almostmix/internal/rngutil"
	"almostmix/internal/transport"
	"almostmix/internal/transport/workloads"
)

// onEveryEngine runs drive over Proc with 1, 2 and 8 workers, requires
// identical results, and returns the sequential engine's.
func onEveryEngine[R any](t *testing.T, drive func(tr transport.Transport) (R, error)) R {
	t.Helper()
	var want R
	for i, workers := range []int{1, 2, 8} {
		got, err := drive(transport.Proc{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: result diverges from sequential\n got %+v\nwant %+v", workers, got, want)
		}
	}
	return want
}

func runWalks(t *testing.T, spec transport.Spec, attempts int) *workloads.FaultyWalkResult {
	t.Helper()
	spec.Workload = "walks-faults"
	return onEveryEngine(t, func(tr transport.Transport) (*workloads.FaultyWalkResult, error) {
		return workloads.RunWalksFaults(tr, spec, transport.Options{}, attempts)
	})
}

func runGHS(t *testing.T, spec transport.Spec, attempts int) *workloads.FaultyMSTResult {
	t.Helper()
	spec.Workload = "ghs-faults"
	return onEveryEngine(t, func(tr transport.Transport) (*workloads.FaultyMSTResult, error) {
		return workloads.RunGHSFaults(tr, spec, transport.Options{}, attempts)
	})
}

// TestWalksFaultsEmptySpec: with no fault spec, the walks driver is
// randomwalk.RunNetwork plus inert accounting — same arrivals, rounds,
// messages, one attempt, nothing re-issued or lost.
func TestWalksFaultsEmptySpec(t *testing.T) {
	spec := transport.Spec{Graph: "rr", N: 48, D: 4, K: 1, Steps: 8, Seed: 21, SrcSeed: 21, FaultSeed: 7}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := randomwalk.RunNetwork(g, randomwalk.UniformCountTimesDegree(g, spec.K), spec.Steps,
		rngutil.NewSource(spec.SrcSeed), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := runWalks(t, spec, 3)
	if !reflect.DeepEqual(res.ArrivedAt, plain.ArrivedAt) {
		t.Errorf("arrivals differ from fault-free run")
	}
	if res.Rounds != plain.Rounds || res.Messages != plain.Messages {
		t.Errorf("rounds/messages %d/%d, want %d/%d", res.Rounds, res.Messages, plain.Rounds, plain.Messages)
	}
	if res.Attempts != 1 || res.Reissued != 0 || res.Lost != 0 {
		t.Errorf("attempts/reissued/lost = %d/%d/%d, want 1/0/0", res.Attempts, res.Reissued, res.Lost)
	}
	if res.Faults != (faults.Counts{}) {
		t.Errorf("fault counts %+v on empty plan", res.Faults)
	}
}

// TestWalksFaultsRecoversTokens: under a genuinely lossy plan the retry
// loop must eventually land every token (total arrivals = total issued,
// Lost = 0), re-issuing at least one along the way.
func TestWalksFaultsRecoversTokens(t *testing.T) {
	spec := transport.Spec{
		Graph: "rr", N: 32, D: 4, K: 1, Steps: 10, Seed: 5, SrcSeed: 5,
		FaultSpec: "drop=0.08,dup=0.05,delay=0.08:2", FaultSeed: 11,
	}
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := runWalks(t, spec, 12)

	issued, got := 0, 0
	for _, c := range randomwalk.UniformCountTimesDegree(g, spec.K) {
		issued += c
	}
	for _, c := range res.ArrivedAt {
		got += c
	}
	if got != issued || res.Lost != 0 {
		t.Fatalf("recovered %d of %d tokens, lost %d — retry loop failed", got, issued, res.Lost)
	}
	if res.Faults.Dropped == 0 {
		t.Fatalf("no drops injected; test exercises nothing (faults %+v)", res.Faults)
	}
	if res.Reissued == 0 || res.Attempts < 2 {
		t.Fatalf("attempts %d, reissued %d — expected at least one retry under drops", res.Attempts, res.Reissued)
	}
}

// TestWalksFaultsExhaustsAttempts: with total loss and a capped attempt
// budget, the driver must stop at the cap and report everything still
// outstanding as lost rather than spinning: attempts = budget, lost =
// all issued, reissued = issued·(budget−1).
func TestWalksFaultsExhaustsAttempts(t *testing.T) {
	const issued, budget = 2, 4
	spec := transport.Spec{
		Graph: "ring", N: 4, WalkCounts: []int{issued, 0, 0, 0}, Steps: 3, SrcSeed: 1,
		FaultSpec: "drop=1.0", FaultSeed: 3,
	}
	res := runWalks(t, spec, budget)
	if res.Attempts != budget {
		t.Errorf("attempts %d, want the full budget %d", res.Attempts, budget)
	}
	if res.Lost != issued {
		t.Errorf("lost %d tokens, want all %d", res.Lost, issued)
	}
	if want := issued * (budget - 1); res.Reissued != want {
		t.Errorf("reissued %d, want %d per non-final attempt = %d", res.Reissued, issued, want)
	}
	for v, c := range res.ArrivedAt {
		if c != 0 {
			t.Errorf("node %d absorbed %d tokens under total loss", v, c)
		}
	}
}

// ghsSpec is a 24-node 4-regular graph with distinct random weights.
func ghsSpec(seed uint64) transport.Spec {
	return transport.Spec{Graph: "rr", N: 24, D: 4, Seed: seed, SrcSeed: seed, WeightSeed: seed}
}

// TestGHSFaultsEmptySpec: with no fault spec, the GHS driver is
// mstbase.GHSNetwork plus inert accounting — same tree, rounds, one
// attempt.
func TestGHSFaultsEmptySpec(t *testing.T) {
	spec := ghsSpec(3)
	spec.FaultSeed = 7
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mstbase.GHSNetwork(g, rngutil.NewSource(spec.SrcSeed), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainEdges := slices.Clone(plain.Edges)
	slices.Sort(plainEdges)

	res := runGHS(t, spec, 3)
	if !res.Recovered || res.Attempts != 1 {
		t.Fatalf("recovered=%v attempts=%d, want true/1", res.Recovered, res.Attempts)
	}
	if res.Rounds != plain.Rounds || res.Weight != plain.Weight || !slices.Equal(res.Edges, plainEdges) {
		t.Errorf("(rounds=%d weight=%v) differs from fault-free (rounds=%d weight=%v)",
			res.Rounds, res.Weight, plain.Rounds, plain.Weight)
	}
}

// TestGHSFaultsConvergesToMST: under drops, duplication and delays the
// faulty execution must still land the exact MST, validated against
// Kruskal.
func TestGHSFaultsConvergesToMST(t *testing.T) {
	for _, fs := range []string{
		"drop=0.02",
		"drop=0.03,dup=0.03,delay=0.03:2",
	} {
		spec := ghsSpec(11)
		spec.FaultSpec, spec.FaultSeed = fs, 5
		g, err := transport.BuildGraph(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, wantWeight := mstbase.Kruskal(g)
		res := runGHS(t, spec, 8)
		if !res.Recovered {
			t.Fatalf("%s: did not recover the MST in %d attempts (faults %+v)", fs, res.Attempts, res.Faults)
		}
		if res.Weight != wantWeight {
			t.Fatalf("%s: recovered weight %v, Kruskal %v", fs, res.Weight, wantWeight)
		}
		if res.Faults == (faults.Counts{}) {
			t.Fatalf("%s: no faults injected; test exercises nothing", fs)
		}
	}
}

// TestGHSFaultsCoordinatorCrash: crashing nodes mid-run — including
// stretches long enough to take out a fragment coordinator across a
// window boundary — must be survivable: the affected windows stall and
// retry after recovery, and the run still produces the exact MST.
func TestGHSFaultsCoordinatorCrash(t *testing.T) {
	spec := ghsSpec(29)
	g, err := transport.BuildGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, wantWeight := mstbase.Kruskal(g)
	// Node 23 is the largest ID, hence the root of whatever fragment it
	// merges into; knock it out across two window boundaries.
	w := mstbase.GHSWindow(g.N())
	spec.FaultSpec, spec.FaultSeed = fmt.Sprintf("crash=23@2+%d,crash=5@%d+%d", 2*w, w+3, w), 13

	res := runGHS(t, spec, 8)
	if !res.Recovered || res.Weight != wantWeight {
		t.Fatalf("crash run: recovered=%v weight=%v (want %v) after %d attempts, faults %+v",
			res.Recovered, res.Weight, wantWeight, res.Attempts, res.Faults)
	}
	if res.Faults.Crashed == 0 {
		t.Fatal("no crash rounds recorded; spec exercised nothing")
	}
}

// TestGHSFaultsUnrecoverable: a permanently severed link starves the
// fragment-ID exchange forever; every attempt must burn its budget and
// the driver must report the failure honestly instead of fabricating a
// tree.
func TestGHSFaultsUnrecoverable(t *testing.T) {
	spec := ghsSpec(7)
	spec.FaultSpec, spec.FaultSeed = "sever=0@1", 3
	res := runGHS(t, spec, 2)
	if res.Recovered {
		t.Fatal("recovered an MST with a permanently severed edge starving the exchange")
	}
	if res.Attempts != 2 {
		t.Errorf("attempts %d, want the full budget 2", res.Attempts)
	}
	if len(res.Edges) != 0 || res.Weight != 0 {
		t.Errorf("unrecovered result carries edges/weight: %v/%v", res.Edges, res.Weight)
	}
}
