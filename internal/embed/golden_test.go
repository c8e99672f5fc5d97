package embed_test

// Golden suite for the construction hot path: the exact construction
// ledger, overlay sizes and every embedded path of fixed hierarchies are
// pinned in testdata/golden/, generated from the map-queue scheduler and
// the per-walk path recorder. Any rework of randomwalk.Run, the path
// scheduler or the embed drivers must reproduce these files byte for
// byte: it may change memory layout and speed, never a random draw, a
// path or a round count.
//
// Regenerate with `go test ./internal/embed -run Golden -update` ONLY when
// the construction itself is deliberately changed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"almostmix/internal/cliquemu"
	"almostmix/internal/cost"
	"almostmix/internal/decomp"
	"almostmix/internal/embed"
	"almostmix/internal/graph"
	"almostmix/internal/mst"
	"almostmix/internal/rngutil"
	"almostmix/internal/route"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden testdata files")

// overlayDoc pins one overlay level: its size and a digest of every
// embedded path, in edge order.
type overlayDoc struct {
	Level      int    `json:"level"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Emulation  int    `json:"emulation_rounds"`
	PathSHA256 string `json:"paths_sha256"`
}

// hierarchyDoc pins one hierarchy: the flattened construction ledger
// (walks, endpoint-replay and emulation-factor spans per level) and every
// overlay.
type hierarchyDoc struct {
	ConstructionRounds int          `json:"construction_rounds"`
	Ledger             []cost.Row   `json:"ledger"`
	Overlays           []overlayDoc `json:"overlays"`
}

// clusterDoc pins one cluster tier of a partitioned build.
type clusterDoc struct {
	Nodes        int           `json:"nodes"`
	Direct       bool          `json:"direct"`
	DirectRounds int           `json:"direct_rounds,omitempty"`
	Hierarchy    *hierarchyDoc `json:"hierarchy,omitempty"`
}

type partitionedDoc struct {
	ConstructionRounds int          `json:"construction_rounds"`
	Clusters           []clusterDoc `json:"clusters"`
}

// pathDigest hashes a path set: each path as its length followed by its
// node IDs, little-endian int32.
func pathDigest(paths [][]int32) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range paths {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(p)))
		h.Write(buf[:])
		for _, v := range p {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func docOf(h *embed.Hierarchy) *hierarchyDoc {
	doc := &hierarchyDoc{
		ConstructionRounds: h.ConstructionRoundsBase(),
		Ledger:             cost.Flatten(h.Costs.Root),
	}
	for l := 0; l <= h.Levels; l++ {
		o := h.Overlay(l)
		doc.Overlays = append(doc.Overlays, overlayDoc{
			Level:      l,
			Nodes:      o.Graph.N(),
			Edges:      o.Graph.M(),
			Emulation:  o.EmulationRounds,
			PathSHA256: pathDigest(o.Paths),
		})
	}
	return doc
}

// checkGolden compares doc's JSON against testdata/golden/name.json,
// rewriting the file first under -update.
func checkGolden(t *testing.T, name string, doc any) {
	t.Helper()
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverges from golden %s:\n%s", path, got)
	}
}

// TestGoldenHierarchy pins embed.Build on rr(128,8) at two seeds.
func TestGoldenHierarchy(t *testing.T) {
	g := graph.RandomRegular(128, 8, rngutil.NewRand(5))
	for _, seed := range []uint64{3, 17} {
		t.Run(fmt.Sprint("rr128d8-seed", seed), func(t *testing.T) {
			h, err := embed.Build(g, embed.DefaultParams(), rngutil.NewSource(seed))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprint("rr128d8-seed", seed), docOf(h))
		})
	}
}

// TestGoldenPartitioned pins the cluster-scoped build on the barbell
// fixture the decomposition suite and benchsuite's decomp/build use.
func TestGoldenPartitioned(t *testing.T) {
	dec, err := decomp.Decompose(graph.Barbell(16, 8), decomp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{7, 91} {
		t.Run(fmt.Sprint("barbell16x8-seed", seed), func(t *testing.T) {
			pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(seed))
			if err != nil {
				t.Fatal(err)
			}
			doc := partitionedDoc{ConstructionRounds: pe.ConstructionRoundsBase()}
			for _, ce := range pe.Clusters {
				cd := clusterDoc{Nodes: len(ce.Cluster.Nodes), Direct: ce.Direct, DirectRounds: ce.DirectRounds}
				if !ce.Direct {
					cd.Hierarchy = docOf(ce.H)
				}
				doc.Clusters = append(doc.Clusters, cd)
			}
			checkGolden(t, fmt.Sprint("barbell16x8-seed", seed), doc)
		})
	}
}

// algorithmsDoc pins the round counts of the embedded-tier algorithms
// that consume the construction's paths and schedules.
type algorithmsDoc struct {
	RouteBaseRounds  int `json:"route_base_rounds"`
	ExactRounds      int `json:"route_exact_rounds"`
	ExactCongestion  int `json:"route_exact_congestion"`
	ExactDilation    int `json:"route_exact_dilation"`
	CliqueRounds     int `json:"clique_rounds"`
	MSTRounds        int `json:"mst_rounds"`
	MSTIterations    int `json:"mst_iterations"`
	ConstructionBase int `json:"construction_rounds"`
}

// TestGoldenAlgorithms pins Route, RouteExact, cliquemu.Hierarchical and
// mst.Run on one fixed hierarchy.
func TestGoldenAlgorithms(t *testing.T) {
	g := graph.RandomRegular(64, 6, rngutil.NewRand(1))
	p := embed.DefaultParams()
	p.Beta = 4
	p.LeafSize = 12
	h, err := embed.Build(g, p, rngutil.NewSource(42))
	if err != nil {
		t.Fatal(err)
	}
	reqs := route.DegreeDemand(g, rngutil.NewRand(8))
	rep, err := route.Route(h, reqs, rngutil.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := route.RouteExact(h, reqs, rngutil.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cliquemu.Hierarchical(h, rngutil.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	m, err := mst.Run(h, rngutil.NewSource(12))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "algorithms-rr64d6", algorithmsDoc{
		RouteBaseRounds:  rep.BaseRounds,
		ExactRounds:      ex.ExactRounds,
		ExactCongestion:  ex.Congestion,
		ExactDilation:    ex.Dilation,
		CliqueRounds:     cl.Rounds,
		MSTRounds:        m.AlgorithmRounds,
		MSTIterations:    len(m.Iterations),
		ConstructionBase: h.ConstructionRoundsBase(),
	})
}

// defaultAlgorithmsDoc pins the embedded-tier algorithms in the default
// parameter regime: one partition level whose leaf parts hold dozens of
// vids each (77 at most here), the shape of the benchmark's route
// workload, where the leaf-level BFS paths dominate routing.
type defaultAlgorithmsDoc struct {
	LeafParts        int `json:"leaf_parts"`
	MaxLeafPart      int `json:"max_leaf_part"`
	RouteBaseRounds  int `json:"route_base_rounds"`
	RouteG0Rounds    int `json:"route_g0_rounds"`
	RouteLeafG0      int `json:"route_leaf_g0_rounds"`
	ExactRounds      int `json:"route_exact_rounds"`
	ExactCongestion  int `json:"route_exact_congestion"`
	ExactDilation    int `json:"route_exact_dilation"`
	PhasedRounds     int `json:"route_phased4_rounds"`
	CliqueRounds     int `json:"clique_rounds"`
	CliquePhases     int `json:"clique_phases"`
	MSTRounds        int `json:"mst_rounds"`
	MSTIterations    int `json:"mst_iterations"`
	ConstructionBase int `json:"construction_rounds"`
}

// TestGoldenAlgorithmsDefault pins Route, RouteExact, RoutePhased with
// four phases, cliquemu.Hierarchical and mst.Run on the default-parameter
// rr128d8-seed3 hierarchy.
func TestGoldenAlgorithmsDefault(t *testing.T) {
	g := graph.RandomRegular(128, 8, rngutil.NewRand(5))
	h, err := embed.Build(g, embed.DefaultParams(), rngutil.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	leaf := h.Overlay(h.Levels)
	sizes := make([]int, leaf.NumParts)
	for _, p := range leaf.PartOf {
		sizes[p]++
	}
	doc := defaultAlgorithmsDoc{ConstructionBase: h.ConstructionRoundsBase()}
	for _, s := range sizes {
		if s > 0 {
			doc.LeafParts++
		}
		doc.MaxLeafPart = max(doc.MaxLeafPart, s)
	}
	reqs := route.DegreeDemand(g, rngutil.NewRand(8))
	rep, err := route.Route(h, reqs, rngutil.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	doc.RouteBaseRounds, doc.RouteG0Rounds, doc.RouteLeafG0 = rep.BaseRounds, rep.G0Rounds, rep.LeafG0Rounds
	ex, err := route.RouteExact(h, reqs, rngutil.NewSource(10))
	if err != nil {
		t.Fatal(err)
	}
	doc.ExactRounds, doc.ExactCongestion, doc.ExactDilation = ex.ExactRounds, ex.Congestion, ex.Dilation
	ph, err := route.RoutePhased(h, cliquemu.AllToAll(g), 4, rngutil.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	doc.PhasedRounds = ph.BaseRounds
	cl, err := cliquemu.Hierarchical(h, rngutil.NewSource(11))
	if err != nil {
		t.Fatal(err)
	}
	doc.CliqueRounds, doc.CliquePhases = cl.Rounds, cl.Phases
	m, err := mst.Run(h, rngutil.NewSource(12))
	if err != nil {
		t.Fatal(err)
	}
	doc.MSTRounds, doc.MSTIterations = m.AlgorithmRounds, len(m.Iterations)
	checkGolden(t, "algorithms-rr128d8-seed3", doc)
}

// partitionedRouteDoc pins one stitched routing run over the cluster tier.
type partitionedRouteDoc struct {
	Waves           int        `json:"waves"`
	BaseRounds      int        `json:"base_rounds"`
	ClusterRounds   int        `json:"cluster_rounds"`
	BoundaryRounds  int        `json:"boundary_rounds"`
	MaxBoundaryLoad int        `json:"max_boundary_load"`
	ClusterBatches  int        `json:"cluster_batches"`
	Ledger          []cost.Row `json:"ledger"`
}

// TestGoldenRoutePartitioned pins route.RoutePartitioned over the
// barbell cluster tier at both build seeds of TestGoldenPartitioned, so
// every cluster hierarchy's leaf paths feed a pinned round count.
func TestGoldenRoutePartitioned(t *testing.T) {
	g := graph.Barbell(16, 8)
	dec, err := decomp.Decompose(g, decomp.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{7, 91} {
		t.Run(fmt.Sprint("barbell16x8-seed", seed), func(t *testing.T) {
			pe, err := embed.BuildPartitioned(dec, embed.DefaultParams(), rngutil.NewSource(seed))
			if err != nil {
				t.Fatal(err)
			}
			reqs := route.DegreeDemand(g, rngutil.NewRand(seed+1))
			rep, err := route.RoutePartitioned(pe, reqs, rngutil.NewSource(seed+2))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprint("route-partitioned-barbell16x8-seed", seed), partitionedRouteDoc{
				Waves:           rep.Waves,
				BaseRounds:      rep.BaseRounds,
				ClusterRounds:   rep.ClusterRounds,
				BoundaryRounds:  rep.BoundaryRounds,
				MaxBoundaryLoad: rep.MaxBoundaryLoad,
				ClusterBatches:  rep.ClusterBatches,
				Ledger:          rep.Costs.Rows(),
			})
		})
	}
}
