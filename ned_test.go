package ned

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

func testGraphPair(t *testing.T) (*Graph, *Graph) {
	t.Helper()
	g1 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 1})
	g2 := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.1, Seed: 2})
	return g1, g2
}

func TestPublicDistanceBasics(t *testing.T) {
	g1, g2 := testGraphPair(t)
	d := Distance(g1, 0, g2, 0, 3)
	if d < 0 {
		t.Fatalf("negative distance %d", d)
	}
	if Distance(g1, 5, g1, 5, 3) != 0 {
		t.Error("distance to self must be 0")
	}
	if Distance(g1, 3, g2, 7, 3) != Distance(g2, 7, g1, 3, 3) {
		t.Error("public Distance must be symmetric")
	}
}

func TestPublicSignatureAPI(t *testing.T) {
	g1, g2 := testGraphPair(t)
	s1 := NewSignature(g1, 4, 2)
	s2 := NewSignature(g2, 9, 2)
	if SignatureDistance(s1, s2) != Distance(g1, 4, g2, 9, 2) {
		t.Error("signature distance differs from direct distance")
	}
}

func TestPublicTEDStarAndReport(t *testing.T) {
	g1, g2 := testGraphPair(t)
	t1 := KAdjacentTree(g1, 0, 3)
	t2 := KAdjacentTree(g2, 0, 3)
	d := TEDStar(t1, t2)
	rep := TEDStarReport(t1, t2)
	if rep.Distance != d {
		t.Errorf("report distance %d != TEDStar %d", rep.Distance, d)
	}
	sum := 0
	for _, lc := range rep.Levels {
		sum += lc.Padding + lc.Matching
	}
	if sum != d {
		t.Errorf("level costs sum %d != distance %d", sum, d)
	}
	if w := WeightedTEDStar(t1, t2, UnitTEDWeights); w != float64(d) {
		t.Errorf("unit-weighted %v != %d", w, d)
	}
}

func TestPublicWeightedUpperBound(t *testing.T) {
	// δT(W+) upper-bounds exact TED on small trees (Lemma 7).
	rng := rand.New(rand.NewSource(2))
	g1, g2 := testGraphPair(t)
	checked := 0
	for i := 0; i < 400 && checked < 25; i++ {
		t1 := KAdjacentTree(g1, NodeID(rng.Intn(g1.NumNodes())), 2)
		t2 := KAdjacentTree(g2, NodeID(rng.Intn(g2.NumNodes())), 2)
		// Keep the exponential oracle fast: bushy trees with many
		// isomorphic siblings explode the mapping search above ~10 nodes.
		if t1.Size() > 10 || t2.Size() > 10 {
			continue
		}
		exact, ok := ExactTED(t1, t2)
		if !ok {
			continue
		}
		checked++
		if w := WeightedTEDStar(t1, t2, UpperBoundTEDWeights); w < float64(exact)-1e-9 {
			t.Fatalf("W+ %v < exact TED %d", w, exact)
		}
	}
	if checked == 0 {
		t.Skip("no small-enough trees sampled")
	}
}

func TestPublicExactOracles(t *testing.T) {
	g1, g2 := testGraphPair(t)
	t1 := KAdjacentTree(g1, 0, 1)
	t2 := KAdjacentTree(g2, 0, 1)
	if t1.Size() <= 16 && t2.Size() <= 16 {
		if _, ok := ExactTED(t1, t2); !ok {
			t.Error("ExactTED refused small trees")
		}
	}
	if d, ok := ExactTEDStar(KAdjacentTree(g1, 0, 0), KAdjacentTree(g2, 0, 0)); !ok || d != 0 {
		t.Errorf("ExactTEDStar on roots = %d/%v, want 0/true", d, ok)
	}
	b1 := NewGraphBuilder(3, false)
	b1.AddEdge(0, 1)
	b1.AddEdge(1, 2)
	small1 := b1.Build()
	if d, ok := ExactGED(small1, small1); !ok || d != 0 {
		t.Errorf("ExactGED self = %d/%v", d, ok)
	}
}

func TestPublicVPIndexMatchesScan(t *testing.T) {
	g1, g2 := testGraphPair(t)
	rng := rand.New(rand.NewSource(3))
	var nodes []NodeID
	for i := 0; i < 120; i++ {
		nodes = append(nodes, NodeID(rng.Intn(g2.NumNodes())))
	}
	cands := Signatures(g2, nodes, 2)
	index := NewVPIndex(cands)
	if index.Len() != len(cands) {
		t.Fatalf("index Len = %d", index.Len())
	}
	for q := 0; q < 15; q++ {
		query := NewSignature(g1, NodeID(rng.Intn(g1.NumNodes())), 2)
		got := index.KNN(query, 1)
		want := TopL(query, cands, 1)
		if len(got) != 1 || len(want) != 1 {
			t.Fatal("missing results")
		}
		// The nearest distance must agree even if tie nodes differ.
		if got[0].Dist != want[0].Dist {
			t.Fatalf("query %d: VP dist %d != scan dist %d", q, got[0].Dist, want[0].Dist)
		}
	}
}

// TestPublicInterGraphQueries drives the signature-level entry points
// with the paper's inter-graph query: signatures of a perturbed copy of
// the indexed graph, whose shapes the index's dictionary has never
// seen, so they are profiled read-only with unresolved labels. VP, BK,
// PrunedTopL and TopLParallel must answer KNN exactly as TopL, and VP
// and BK Range at the extreme radii exactly as the exhaustive scan.
func TestPublicInterGraphQueries(t *testing.T) {
	g, _ := testGraphPair(t)
	perturbed := AnonymizePerturb(g, 0.1, 4).Graph
	var nodes []NodeID
	for v := 0; v < min(150, g.NumNodes()); v++ {
		nodes = append(nodes, NodeID(v))
	}
	cands := Signatures(g, nodes, 2)
	vp, bk := NewVPIndex(cands), NewBKIndex(cands)
	for v := 0; v < 12; v++ {
		q := NewSignature(perturbed, NodeID(v*7), 2)
		all := TopL(q, cands, len(cands))
		for _, l := range []int{1, 5, 20} {
			want := fmt.Sprint(all[:l])
			pruned, _ := PrunedTopL(q, cands, l)
			for name, got := range map[string][]Neighbor{
				"vp":       vp.KNN(q, l),
				"bk":       bk.KNN(q, l),
				"pruned":   pruned,
				"parallel": TopLParallel(q, cands, l, BatchOptions{Workers: 2}),
			} {
				if fmt.Sprint(got) != want {
					t.Errorf("query %d l=%d %s: %v, TopL %v", v, l, name, got, want)
				}
			}
		}
		for _, r := range []int{-1, 0, 3, 1 << 30, math.MaxInt} {
			var want []Neighbor
			for _, nb := range all {
				if nb.Dist <= r {
					want = append(want, nb)
				}
			}
			for name, got := range map[string][]Neighbor{"vp": vp.Range(q, r), "bk": bk.Range(q, r)} {
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("query %d r=%d %s Range: %d results, oracle %d", v, r, name, len(got), len(want))
				}
			}
		}
	}
}

func TestPublicVPIndexRange(t *testing.T) {
	g1, g2 := testGraphPair(t)
	var nodes []NodeID
	for i := 0; i < 80; i++ {
		nodes = append(nodes, NodeID(i))
	}
	cands := Signatures(g2, nodes, 2)
	index := NewVPIndex(cands)
	query := NewSignature(g1, 0, 2)
	within := index.Range(query, 5)
	// Cross-check against a scan.
	scan := 0
	for _, c := range cands {
		if SignatureDistance(query, c) <= 5 {
			scan++
		}
	}
	if len(within) != scan {
		t.Errorf("range found %d, scan %d", len(within), scan)
	}
	for _, r := range within {
		if r.Dist > 5 {
			t.Errorf("range result at distance %d", r.Dist)
		}
	}
}

func TestPublicNearestSetAndTopL(t *testing.T) {
	g1, g2 := testGraphPair(t)
	var nodes []NodeID
	for i := 0; i < 60; i++ {
		nodes = append(nodes, NodeID(i))
	}
	cands := Signatures(g2, nodes, 2)
	query := NewSignature(g1, 0, 2)
	nn := NearestSet(query, cands)
	top := TopL(query, cands, 5)
	if len(nn) == 0 || len(top) == 0 {
		t.Fatal("empty results")
	}
	if nn[0].Dist != top[0].Dist {
		t.Error("NearestSet and TopL disagree on the minimum")
	}
}

func TestPublicAnonymizationRoundTrip(t *testing.T) {
	g1, _ := testGraphPair(t)
	anon := AnonymizeNaive(g1, 7)
	if anon.Graph.NumEdges() != g1.NumEdges() {
		t.Error("naive anonymization changed edges")
	}
	// Structure is intact, so at k=1 (the ego-net star, whose BFS tree is
	// canonical) the NED between an anon node and its original is always
	// 0. At deeper k the BFS parent assignment tie-breaks on node IDs,
	// which the permutation changes, so a small nonzero distance can
	// appear even between truly corresponding nodes — the same effect
	// that keeps the paper's de-anonymization precision below 1.0.
	// Assert exactness at k=1 and discriminativeness at k=3: the true
	// original must be far closer than a random decoy on average.
	for v := 0; v < 20; v++ {
		orig := anon.Identity[v]
		if d := Distance(anon.Graph, NodeID(v), g1, orig, 1); d != 0 {
			t.Fatalf("anon node %d vs original %d at k=1: distance %d, want 0", v, orig, d)
		}
	}
	rng := rand.New(rand.NewSource(11))
	sumTrue, sumDecoy := 0, 0
	for v := 0; v < 20; v++ {
		orig := anon.Identity[v]
		sumTrue += Distance(anon.Graph, NodeID(v), g1, orig, 3)
		decoy := NodeID(rng.Intn(g1.NumNodes()))
		sumDecoy += Distance(anon.Graph, NodeID(v), g1, decoy, 3)
	}
	if sumTrue >= sumDecoy {
		t.Errorf("true originals (total %d) should be closer than random decoys (total %d)",
			sumTrue, sumDecoy)
	}
	sp := AnonymizeSparsify(g1, 0.1, 8)
	if sp.Graph.NumEdges() >= g1.NumEdges() {
		t.Error("sparsify did not remove edges")
	}
	pt := AnonymizePerturb(g1, 0.1, 9)
	if pt.Graph.NumEdges() != g1.NumEdges() {
		t.Error("perturb changed edge count")
	}
}

func TestPublicHausdorff(t *testing.T) {
	g1, _ := testGraphPair(t)
	if h := Hausdorff(g1, g1, 1); h != 0 {
		t.Errorf("H(g,g) = %d, want 0", h)
	}
	var a, b []NodeID
	for i := 0; i < 20; i++ {
		a = append(a, NodeID(i))
		b = append(b, NodeID(i+5))
	}
	if h := HausdorffSampled(g1, a, g1, b, 2); h < 0 {
		t.Errorf("negative Hausdorff %d", h)
	}
}

func TestPublicDirectedDistance(t *testing.T) {
	b := NewGraphBuilder(4, true)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(3, 0)
	g := b.Build()
	if d := DistanceDirected(g, 0, g, 0, 2); d != 0 {
		t.Errorf("directed self distance = %d", d)
	}
	if d := DistanceDirected(g, 0, g, 3, 2); d == 0 {
		t.Error("different directed roles should differ")
	}
}

func TestPublicEdgeListRoundTrip(t *testing.T) {
	g1, _ := testGraphPair(t)
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := SaveEdgeList(path, g1); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g1.NumNodes() || g2.NumEdges() != g1.NumEdges() {
		t.Errorf("round trip changed graph: %v -> %v", g1, g2)
	}
	if _, err := LoadEdgeList(filepath.Join(t.TempDir(), "missing.edges"), false); err == nil {
		t.Error("want error for missing file")
	}
}

func TestPublicDatasetSummary(t *testing.T) {
	for _, name := range AllDatasets {
		g, err := GenerateDataset(name, DatasetOptions{Scale: 0.05, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := SummarizeDataset(name, g)
		if s.Nodes != g.NumNodes() {
			t.Errorf("%s: summary nodes %d != %d", name, s.Nodes, g.NumNodes())
		}
	}
	if _, err := GenerateDataset("BOGUS", DatasetOptions{}); err == nil {
		t.Error("want error for unknown dataset")
	}
}

func TestPublicBatchAPI(t *testing.T) {
	g1, g2 := testGraphPair(t)
	var nodes []NodeID
	for v := 0; v < 40; v++ {
		nodes = append(nodes, NodeID(v))
	}
	serial := Signatures(g1, nodes, 2)
	par := SignaturesParallel(g1, nodes, 2, BatchOptions{Workers: 6})
	for i := range par {
		if SignatureDistance(serial[i], par[i]) != 0 {
			t.Fatalf("parallel signature %d differs", i)
		}
	}
	bs := Signatures(g2, nodes[:10], 2)
	m := DistanceMatrix(serial[:5], bs, BatchOptions{})
	if len(m) != 5 || len(m[0]) != 10 {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	if m[0][0] != SignatureDistance(serial[0], bs[0]) {
		t.Error("matrix entry mismatch")
	}
	q := NewSignature(g1, 0, 2)
	a := TopL(q, bs, 3)
	b := TopLParallel(q, bs, 3, BatchOptions{Workers: 4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel TopL rank %d mismatch", i)
		}
	}
}

func TestPublicSignaturePersistence(t *testing.T) {
	g1, _ := testGraphPair(t)
	sigs := Signatures(g1, []NodeID{0, 1, 2, 3}, 2)
	path := filepath.Join(t.TempDir(), "sigs.nedsig")
	if err := SaveSignatures(path, sigs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSignatures(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(sigs) {
		t.Fatalf("loaded %d, want %d", len(back), len(sigs))
	}
	for i := range back {
		if SignatureDistance(back[i], sigs[i]) != 0 {
			t.Fatalf("signature %d changed on disk", i)
		}
	}
}

func TestPublicPrunedQueries(t *testing.T) {
	g1, g2 := testGraphPair(t)
	var nodes []NodeID
	for v := 0; v < 100; v++ {
		nodes = append(nodes, NodeID(v))
	}
	cands := Signatures(g2, nodes, 2)
	q := NewSignature(g1, 0, 2)
	want := TopL(q, cands, 5)
	got, stats := PrunedTopL(q, cands, 5)
	for i := range got {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("rank %d: %d vs %d", i, got[i].Dist, want[i].Dist)
		}
	}
	if stats.FullEvaluations+stats.PrunedByBound+stats.EarlyExits != len(cands) {
		t.Errorf("stats incomplete: %+v", stats)
	}
	if lb := DistanceLowerBound(q, cands[0]); lb > SignatureDistance(q, cands[0]) {
		t.Error("lower bound exceeds distance")
	}
	if pd := PrefixDistance(q, cands[0], 0); pd != 0 {
		t.Errorf("depth-0 prefix = %d", pd)
	}
	if pd := PrefixDistance(q, cands[0], -1); pd != 0 {
		t.Errorf("depth -1 prefix = %d, want the depth-0 value 0", pd)
	}
}

func TestPublicBKIndex(t *testing.T) {
	g1, g2 := testGraphPair(t)
	var nodes []NodeID
	for v := 0; v < 80; v++ {
		nodes = append(nodes, NodeID(v))
	}
	cands := Signatures(g2, nodes, 2)
	bk := NewBKIndex(cands)
	if bk.Len() != 80 {
		t.Fatalf("Len = %d", bk.Len())
	}
	q := NewSignature(g1, 3, 2)
	got := bk.KNN(q, 1)
	want := TopL(q, cands, 1)
	if len(got) != 1 || got[0].Dist != want[0].Dist {
		t.Errorf("BK nearest %+v, scan %+v", got, want)
	}
	inRange := bk.Range(q, 3)
	for _, r := range inRange {
		if r.Dist > 3 {
			t.Errorf("range hit at %d", r.Dist)
		}
	}
}

func TestPublicStatsAndRoleSim(t *testing.T) {
	g1, _ := testGraphPair(t)
	s := ComputeGraphStats(g1)
	if s.Nodes != g1.NumNodes() || s.Edges != g1.NumEdges() {
		t.Errorf("stats mismatch: %+v", s)
	}
	if h := DegreeHistogram(g1); len(h) != s.MaxDegree+1 {
		t.Errorf("histogram length %d, max degree %d", len(h), s.MaxDegree)
	}
	small := NewGraphBuilder(4, false)
	small.AddEdge(0, 1)
	small.AddEdge(1, 2)
	small.AddEdge(2, 3)
	sg := small.Build()
	score := RoleSimScores(sg)
	if score(0, 0) != 1 {
		t.Error("RoleSim self-similarity should be 1")
	}
	if score(0, 3) != score(3, 0) {
		t.Error("RoleSim must be symmetric")
	}
	gl := GraphletFeatures(sg, 1)
	if len(gl) != 7 {
		t.Errorf("graphlet features = %d, want 7", len(gl))
	}
	sr := SimRankScores(sg)
	if sr(1, 1) != 1 {
		t.Error("SimRank self-similarity should be 1")
	}
}

func TestPublicBaselines(t *testing.T) {
	g1, g2 := testGraphPair(t)
	f1 := RegionalFeatures(g1, 0, 2)
	f2 := RegionalFeatures(g2, 0, 2)
	if len(f1) != len(f2) || len(f1) == 0 {
		t.Fatalf("feature lengths %d/%d", len(f1), len(f2))
	}
	if d := FeatureL1(f1, f2); d < 0 {
		t.Errorf("negative L1 %v", d)
	}
	ns := NetSimileFeatures(g1, 0)
	if len(ns) != 7 {
		t.Errorf("NetSimile features = %d, want 7", len(ns))
	}
	// HITS on small capped graphs.
	small1 := MustGenerateDataset(DatasetGNU, DatasetOptions{Scale: 0.02, Seed: 1})
	small2 := MustGenerateDataset(DatasetGNU, DatasetOptions{Scale: 0.02, Seed: 2})
	score := HITSScores(small1, small2)
	if s := score(0, 0); s < 0 {
		t.Errorf("negative HITS score %v", s)
	}
}
