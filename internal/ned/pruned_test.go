package ned

import (
	"math/rand"
	"testing"

	"ned/internal/graph"
)

func prunedTestSetup(t *testing.T) (Signature, []Signature) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	g1 := randomGraph(rng, 150, 380)
	g2 := randomGraph(rng, 150, 380)
	query := NewSignature(g1, 3, 3)
	var nodes []graph.NodeID
	for v := 0; v < 150; v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	return query, Signatures(g2, nodes, 3)
}

func TestPrunedTopLMatchesTopL(t *testing.T) {
	query, cands := prunedTestSetup(t)
	for _, l := range []int{1, 3, 10} {
		want := TopL(query, cands, l)
		got, stats := PrunedTopL(query, cands, l)
		if len(got) != len(want) {
			t.Fatalf("l=%d: got %d results, want %d", l, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("l=%d rank %d: distance %d, want %d", l, i, got[i].Dist, want[i].Dist)
			}
		}
		if stats.FullEvaluations+stats.PrunedByBound+stats.EarlyExits != len(cands) {
			t.Errorf("l=%d: stats do not cover all candidates: %+v", l, stats)
		}
		if stats.EarlyExits == 0 {
			t.Logf("l=%d: no early exits on this workload", l)
		}
	}
}

func TestPrunedTopLActuallyPrunes(t *testing.T) {
	// Candidates with wildly different level profiles should mostly be
	// skipped by the padding bound.
	rng := rand.New(rand.NewSource(7))
	g1 := randomGraph(rng, 100, 150)    // sparse: thin trees
	g2 := randomGraph(rng, 100, 150)    // sparse too: some close matches
	dense := randomGraph(rng, 100, 900) // dense: fat trees, mostly prunable
	query := NewSignature(g1, 0, 3)
	var cands []Signature
	for v := 0; v < 100; v++ {
		cands = append(cands, NewSignature(g2, graph.NodeID(v), 3))
		cands = append(cands, NewSignature(dense, graph.NodeID(v), 3))
	}
	_, stats := PrunedTopL(query, cands, 3)
	if stats.PrunedByBound == 0 {
		t.Error("expected some candidates pruned by the padding bound")
	}
	if stats.FullEvaluations == len(cands) {
		t.Error("pruning saved no work")
	}
}

func TestPrunedTopLEdgeCases(t *testing.T) {
	query, cands := prunedTestSetup(t)
	if res, _ := PrunedTopL(query, cands, 0); res != nil {
		t.Error("l=0 should return nil")
	}
	for _, l := range []int{-1, 0} {
		if res := TopL(query, cands, l); len(res) != 0 {
			t.Errorf("TopL l=%d returned %d results, want none", l, len(res))
		}
		if res, _ := PrunedTopL(query, cands, l); len(res) != 0 {
			t.Errorf("PrunedTopL l=%d returned %d results, want none", l, len(res))
		}
	}
	if res, _ := PrunedTopL(query, nil, 5); res != nil {
		t.Error("no candidates should return nil")
	}
	// l larger than candidate count: everything returned.
	res, _ := PrunedTopL(query, cands[:4], 10)
	if len(res) != 4 {
		t.Errorf("got %d results, want 4", len(res))
	}
}

func TestLowerBoundNeverExceedsDistance(t *testing.T) {
	query, cands := prunedTestSetup(t)
	for _, c := range cands[:60] {
		lb := LowerBound(query, c)
		d := Between(query, c)
		if lb > d {
			t.Fatalf("bound %d > distance %d for node %d", lb, d, c.Node)
		}
	}
}

func TestPrefixDistance(t *testing.T) {
	query, cands := prunedTestSetup(t)
	c := cands[0]
	// Full-depth prefix equals the real distance.
	if got, want := PrefixDistance(query, c, 10), Between(query, c); got != want {
		t.Errorf("full prefix %d != distance %d", got, want)
	}
	// Prefix at depth 0 compares bare roots: always 0.
	if got := PrefixDistance(query, c, 0); got != 0 {
		t.Errorf("depth-0 prefix = %d, want 0", got)
	}
	// A negative depth keeps the roots alone, as depth 0 does.
	if got := PrefixDistance(query, c, -1); got != 0 {
		t.Errorf("depth -1 prefix = %d, want 0", got)
	}
}
