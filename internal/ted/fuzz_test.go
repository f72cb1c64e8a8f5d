package ted

import (
	"testing"

	"ned/internal/exact"
	"ned/internal/tree"
)

// fuzzTreeSizeCap bounds the trees a fuzz iteration accepts: TED* is
// O(k·n³) in the worst case, and the fuzzer's job here is to explore
// shapes, not to time out on megabyte paths.
const fuzzTreeSizeCap = 120

// decodeFuzzTree parses a fuzz-supplied encoding, rejecting inputs the
// production parser rejects and inputs too large to fuzz productively.
func decodeFuzzTree(enc string) (*tree.Tree, bool) {
	if len(enc) > 4*fuzzTreeSizeCap {
		return nil, false
	}
	t, err := tree.Decode(enc)
	if err != nil || t.Size() > fuzzTreeSizeCap {
		return nil, false
	}
	return t, true
}

// triangleTriple is the smallest triple found (4, 5 and 10 nodes) on
// which Algorithm 1 breaks the triangle inequality: the Hungarian solve
// picks among equal-weight matchings, and on (a, c) the one it returns
// costs one more move than the Definition-3 optimum.
var triangleTriple = [3]string{"0,1,1", "0,1,1,2", "0,0,0,1,2,2,4,5,7"}

// TestTriangleTripleAlgorithm1VsDefinition3 pins both facts about
// triangleTriple: Distance gives d(a,b), d(b,c), d(a,c) = 1, 5, 7, which
// violates the triangle; exact.TEDStar gives 1, 5, 6, which does not.
func TestTriangleTripleAlgorithm1VsDefinition3(t *testing.T) {
	var tr [3]*tree.Tree
	for i, enc := range triangleTriple {
		var err error
		if tr[i], err = tree.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range []struct{ i, j, algorithm1, definition3 int }{{0, 1, 1, 1}, {1, 2, 5, 5}, {0, 2, 7, 6}} {
		if got := Distance(tr[pair.i], tr[pair.j]); got != pair.algorithm1 {
			t.Errorf("Distance(%q, %q) = %d, want %d", triangleTriple[pair.i], triangleTriple[pair.j], got, pair.algorithm1)
		}
		if got, ok := exact.TEDStar(tr[pair.i], tr[pair.j]); !ok || got != pair.definition3 {
			t.Errorf("exact.TEDStar(%q, %q) = %d, %v, want %d", triangleTriple[pair.i], triangleTriple[pair.j], got, ok, pair.definition3)
		}
	}
}

// FuzzTEDStarAxioms fuzzes the metric axioms of §7 on random tree
// triples. On Distance (Algorithm 1): non-negativity, identity of
// indiscernibles against the AHU isomorphism oracle (δ = 0 iff
// isomorphic, Theorem §7.1) and symmetry. The triangle inequality is
// asserted on exact.TEDStar, the Definition-3 optimum the §7.2 proof is
// about, whenever all three trees are within its width cap: Distance
// itself breaks it on a documented sub-percent of triples (the package
// faithfulness note; triangleTriple is one, and a seed here). The
// Corpus scan does not need the triangle — it is exact against the
// exhaustive sweep of Distance by construction; the metric trees
// (VPIndex, BKIndex) prune by it and are exact only as far as it holds.
func FuzzTEDStarAxioms(f *testing.F) {
	f.Add("", "", "")
	f.Add("0", "0,0", "0,1")
	f.Add("0,0,1,1,2", "0,0,0,1", "0,1,2,3")
	f.Add("0,0,1,1,2,2,3", "0,0,1,2,2", "0")
	f.Add("0,1,2,3,4,5", "0,0,0,0,0,0", "0,0,1,1")
	f.Add(triangleTriple[0], triangleTriple[1], triangleTriple[2])
	f.Fuzz(func(t *testing.T, e1, e2, e3 string) {
		t1, ok1 := decodeFuzzTree(e1)
		t2, ok2 := decodeFuzzTree(e2)
		t3, ok3 := decodeFuzzTree(e3)
		if !ok1 || !ok2 || !ok3 {
			return
		}
		d12 := Distance(t1, t2)
		d21 := Distance(t2, t1)
		d13 := Distance(t1, t3)
		d23 := Distance(t2, t3)

		if d12 < 0 || d13 < 0 || d23 < 0 {
			t.Fatalf("negative distance: d12=%d d13=%d d23=%d", d12, d13, d23)
		}
		for _, tr := range []*tree.Tree{t1, t2, t3} {
			if d := Distance(tr, tr); d != 0 {
				t.Fatalf("identity violated: d(t, t) = %d for %q", d, tree.Encode(tr))
			}
		}
		if iso := tree.Isomorphic(t1, t2); (d12 == 0) != iso {
			t.Fatalf("indiscernibility violated: d=%d, isomorphic=%v for %q vs %q",
				d12, iso, e1, e2)
		}
		if d12 != d21 {
			t.Fatalf("symmetry violated: d(t1,t2)=%d, d(t2,t1)=%d for %q vs %q",
				d12, d21, e1, e2)
		}
		x12, ok12 := exact.TEDStar(t1, t2)
		x23, ok23 := exact.TEDStar(t2, t3)
		x13, ok13 := exact.TEDStar(t1, t3)
		if ok12 && ok23 && ok13 && x13 > x12+x23 {
			t.Fatalf("triangle inequality violated by the Definition-3 optimum: d(t1,t3)=%d > d(t1,t2)+d(t2,t3)=%d+%d for %q, %q, %q",
				x13, x12, x23, e1, e2, e3)
		}
	})
}

// FuzzDistanceAtMost fuzzes the budget contract every index backend
// builds its exactness on: OutcomeExact means the returned value IS the
// exact distance; any other outcome means both the returned value and
// the true distance exceed the budget, and the returned value never
// overshoots the true distance (it stays a valid lower bound).
func FuzzDistanceAtMost(f *testing.F) {
	f.Add("", "", 0)
	f.Add("0,0,1", "0,1", 1)
	f.Add("0,0,0,1,1", "0,1,2", 0)
	f.Add("0,0,1,1,2,2", "0,0,0,0", 3)
	f.Add("0,1,2,3", "0,0,1,1", -5)
	f.Add("0,0,1,2", "0", 1000)
	f.Fuzz(func(t *testing.T, e1, e2 string, budget int) {
		t1, ok1 := decodeFuzzTree(e1)
		t2, ok2 := decodeFuzzTree(e2)
		if !ok1 || !ok2 {
			return
		}
		if budget > Unbounded {
			budget = Unbounded
		}
		exact := Distance(t1, t2)
		c := NewComputer()
		d, out := c.DistanceAtMost(t1, t2, budget)
		switch out {
		case OutcomeExact:
			if d != exact {
				t.Fatalf("OutcomeExact returned %d, true distance %d (budget %d, %q vs %q)",
					d, exact, budget, e1, e2)
			}
		case OutcomePruned, OutcomeAborted:
			if d <= budget {
				t.Fatalf("outcome %v but d=%d <= budget=%d (%q vs %q)", out, d, budget, e1, e2)
			}
			if d > exact {
				t.Fatalf("outcome %v returned %d above the true distance %d (%q vs %q)",
					out, d, exact, e1, e2)
			}
			if exact <= budget {
				t.Fatalf("outcome %v at budget %d, but the true distance %d fits it (%q vs %q)",
					out, budget, exact, e1, e2)
			}
		default:
			t.Fatalf("unknown outcome %v", out)
		}
		// A Computer must stay reusable after budgeted aborts: the same
		// pair under no budget is exact again.
		if d2, out2 := c.DistanceAtMost(t1, t2, Unbounded); out2 != OutcomeExact || d2 != exact {
			t.Fatalf("Computer corrupted after budgeted call: got %d (%v), want %d", d2, out2, exact)
		}
	})
}

// FuzzDegreeBound fuzzes tier 2 of the filter cascade on tree pairs:
// everything checkDominance pins (the chain up to the exact distance,
// symmetry, the threshold contract below the distance, label-freedom)
// plus the threshold contract at an arbitrary fuzzed threshold — a
// bound that overshot the distance, or an early return that disagreed
// with the full sum, would silently drop true neighbors from every
// index backend.
func FuzzDegreeBound(f *testing.F) {
	f.Add("", "", 0)
	f.Add("0,0,1,2", "0,0,1,1", 0)
	f.Add("0,0,0,1,1", "0,1,2", 2)
	f.Add("0,0,1,1,2,2,3", "0,0,0,0,1,1,1", -3)
	f.Add("0,1,2,3,4,5", "0,0,0,0,0,0", 1000)
	f.Fuzz(func(t *testing.T, e1, e2 string, thr int) {
		t1, ok1 := decodeFuzzTree(e1)
		t2, ok2 := decodeFuzzTree(e2)
		if !ok1 || !ok2 {
			return
		}
		in := tree.NewInterner()
		p1, p2 := in.Profile(t1), in.Profile(t2)
		checkDominance(t, t1, t2, p1, p2, tree.NewInterner().ProfileQuery(t1))
		full := DegreeBound(p1, p2, Unbounded)
		if got := DegreeBound(p1, p2, thr); (got > thr) != (full > thr) || got > full {
			t.Fatalf("DegreeBound at threshold %d = %d, full bound %d (%q vs %q)", thr, got, full, e1, e2)
		}
	})
}
