package ted

import (
	"testing"

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

// FuzzTEDStarAxioms fuzzes the metric axioms of §7 on random tree
// triples: non-negativity, identity of indiscernibles against the AHU
// isomorphism oracle (δ = 0 iff isomorphic, Theorem §7.1), symmetry,
// and the triangle inequality. These are exactly the properties every
// metric index backend relies on for exact pruning, so a counterexample
// here means silently wrong query results everywhere.
func FuzzTEDStarAxioms(f *testing.F) {
	f.Add("", "", "")
	f.Add("0", "0,0", "0,1")
	f.Add("0,0,1,1,2", "0,0,0,1", "0,1,2,3")
	f.Add("0,0,1,1,2,2,3", "0,0,1,2,2", "0")
	f.Add("0,1,2,3,4,5", "0,0,0,0,0,0", "0,0,1,1")
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
		if d13 > d12+d23 {
			t.Fatalf("triangle inequality violated: d(t1,t3)=%d > d(t1,t2)+d(t2,t3)=%d+%d for %q, %q, %q",
				d13, d12, d23, e1, e2, e3)
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
