package ted

import (
	"testing"

	"ned/internal/tree"
)

// TestProfiledBitIdenticalToOriented pins the profiled faithful-level
// fast path to the plain computation (DistanceAtMost, on pairs already
// in canonical orientation), bit for bit: same
// distance, same outcome class, and the same value even on pruned and
// aborted evaluations, at every budget. The fast path's claim is not
// "equivalent answers" but "the identical computation reading
// precompiled data", so nothing weaker than full equality is accepted.
func TestProfiledBitIdenticalToOriented(t *testing.T) {
	trees := append(fuzzSeedTrees(t), randomTrees(100)...)
	in := tree.NewInterner()
	profiles := make([]*tree.Profile, len(trees))
	for i, tr := range trees {
		profiles[i] = in.Profile(tr)
	}
	cOriented, cProfiled := NewComputer(), NewComputer()
	pairs := 0
	for i, t1 := range trees {
		for j, t2 := range trees {
			if j > i+30 { // cap the quadratic sweep; pairs stay diverse
				break
			}
			p1, p2 := profiles[i], profiles[j]
			if p1.Canon == p2.Canon {
				continue // the cascade answers isomorphic pairs before TED*
			}
			a, b, pa, pb := t1, t2, p1, p2
			if profileSwapTest(a, b, pa, pb) {
				a, b, pa, pb = b, a, pb, pa
			}
			want := cOriented.Distance(a, b)
			for _, budget := range []int{Unbounded, want + 3, want, want - 1, want / 2, 1, 0} {
				wd, wout := cOriented.DistanceAtMost(a, b, budget)
				gd, gout := cProfiled.DistanceAtMostProfiled(a, b, pa, pb, budget)
				if gd != wd || gout != wout {
					t.Fatalf("profiled (%d,%v) != oriented (%d,%v) at budget %d for %q vs %q",
						gd, gout, wd, wout, budget, tree.Encode(a), tree.Encode(b))
				}
			}
			pairs++
		}
	}
	t.Logf("checked %d pairs over %d trees", pairs, len(trees))
}

// TestProfiledQueryProfiles covers the query side: read-only profiles
// (possibly carrying unresolved local labels) against indexed resolved
// profiles must still be bit-identical to the oriented path — and a
// mutually-unresolved pair must fall back rather than compare
// incomparable local labels.
func TestProfiledQueryProfiles(t *testing.T) {
	indexed := randomTrees(40)
	in := tree.NewInterner()
	ip := make([]*tree.Profile, len(indexed))
	for i, tr := range indexed {
		ip[i] = in.Profile(tr)
	}
	// Query trees compiled read-only against the same dictionary: some
	// shapes resolve, novel ones get profile-local negative labels.
	queries := randomTrees(60)[20:]
	cOriented, cProfiled := NewComputer(), NewComputer()
	unresolved := 0
	for _, q := range queries {
		qp := in.ProfileQuery(q)
		if !qp.Resolved() {
			unresolved++
		}
		for i, tr := range indexed {
			p := ip[i]
			if qp.Canon == p.Canon {
				continue
			}
			a, b, pa, pb := q, tr, qp, p
			if profileSwapTest(a, b, pa, pb) {
				a, b, pa, pb = b, a, pb, pa
			}
			want := cOriented.Distance(a, b)
			for _, budget := range []int{Unbounded, want, want - 1, 0} {
				wd, wout := cOriented.DistanceAtMost(a, b, budget)
				gd, gout := cProfiled.DistanceAtMostProfiled(a, b, pa, pb, budget)
				if gd != wd || gout != wout {
					t.Fatalf("query-profiled (%d,%v) != oriented (%d,%v) at budget %d for %q vs %q",
						gd, gout, wd, wout, budget, tree.Encode(a), tree.Encode(b))
				}
			}
		}
	}
	if unresolved == 0 {
		t.Fatalf("no unresolved query profile in the sweep; the local-label path went untested")
	}

	// Two unresolved profiles carry incomparable local labels; the fast
	// path must refuse them (fall back) and still produce exact results.
	other := tree.NewInterner()
	q1, q2 := tree.Caterpillar(5, 4), tree.Caterpillar(4, 5)
	u1, u2 := other.ProfileQuery(q1), other.ProfileQuery(q2)
	if u1.Resolved() || u2.Resolved() {
		t.Fatalf("expected both probe profiles unresolved against an empty dictionary")
	}
	want := cOriented.Distance(q1, q2) // orient(q1,q2) keeps this order or not; compare exact value only
	d, out := cProfiled.DistanceAtMostProfiled(q1, q2, u1, u2, Unbounded)
	if out != OutcomeExact || d != want {
		t.Fatalf("mutually-unresolved pair: got (%d,%v), want exact %d", d, out, want)
	}
}

// profileSwapTest mirrors the cascade's canonical pair orientation
// (size, height, then the trees' AHU encodings) for the tests.
func profileSwapTest(t1, t2 *tree.Tree, p1, p2 *tree.Profile) bool {
	switch {
	case p1.Size != p2.Size:
		return p1.Size > p2.Size
	case len(p1.Levels) != len(p2.Levels):
		return len(p1.Levels) > len(p2.Levels)
	default:
		return tree.Canonical(t1) > tree.Canonical(t2)
	}
}
