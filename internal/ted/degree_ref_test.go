package ted

import (
	"math/rand"
	"slices"
	"testing"

	"ned/internal/tree"
)

// referenceDegreeBound computes tier 2 from the trees themselves, with
// every level's child counts — the deepest included — rather than the
// profiles' Degs: Σ_d P_d + Σ_d (Δ_d − P_{d+1}) / 2 over every level of
// the taller tree, where a level's ascending child counts are
// zero-padded at the low end to the wider side's width and Δ_d pairs
// them in sorted order.
func referenceDegreeBound(t1, t2 *tree.Tree) int {
	levels := max(t1.Height(), t2.Height()) + 1
	counts := func(t *tree.Tree, d int) []int {
		lo, hi := t.LevelRange(d)
		out := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			out = append(out, t.NumChildren(v))
		}
		slices.Sort(out)
		return out
	}
	abs := func(x int) int { return max(x, -x) }
	bound := 0
	for d := range levels {
		bound += abs(t1.LevelSize(d) - t2.LevelSize(d))
		a, b := counts(t1, d), counts(t2, d)
		if len(a) < len(b) {
			a, b = b, a
		}
		b = append(make([]int, len(a)-len(b)), b...)
		delta := 0
		for i := range a {
			delta += abs(a[i] - b[i])
		}
		bound += (delta - abs(t1.LevelSize(d+1)-t2.LevelSize(d+1))) / 2
	}
	return bound
}

// TestDegreeBoundMatchesReference pins DegreeBound, which reads no
// degree run for a profile's deepest level, to the bound computed from
// the trees' full per-level child counts: on random pairs of unequal
// heights it is equal at Unbounded, and at every threshold t it reports
// "> t" exactly when the full bound does, returning the full bound
// whenever that is at most t. The split form the cascade runs —
// PaddingBound, then DegreeExcess under what the padding left of t —
// must meet the same contract.
func TestDegreeBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	in := tree.NewInterner()
	pairs := 0
	for pairs < 400 {
		t1 := tree.Random(rng, 1+rng.Intn(50), 1+rng.Intn(5))
		t2 := tree.Random(rng, 1+rng.Intn(50), 1+rng.Intn(5))
		if t1.Height() == t2.Height() {
			continue
		}
		pairs++
		p1, p2 := in.Profile(t1), in.Profile(t2)
		want := referenceDegreeBound(t1, t2)
		if got := DegreeBound(p1, p2, Unbounded); got != want {
			t.Fatalf("DegreeBound = %d, reference %d (%q vs %q)", got, want, tree.Encode(t1), tree.Encode(t2))
		}
		pad := PaddingBound(p1, p2)
		if got := pad + DegreeExcess(p1, p2, Unbounded); got != want {
			t.Fatalf("PaddingBound + DegreeExcess = %d, reference %d (%q vs %q)", got, want, tree.Encode(t1), tree.Encode(t2))
		}
		for thr := 0; thr <= want+2; thr++ {
			got := DegreeBound(p1, p2, thr)
			if (got > thr) != (want > thr) || got > want || (want <= thr && got != want) {
				t.Fatalf("DegreeBound at t=%d = %d, reference %d (%q vs %q)",
					thr, got, want, tree.Encode(t1), tree.Encode(t2))
			}
			split := pad
			if pad <= thr {
				split += DegreeExcess(p1, p2, thr-pad)
			}
			if (split > thr) != (want > thr) || split > want || (want <= thr && split != want) {
				t.Fatalf("split bound at t=%d = %d, reference %d (%q vs %q)",
					thr, split, want, tree.Encode(t1), tree.Encode(t2))
			}
		}
	}
}

// TestDegreeExcessRowMatchesInt32 pins the tier-2 kernel on an arena's
// narrow degree runs to the int32 kernel over the profiles' runs: on
// random trees beside a hub whose inner child count puts the arena's
// runs at one, two and four bytes a count, every row against every
// query agrees at every threshold, the query's run the longer or the
// shorter one.
func TestDegreeExcessRowMatchesInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	in := tree.NewInterner()
	var queries, rows []*tree.Profile
	for range 30 {
		queries = append(queries, in.ProfileQuery(tree.Random(rng, 1+rng.Intn(60), 1+rng.Intn(4))))
	}
	for range 60 {
		rows = append(rows, in.Profile(tree.Random(rng, 1+rng.Intn(60), 1+rng.Intn(4))))
	}
	for _, c := range []struct{ top, width int }{{200, 1}, {300, 2}, {70000, 4}} {
		parent := make([]int32, c.top+3)
		parent[0], parent[1], parent[2] = -1, 0, 0
		for v := 3; v < len(parent); v++ {
			parent[v] = 1
		}
		a := tree.CompileArena(append(slices.Clone(rows), in.Profile(tree.MustNew(parent))))
		if a.Degs.Width != c.width {
			t.Fatalf("hub of %d: degree runs at %d bytes a count, want %d", c.top, a.Degs.Width, c.width)
		}
		for i, p := range append(slices.Clone(rows), in.Profile(tree.MustNew(parent))) {
			for qi, q := range append(slices.Clone(queries), p) {
				full := DegreeExcessRuns(q.Levels, q.InnerDegs(), p.Levels, p.InnerDegs(), Unbounded)
				for _, th := range []int{0, 1, full / 2, full - 1, full, Unbounded} {
					want := DegreeExcessRuns(q.Levels, q.InnerDegs(), p.Levels, p.InnerDegs(), th)
					if got := DegreeExcessRow(q.Levels, q.InnerDegs(), a, i, th); got != want {
						t.Fatalf("hub of %d, row %d, query %d, t=%d: narrow row %d, int32 runs %d", c.top, i, qi, th, got, want)
					}
				}
			}
		}
	}
}
