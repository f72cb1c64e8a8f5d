package ted

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/tree"
)

// fuzzSeedTrees parses every checked-in fuzz seed under testdata/fuzz
// (all targets) and returns the trees their string inputs decode to, so
// property tests sweep exactly the shapes the fuzzers found interesting.
func fuzzSeedTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	var out []*tree.Tree
	root := filepath.Join("testdata", "fuzz")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			rest, ok := strings.CutPrefix(line, "string(")
			if !ok {
				continue
			}
			lit := strings.TrimSuffix(rest, ")")
			enc, err := strconv.Unquote(lit)
			if err != nil {
				continue
			}
			if tr, ok := decodeFuzzTree(enc); ok {
				out = append(out, tr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	if len(out) < 5 {
		t.Fatalf("only %d fuzz seed trees found under %s", len(out), root)
	}
	return out
}

// randomTrees draws a deterministic mix of tree.Random shapes plus the
// adversarial generators (stars, paths, caterpillars).
func randomTrees(n int) []*tree.Tree {
	rng := rand.New(rand.NewSource(42))
	out := make([]*tree.Tree, 0, n+6)
	for i := 0; i < n; i++ {
		out = append(out, tree.Random(rng, 1+rng.Intn(60), 1+rng.Intn(6)))
	}
	out = append(out,
		tree.Star(12), tree.Star(25),
		tree.Path(9), tree.Path(14),
		tree.Caterpillar(4, 3), tree.FullKAry(2, 4),
	)
	return out
}

// checkDominance pins, for one tree pair, everything the cascade relies
// on from its bounds: the monotone chain
//
//	SizeBound <= PaddingBound <= DegreeBound <= exact TED*
//
// (tier 0 must equal the node-count gap), symmetry of the
// degree bound, its threshold contract — it reports "> t" at threshold
// t exactly when the full bound exceeds t — and label-freedom: q1, a
// read-only profile of t1 against a dictionary that knows none of its
// shapes, yields the same value as the interned p1. A violation
// anywhere would make a tier prune a candidate that belongs in the
// answer.
func checkDominance(t *testing.T, t1, t2 *tree.Tree, p1, p2, q1 *tree.Profile) {
	t.Helper()
	size := SizeBound(p1, p2)
	pad := PaddingBound(p1, p2)
	deg := DegreeBound(p1, p2, Unbounded)
	exact := Distance(t1, t2)
	if gap := max(t1.Size()-t2.Size(), t2.Size()-t1.Size()); size != gap {
		t.Fatalf("SizeBound=%d disagrees with the node-count gap %d for %q vs %q",
			size, gap, tree.Encode(t1), tree.Encode(t2))
	}
	if size > pad || pad > deg || deg > exact {
		t.Fatalf("dominance chain broken: size=%d pad=%d degree=%d exact=%d for %q vs %q",
			size, pad, deg, exact, tree.Encode(t1), tree.Encode(t2))
	}
	if rev := DegreeBound(p2, p1, Unbounded); rev != deg {
		t.Fatalf("DegreeBound asymmetric: %d vs %d for %q vs %q", deg, rev, tree.Encode(t1), tree.Encode(t2))
	}
	for thr := 0; thr < exact; thr++ {
		if got := DegreeBound(p1, p2, thr); (got > thr) != (deg > thr) || got > deg {
			t.Fatalf("DegreeBound at threshold %d = %d, full bound %d for %q vs %q",
				thr, got, deg, tree.Encode(t1), tree.Encode(t2))
		}
	}
	if q1.Resolved() {
		t.Fatalf("query profile of %q resolved against an empty dictionary", tree.Encode(t1))
	}
	if got := DegreeBound(q1, p2, Unbounded); got != deg {
		t.Fatalf("DegreeBound through an unresolved query profile = %d, interned %d for %q vs %q",
			got, deg, tree.Encode(t1), tree.Encode(t2))
	}
}

// TestCascadeDominance runs checkDominance over the checked-in fuzz
// seeds, random generated pairs, and k-adjacent trees of the PGP / CAR /
// DBLP / GNU dataset analogs — the shapes the engine actually serves.
func TestCascadeDominance(t *testing.T) {
	trees := append(fuzzSeedTrees(t), randomTrees(120)...)
	in, empty := tree.NewInterner(), tree.NewInterner()
	profiles := make([]*tree.Profile, len(trees))
	for i, tr := range trees {
		profiles[i] = in.Profile(tr)
	}
	pairs := 0
	for i, t1 := range trees {
		q1 := empty.ProfileQuery(t1)
		for j, t2 := range trees {
			if j > i+40 { // cap the quadratic sweep; pairs stay diverse
				break
			}
			checkDominance(t, t1, t2, profiles[i], profiles[j], q1)
			pairs++
		}
	}
	t.Logf("checked %d pairs over %d trees (%d interned shapes)", pairs, len(trees), in.Len())

	for _, name := range []datasets.Name{datasets.PGP, datasets.CAR, datasets.DBLP, datasets.GNU} {
		g := datasets.MustGenerate(name, datasets.Options{Scale: 0.3})
		rng := rand.New(rand.NewSource(7))
		var gap, closed float64
		for n := 0; n < 120; n++ {
			t1, _ := tree.KAdjacent(g, graph.NodeID(rng.Intn(g.NumNodes())), 3)
			t2, _ := tree.KAdjacent(g, graph.NodeID(rng.Intn(g.NumNodes())), 3)
			p1, p2 := in.Profile(t1), in.Profile(t2)
			checkDominance(t, t1, t2, p1, p2, empty.ProfileQuery(t1))
			gap += float64(Distance(t1, t2) - PaddingBound(p1, p2))
			closed += float64(DegreeBound(p1, p2, Unbounded) - PaddingBound(p1, p2))
		}
		t.Logf("%s: degree bound closes %.0f of the %.0f padding-to-TED* gap over 120 pairs", name, closed, gap)
	}
}

// TestProfilePaddingBitIdentical pins the profile-based padding bound
// to the tree-walking LowerBound, bit for bit, over the fuzz seeds and
// random pairs: the cascade's tier 1 must be the same number the §10
// pruning strategy always used, just read off two flat []int32.
func TestProfilePaddingBitIdentical(t *testing.T) {
	trees := append(fuzzSeedTrees(t), randomTrees(200)...)
	in := tree.NewInterner()
	profiles := make([]*tree.Profile, len(trees))
	for i, tr := range trees {
		profiles[i] = in.Profile(tr)
	}
	for i, t1 := range trees {
		for j, t2 := range trees {
			want := LowerBound(t1, t2)
			if got := PaddingBound(profiles[i], profiles[j]); got != want {
				t.Fatalf("PaddingBound=%d, LowerBound=%d for %q vs %q",
					got, want, tree.Encode(t1), tree.Encode(t2))
			}
		}
	}
}

// TestProfileOrientedMatchesDistance pins the profiled budgeted entry
// on profile-oriented pairs to Distance: deciding the canonical
// orientation from profiles (size, height, interned AHU encoding) and
// skipping isomorphic pairs via the interned key must reproduce
// Distance exactly at every budget.
func TestProfileOrientedMatchesDistance(t *testing.T) {
	trees := randomTrees(80)
	in := tree.NewInterner()
	profiles := make([]*tree.Profile, len(trees))
	for i, tr := range trees {
		profiles[i] = in.Profile(tr)
	}
	c := NewComputer()
	for i, t1 := range trees {
		for j, t2 := range trees {
			p1, p2 := profiles[i], profiles[j]
			want := Distance(t1, t2)
			if (p1.Canon == p2.Canon) != tree.Isomorphic(t1, t2) {
				t.Fatalf("interned canon key equality disagrees with isomorphism for %q vs %q",
					tree.Encode(t1), tree.Encode(t2))
			}
			if p1.Canon == p2.Canon {
				if want != 0 {
					t.Fatalf("equal canon keys but distance %d", want)
				}
				continue
			}
			a, b, pa, pb := t1, t2, p1, p2
			if pa.Size > pb.Size ||
				(pa.Size == pb.Size && len(pa.Levels) > len(pb.Levels)) ||
				(pa.Size == pb.Size && len(pa.Levels) == len(pb.Levels) && tree.Canonical(a) > tree.Canonical(b)) {
				a, b, pa, pb = b, a, pb, pa
			}
			for _, budget := range []int{Unbounded, want, want - 1, want / 2, 0} {
				d, out := c.DistanceAtMostProfiled(a, b, pa, pb, budget)
				if out == OutcomeExact {
					if d != want {
						t.Fatalf("oriented exact=%d, Distance=%d (budget %d)", d, want, budget)
					}
				} else if d <= budget || d > want {
					t.Fatalf("oriented outcome %v: d=%d budget=%d true=%d", out, d, budget, want)
				}
			}
		}
	}
}
