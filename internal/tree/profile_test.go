package tree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// profileTestTrees is a deterministic shape mix: random trees plus the
// adversarial generators.
func profileTestTrees(n int) []*Tree {
	rng := rand.New(rand.NewSource(7))
	out := make([]*Tree, 0, n+5)
	for i := 0; i < n; i++ {
		out = append(out, Random(rng, 1+rng.Intn(50), 1+rng.Intn(5)))
	}
	return append(out, Star(10), Path(8), Caterpillar(3, 4), FullKAry(3, 3), MustNew([]int32{-1}))
}

// TestProfileShape pins the Profile invariants everything downstream
// reads blind: Levels mirrors LevelSize, Labels and Degs are
// level-grouped and sorted within each level, Degs holds the level's
// actual child counts for levels 0..height-1, Labels, Perm, Degs and
// KidOff stop above the deepest (all-leaf) level, and Size is the node
// count.
func TestProfileShape(t *testing.T) {
	in := NewInterner()
	for _, tr := range profileTestTrees(60) {
		p := in.Profile(tr)
		if int(p.Size) != tr.Size() {
			t.Fatalf("Size=%d, tree has %d nodes", p.Size, tr.Size())
		}
		if p.Height() != tr.Height() {
			t.Fatalf("Height=%d, tree height %d", p.Height(), tr.Height())
		}
		inner := tr.Size() - tr.LevelSize(tr.Height())
		if len(p.Labels) != inner || len(p.Perm) != inner || len(p.KidOff) != inner+1 {
			t.Fatalf("len(Labels), len(Perm), len(KidOff) = %d, %d, %d, want %d, %d, %d",
				len(p.Labels), len(p.Perm), len(p.KidOff), inner, inner, inner+1)
		}
		off := int32(0)
		for d, w := range p.Levels {
			if int(w) != tr.LevelSize(d) {
				t.Fatalf("Levels[%d]=%d, LevelSize=%d", d, w, tr.LevelSize(d))
			}
			want := make([]int32, 0, w)
			lo, hi := tr.LevelRange(d)
			for v := lo; v < hi; v++ {
				want = append(want, int32(tr.NumChildren(v)))
			}
			slices.Sort(want)
			if d == p.Height() {
				for _, c := range want {
					if c != 0 {
						t.Fatalf("deepest level %d has a node with %d children", d, c)
					}
				}
				if int(off) != len(p.Degs) {
					t.Fatalf("len(Degs)=%d, want %d (every node above the deepest level)", len(p.Degs), off)
				}
				break
			}
			if run := p.Labels[off : off+w]; !slices.IsSorted(run) {
				t.Fatalf("level %d labels not sorted: %v", d, run)
			}
			if got := p.Degs[off : off+w]; !slices.Equal(got, want) {
				t.Fatalf("level %d Degs=%v, want sorted child counts %v", d, got, want)
			}
			off += w
		}
	}
}

// TestInternerKeyIsIsomorphism pins the dictionary semantics: two
// profiles from one Interner share a Canon key iff their trees are
// isomorphic, and interning is stable — re-profiling a tree yields the
// identical profile.
func TestInternerKeyIsIsomorphism(t *testing.T) {
	in := NewInterner()
	trees := profileTestTrees(50)
	ps := make([]*Profile, len(trees))
	for i, tr := range trees {
		ps[i] = in.Profile(tr)
	}
	for i, t1 := range trees {
		for j, t2 := range trees {
			if (ps[i].Canon == ps[j].Canon) != Isomorphic(t1, t2) {
				t.Fatalf("canon keys %d/%d disagree with isomorphism for %q vs %q",
					ps[i].Canon, ps[j].Canon, Encode(t1), Encode(t2))
			}
		}
	}
	for i, tr := range trees {
		q := in.Profile(tr)
		if q.Canon != ps[i].Canon {
			t.Fatalf("re-profiling drifted: %d -> %d", ps[i].Canon, q.Canon)
		}
		for k := range q.Labels {
			if q.Labels[k] != ps[i].Labels[k] {
				t.Fatalf("label %d drifted on re-profiling", k)
			}
		}
	}
}

// TestProfileQueryReadOnly pins the query-mode contract: compiling a
// tree the corpus has never seen grows nothing, known shapes keep
// their dictionary labels, unknown shapes get negative profile-local
// labels that can never equal an indexed one, and the whole-tree key
// never collides with an interned key. The single-slot cache must also
// never hand a read-only profile to the interning path.
func TestProfileQueryReadOnly(t *testing.T) {
	in := NewInterner()
	indexed := in.Profile(Star(4))
	before := in.Len()

	novel := Caterpillar(3, 2)
	q := in.ProfileQuery(novel)
	if in.Len() != before {
		t.Fatalf("ProfileQuery grew the dictionary: %d -> %d", before, in.Len())
	}
	if q.Canon <= uint64(^uint32(0)>>1) {
		t.Fatalf("unknown-shape query key %d is inside the dictionary's int32 range", q.Canon)
	}
	if q.Canon == indexed.Canon {
		t.Fatal("query key collides with an indexed key")
	}
	hasNeg := false
	for _, l := range q.Labels {
		hasNeg = hasNeg || l < 0
	}
	if !hasNeg {
		t.Fatal("novel query tree produced no local labels")
	}

	// Known shape: query mode must resolve to the exact interned profile.
	q2 := in.ProfileQuery(Star(4))
	if q2.Canon != indexed.Canon {
		t.Fatalf("query profile of an indexed shape diverged: %d vs %d", q2.Canon, indexed.Canon)
	}

	// Cache isolation: a read-only cached profile must not satisfy the
	// interning path, and interning afterwards must assign real labels.
	cachedQ := in.ProfileQueryCached(novel)
	full := in.ProfileCached(novel)
	if full == cachedQ {
		t.Fatal("ProfileCached reused a read-only query profile")
	}
	for _, l := range full.Labels {
		if l < 0 {
			t.Fatal("interned profile carries local labels")
		}
	}
	if got := in.ProfileQueryCached(novel); got != full {
		t.Fatal("query cache did not reuse the now-interned profile")
	}
}

// TestProfileQueryStaleness is the regression test for the stale
// local-label hazard: a query profile compiled while some of its
// shapes were unknown must not be reused after the dictionary interns
// them — the local labels would then falsely mismatch the newly
// indexed shapes. Unresolved profiles must bypass the cache and
// recompile to dictionary labels once the shapes exist.
func TestProfileQueryStaleness(t *testing.T) {
	in := NewInterner()
	in.Profile(Star(3)) // some unrelated indexed shape
	novel := Caterpillar(2, 2)

	q1 := in.ProfileQueryCached(novel)
	if q1.Resolved() {
		t.Fatal("novel query tree unexpectedly resolved")
	}
	// The corpus later indexes an isomorphic signature.
	item := in.Profile(Caterpillar(2, 2))
	q2 := in.ProfileQueryCached(novel)
	if !q2.Resolved() {
		t.Fatal("query profile still unresolved after its shapes were interned (stale cache)")
	}
	if q2.Canon != item.Canon {
		t.Fatalf("re-profiled query key %d != interned key %d", q2.Canon, item.Canon)
	}
	if q1.Canon == item.Canon {
		t.Fatal("unresolved profile's sentinel key collides with the interned key")
	}
}

// TestInternerConcurrent profiles the same shape mix from many
// goroutines against one dictionary — the corpus build and query paths
// do exactly this — and checks every worker resolved identical labels.
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	trees := profileTestTrees(40)
	const workers = 8
	results := make([][]*Profile, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := make([]*Profile, len(trees))
			for i, tr := range trees {
				ps[i] = in.Profile(tr)
			}
			results[w] = ps
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range trees {
			if results[w][i].Canon != results[0][i].Canon {
				t.Fatalf("worker %d interned tree %d as %d, worker 0 as %d",
					w, i, results[w][i].Canon, results[0][i].Canon)
			}
		}
	}
}
