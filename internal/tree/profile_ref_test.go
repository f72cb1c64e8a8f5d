package tree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ned/internal/graph"
)

// referenceProfile is the profile compiler the flat dictionary and
// pooled scratch replaced, kept as the oracle: one local map per tree,
// every node's key hashed (leaves included), six separate column
// allocations, every level's columns built and the deepest level's
// dropped at the end. Its other change is reaching the dictionary
// through resolve instead of the old lookup-then-intern pair, which
// made the same two calls.
func referenceProfile(in *Interner, t *Tree, readOnly bool) *Profile {
	n := t.Size()
	labels := make([]int32, n)
	kidOff := make([]int32, n+1)
	for v := range int32(n) {
		kidOff[v+1] = kidOff[v] + int32(t.NumChildren(v))
	}
	kidsArr := make([]int32, n-1)
	var key []byte
	local := make(map[string]int32, 16)
	nextLocal := int32(-1)
	for v := n - 1; v >= 0; v-- {
		kids := t.Children(int32(v))
		kidLabels := kidsArr[kidOff[v]:kidOff[v+1]]
		for i, c := range kids {
			kidLabels[i] = labels[c]
		}
		slices.Sort(kidLabels)
		key = appendKey(key[:0], kidLabels)
		if id, ok := local[string(key)]; ok {
			labels[v] = id
			continue
		}
		id, ok := in.resolve(key, shapeHash(key), readOnly)
		if !ok {
			id = nextLocal
			nextLocal--
		}
		local[string(key)] = id
		labels[v] = id
	}

	levels := levelSizes(t, make([]int32, t.Height()+1))
	// Degs from the tree's own child lists, levels 0..height-1: the
	// deepest level is all leaves and carries no degree run.
	var degs []int32
	for d := 0; d < t.Height(); d++ {
		lo, hi := t.LevelRange(d)
		run := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			run = append(run, int32(len(t.Children(v))))
		}
		slices.Sort(run)
		degs = append(degs, run...)
	}
	if degs == nil {
		degs = []int32{}
	}
	p := &Profile{
		Levels:    levels,
		Labels:    labels,
		Degs:      degs,
		Perm:      make([]int32, n),
		Kids:      kidsArr,
		KidOff:    kidOff,
		LeafLabel: labels[n-1],
		Size:      int32(n),
	}
	if root := labels[0]; root >= 0 {
		p.Canon = uint64(root)
	} else {
		p.Canon = (1 << 32) | uint64(uint32(-root))
	}
	packed := make([]uint64, slices.Max(levels))
	off := int32(0)
	for _, w := range levels {
		run := labels[off : off+w]
		perm := p.Perm[off : off+w]
		keys := packed[:w]
		for i, l := range run {
			keys[i] = uint64(uint32(l)^(1<<31))<<32 | uint64(uint32(i))
		}
		slices.Sort(keys)
		for i, k := range keys {
			run[i] = int32(uint32(k>>32) ^ (1 << 31))
			perm[i] = int32(uint32(k))
		}
		off += w
	}
	inner := n - int(levels[len(levels)-1])
	p.Labels, p.Perm = p.Labels[:inner], p.Perm[:inner]
	p.Kids, p.KidOff = p.Kids[:max(inner-1, 0)], p.KidOff[:inner+1]
	return p
}

// profilesEqual reports whether two profiles agree on every field.
func profilesEqual(a, b *Profile) bool {
	return slices.Equal(a.Levels, b.Levels) && slices.Equal(a.Labels, b.Labels) &&
		slices.Equal(a.Degs, b.Degs) && a.Size == b.Size && slices.Equal(a.Perm, b.Perm) &&
		slices.Equal(a.Kids, b.Kids) && slices.Equal(a.KidOff, b.KidOff) &&
		a.LeafLabel == b.LeafLabel && a.Canon == b.Canon
}

// refTestTrees is the profile shape mix plus real k-adjacent trees —
// wide, shallow, all-leaf last levels — of a random graph.
func refTestTrees() []*Tree {
	trees := profileTestTrees(80)
	rng := rand.New(rand.NewSource(17))
	b := graph.NewBuilder(300, false)
	for range 900 {
		b.AddEdge(graph.NodeID(rng.Intn(300)), graph.NodeID(rng.Intn(300)))
	}
	g := b.Build()
	for v := 0; v < g.NumNodes(); v += 3 {
		trees = append(trees, Extract(g, graph.NodeID(v), 1+v%4, graph.Outgoing))
	}
	return trees
}

// TestProfileMatchesReference pins the profile compiler to the one it
// replaced. On one goroutine both assign dictionary IDs in first-seen
// order, so every Profile field must be equal, interning and read-only
// alike, and a read-only compile must not grow the dictionary. After 8
// goroutines intern the same trees concurrently (IDs now depend on the
// interleaving), the dictionary must export a shape table that rebuilds
// it, every shape's children must carry smaller IDs than the shape, and
// the reference compiler re-run against it must reproduce every
// concurrently compiled profile.
func TestProfileMatchesReference(t *testing.T) {
	trees := refTestTrees()
	half := len(trees) / 2

	got, want := NewInterner(), NewInterner()
	for i, tr := range trees[:half] {
		if p, q := got.Profile(tr), referenceProfile(want, tr, false); !profilesEqual(p, q) {
			t.Fatalf("tree %d: profile\n %+v\nreference\n %+v", i, p, q)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("dictionary holds %d shapes, reference %d", got.Len(), want.Len())
	}
	before := got.Len()
	for i, tr := range trees {
		if p, q := got.ProfileQuery(tr), referenceProfile(want, tr, true); !profilesEqual(p, q) {
			t.Fatalf("tree %d: read-only profile\n %+v\nreference\n %+v", i, p, q)
		}
	}
	if got.Len() != before {
		t.Fatalf("read-only profiles grew the dictionary %d -> %d", before, got.Len())
	}

	in := NewInterner()
	compiled := make([][]*Profile, 8)
	var wg sync.WaitGroup
	for w := range compiled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps := make([]*Profile, len(trees))
			for i := range trees {
				j := (i + w*len(trees)/len(compiled)) % len(trees)
				ps[j] = in.Profile(trees[j])
			}
			compiled[w] = ps
		}()
	}
	wg.Wait()
	kidOff, kids := exportShapes(in)
	if len(kidOff) != in.Len()+1 {
		t.Fatalf("shape table has %d shapes, dictionary %d", len(kidOff)-1, in.Len())
	}
	for id := 0; id < in.Len(); id++ {
		for _, kid := range kids[kidOff[id]:kidOff[id+1]] {
			if kid >= int32(id) {
				t.Fatalf("shape %d has child label %d: children must intern first", id, kid)
			}
		}
	}
	rebuilt, err := NewInternerFromKids(kidOff, kids)
	if err != nil {
		t.Fatalf("shape table does not rebuild the dictionary: %v", err)
	}
	for i, tr := range trees {
		ref := referenceProfile(in, tr, true)
		for w := range compiled {
			if !profilesEqual(compiled[w][i], ref) {
				t.Fatalf("tree %d: worker %d's profile differs from the reference against the same dictionary", i, w)
			}
		}
		if p := rebuilt.ProfileQuery(tr); !profilesEqual(p, ref) {
			t.Fatalf("tree %d: rebuilt dictionary resolves a different profile", i)
		}
	}
	if rebuilt.Len() != in.Len() {
		t.Fatalf("rebuilt dictionary holds %d shapes, want %d", rebuilt.Len(), in.Len())
	}
}
