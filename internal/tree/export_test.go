package tree

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// exportTestTrees builds a varied batch of trees sharing one interner.
func exportTestTrees(t *testing.T, n int, seed int64) ([]*Tree, *Interner) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := NewInterner()
	var trees []*Tree
	trees = append(trees, MustNew([]int32{-1})) // single node
	trees = append(trees, Path(5), Star(6))
	for i := 0; i < n; i++ {
		trees = append(trees, Random(rng, 2+rng.Intn(40), 1+rng.Intn(4)))
	}
	for _, tr := range trees {
		in.Profile(tr)
	}
	return trees, in
}

// exportShapes lays Shapes out as the CSR table a segment stores:
// shape id's sorted child labels occupy kids[kidOff[id]:kidOff[id+1]].
func exportShapes(in *Interner) (kidOff, kids []int32) {
	shapes := in.Shapes()
	kidOff = make([]int32, len(shapes)+1)
	for id, key := range shapes {
		kidOff[id+1] = kidOff[id] + int32(len(key)/4)
		for j := 0; j < len(key); j += 4 {
			kids = append(kids, int32(binary.LittleEndian.Uint32([]byte(key[j:]))))
		}
	}
	return kidOff, kids
}

// The shape table must round-trip to a dictionary with identical label
// assignments and identical AHU encodings.
func TestInternerShapesRoundTrip(t *testing.T) {
	trees, in := exportTestTrees(t, 60, 7)
	kidOff, kids := exportShapes(in)
	in2, err := NewInternerFromShapes(kidOff, kids)
	if err != nil {
		t.Fatalf("NewInternerFromShapes: %v", err)
	}
	if in2.Len() != in.Len() {
		t.Fatalf("rebuilt dictionary has %d shapes, want %d", in2.Len(), in.Len())
	}
	// Re-profiling the same trees against the rebuilt dictionary must
	// reproduce identical labels without interning anything new.
	for i, tr := range trees {
		p1 := in.Profile(tr.Clone())
		p2 := in2.Profile(tr.Clone())
		if !reflect.DeepEqual(p1.Labels, p2.Labels) || p1.Canon != p2.Canon {
			t.Fatalf("tree %d profiles diverged across dictionary round-trip", i)
		}
	}
	if in2.Len() != in.Len() {
		t.Fatalf("re-profiling grew the rebuilt dictionary to %d shapes, want %d", in2.Len(), in.Len())
	}
	// Determinism: exporting twice yields the same table.
	off2, kids2 := exportShapes(in)
	if !reflect.DeepEqual(kidOff, off2) || !reflect.DeepEqual(kids, kids2) {
		t.Fatal("Shapes is not deterministic")
	}
}

func TestNewInternerFromShapesRejectsBadTables(t *testing.T) {
	cases := []struct {
		name   string
		kidOff []int32
		kids   []int32
	}{
		{"empty offsets", nil, nil},
		{"offset not zero", []int32{1, 2}, []int32{0}},
		{"length mismatch", []int32{0, 2}, []int32{0}},
		{"negative count", []int32{0, 2, 1}, []int32{0, 0}},
		{"forward reference", []int32{0, 0, 1}, []int32{1}},
		{"self reference", []int32{0, 0, 1}, []int32{1}},
		{"unsorted kids", []int32{0, 0, 0, 0, 2}, []int32{1, 0}},
		{"duplicate shape", []int32{0, 0, 0}, nil},
	}
	for _, tc := range cases {
		if _, err := NewInternerFromShapes(tc.kidOff, tc.kids); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// fullColumns is what an earlier layout persisted for p: its columns
// with the deepest level's leaf labels, its identity Perm and level
// h-1's leaf kid runs appended.
func fullColumns(p *Profile) (labels, perm, kids []int32) {
	labels, perm, kids = slices.Clone(p.Labels), slices.Clone(p.Perm), slices.Clone(p.Kids)
	for i := range p.Levels[p.Height()] {
		labels, perm = append(labels, p.LeafLabel), append(perm, i)
	}
	for len(kids) < int(p.Size)-1 {
		kids = append(kids, p.LeafLabel)
	}
	return labels, perm, kids
}

// ProfileFromParts must rebuild a profile bit-identical to a fresh
// compile of the same tree against the same dictionary.
func TestProfileFromPartsRoundTrip(t *testing.T) {
	trees, in := exportTestTrees(t, 60, 11)
	kidOff, kids := exportShapes(in)
	in2, err := NewInternerFromShapes(kidOff, kids)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trees {
		want := in.Profile(tr)
		clone := tr.Clone()
		labels, perm, kids := fullColumns(want)
		got, err := in2.ProfileFromParts(clone, labels, perm, kids, &Slab{})
		if err != nil {
			t.Fatalf("tree %d: ProfileFromParts: %v", i, err)
		}
		if !slices.Equal(got.Levels, want.Levels) ||
			!slices.Equal(got.Labels, want.Labels) ||
			!slices.Equal(got.Perm, want.Perm) ||
			!slices.Equal(got.Kids, want.Kids) ||
			!slices.Equal(got.KidOff, want.KidOff) ||
			!slices.Equal(got.Degs, want.Degs) ||
			got.Size != want.Size ||
			got.LeafLabel != want.LeafLabel || got.Canon != want.Canon {
			t.Fatalf("tree %d: reconstructed profile differs:\n got %+v\nwant %+v", i, got, want)
		}
		if !got.Resolved() {
			t.Fatalf("tree %d: reconstructed profile unresolved", i)
		}
		// The reconstruction must have primed the tree's profile cache.
		if c := clone.profCache.Load(); c == nil || c.p != got {
			t.Fatalf("tree %d: profile cache not primed", i)
		}
	}
}

func TestProfileFromPartsRejectsBadColumns(t *testing.T) {
	in := NewInterner()
	tr := MustNew([]int32{-1, 0, 0, 1})
	labels, perm, kids := fullColumns(in.Profile(tr))
	dup := slices.Clone[[]int32]
	if _, err := in.ProfileFromParts(tr, dup(labels[:2]), dup(perm), dup(kids), nil); err == nil {
		t.Error("short labels accepted")
	}
	if _, err := in.ProfileFromParts(tr, dup(labels), dup(perm), dup(kids[:1]), nil); err == nil {
		t.Error("short kids accepted")
	}
	bad := dup(labels)
	bad[0] = int32(in.Len()) + 5
	if _, err := in.ProfileFromParts(tr, bad, dup(perm), dup(kids), nil); err == nil {
		t.Error("out-of-dictionary label accepted")
	}
	bad = dup(labels)
	bad[0] = -1
	if _, err := in.ProfileFromParts(tr, bad, dup(perm), dup(kids), nil); err == nil {
		t.Error("negative label accepted")
	}
	badPerm := dup(perm)
	badPerm[1] = 99
	if _, err := in.ProfileFromParts(tr, dup(labels), badPerm, dup(kids), nil); err == nil {
		t.Error("out-of-level perm accepted")
	}
	// Unsorted labels within a level: nodes 1 and 2 share level 1.
	unsorted := dup(labels)
	if unsorted[1] != unsorted[2] {
		unsorted[1], unsorted[2] = unsorted[2], unsorted[1]
		if _, err := in.ProfileFromParts(tr, unsorted, dup(perm), dup(kids), nil); err == nil {
			t.Error("unsorted level labels accepted")
		}
	}
	// The deepest level (node 3) and level 1's kids must be what the
	// profile leaves implicit: leaves.
	bad = dup(labels)
	bad[3] = labels[0]
	if _, err := in.ProfileFromParts(tr, bad, dup(perm), dup(kids), nil); err == nil {
		t.Error("non-leaf label on the deepest level accepted")
	}
	badKids := dup(kids)
	badKids[2] = labels[0]
	if _, err := in.ProfileFromParts(tr, dup(labels), dup(perm), badKids, nil); err == nil {
		t.Error("non-leaf kid of level h-1 accepted")
	}
}

// Shapes hands out views of a table that interning keeps appending to:
// every view taken mid-interning must be a prefix of the final table,
// each shape's children interned before it.
func TestShapesWhileInterning(t *testing.T) {
	trees, _ := exportTestTrees(t, 200, 13)
	in := NewInterner()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(trees); i += 4 {
				in.Profile(trees[i].Clone())
			}
		}()
	}
	var views [][]string
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		views = append(views, in.Shapes())
	}
	final := in.Shapes()
	if len(final) != in.Len() {
		t.Fatalf("Shapes holds %d shapes, the dictionary %d", len(final), in.Len())
	}
	for _, view := range views {
		if !slices.Equal(view, final[:len(view)]) {
			t.Fatalf("a %d-shape view taken while interning is not a prefix of the final table", len(view))
		}
	}
	for id, key := range final {
		for j := 0; j < len(key); j += 4 {
			if kid := binary.LittleEndian.Uint32([]byte(key[j:])); kid >= uint32(id) {
				t.Fatalf("shape %d has child label %d: children must intern first", id, kid)
			}
		}
	}
}
