package tree

import (
	"bytes"
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

// exportShapes lays the dictionary out as a CSR shape table: shape
// id's sorted child labels occupy kids[kidOff[id]:kidOff[id+1]].
func exportShapes(in *Interner) (kidOff, kids []int32) {
	kidOff = make([]int32, in.Len()+1)
	for id := range int32(in.Len()) {
		kids = in.Kids(id, kids)
		kidOff[id+1] = int32(len(kids))
	}
	return kidOff, kids
}

// The shape table must round-trip to a dictionary with identical label
// assignments and identical AHU encodings.
func TestInternerShapesRoundTrip(t *testing.T) {
	trees, in := exportTestTrees(t, 60, 7)
	kidOff, kids := exportShapes(in)
	in2, err := NewInternerFromKids(kidOff, kids)
	if err != nil {
		t.Fatalf("NewInternerFromKids: %v", err)
	}
	keys, off := in.Coded()
	keys2, off2 := in2.Coded()
	if !slices.Equal(off, off2) || !bytes.Equal(keys, keys2) {
		t.Fatal("the shape table codes other keys than the dictionary holds")
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
	kidOff2, kids2 := exportShapes(in)
	if !reflect.DeepEqual(kidOff, kidOff2) || !reflect.DeepEqual(kids, kids2) {
		t.Fatal("the shape table is not deterministic")
	}
}

// NewInternerFromKids rejects every shape table a dictionary could not
// have written: bad offsets, children not below their shape or not
// sorted, and a shape twice.
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
		{"offset past the end", []int32{0, 0, 5, 1}, []int32{0}},
		{"forward reference", []int32{0, 0, 1}, []int32{1}},
		{"self reference", []int32{0, 0, 1}, []int32{1}},
		{"unsorted kids", []int32{0, 0, 0, 0, 2}, []int32{1, 0}},
		{"duplicate shape", []int32{0, 0, 0}, nil},
	}
	for _, tc := range cases {
		if _, err := NewInternerFromKids(tc.kidOff, tc.kids); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// Coded hands out views of a buffer that interning keeps appending to:
// every view taken mid-interning must be a prefix of the final buffer,
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
	var views [][]byte
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
		keys, _ := in.Coded()
		views = append(views, keys)
	}
	final, off := in.Coded()
	n := len(off) - 1
	if n != in.Len() {
		t.Fatalf("Coded holds %d shapes, the dictionary %d", n, in.Len())
	}
	for _, view := range views {
		if !bytes.HasPrefix(final, view) {
			t.Fatalf("a %d-byte view taken while interning is not a prefix of the final buffer", len(view))
		}
	}
	for id := range int32(n) {
		for _, kid := range in.Kids(id, nil) {
			if kid >= id {
				t.Fatalf("shape %d has child label %d: children must intern first", id, kid)
			}
		}
	}
}
