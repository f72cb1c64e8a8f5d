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

// packKids packs child labels as NewInternerFromShapes reads them.
func packKids(kids []int32) []byte {
	b := make([]byte, 0, 4*len(kids))
	for _, kid := range kids {
		b = binary.LittleEndian.AppendUint32(b, uint32(kid))
	}
	return b
}

// The shape table must round-trip to a dictionary with identical label
// assignments and identical AHU encodings.
func TestInternerShapesRoundTrip(t *testing.T) {
	trees, in := exportTestTrees(t, 60, 7)
	kidOff, kids := exportShapes(in)
	in2, err := NewInternerFromShapes(kidOff, packKids(kids))
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
		{"offset past the end", []int32{0, 0, 5, 1}, []int32{0}},
		{"forward reference", []int32{0, 0, 1}, []int32{1}},
		{"self reference", []int32{0, 0, 1}, []int32{1}},
		{"unsorted kids", []int32{0, 0, 0, 0, 2}, []int32{1, 0}},
		{"duplicate shape", []int32{0, 0, 0}, nil},
	}
	for _, tc := range cases {
		if _, err := NewInternerFromShapes(tc.kidOff, packKids(tc.kids)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
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
