package tree

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"unsafe"
)

// This file is the persistence boundary of the shape dictionary and
// the compiled profiles: binary corpus segments (internal/segment)
// store the Interner as a CSR table of child-label runs and each tree
// as the node-order labels of its levels above the deepest — an arena
// row's stored form (ProfileArena.Words), which a load reads back into
// rows without re-walking graphs, re-hashing shapes, or deriving a
// single AHU string per node. The segment reader checks those labels
// against the dictionary, since a checksum only proves the file is what
// was written, not that what was written is consistent; segments of the
// earlier layout, which stored the profile columns themselves, are
// translated into the stored form before that check, so nothing here
// reads them.

// Shapes returns the dictionary in label-ID order without copying it:
// shape id's key, Shapes()[id], is its sorted child labels packed as
// little-endian u32s. Labels are assigned bottom-up at intern time, so
// every child label is strictly smaller than its shape's own id — the
// invariant that lets NewInternerFromShapes rebuild the dictionary in
// one forward pass. The result is a capacity-clipped view of the
// dictionary's own table and must not be written; interning goes on
// beside it, since entries never change once they exist.
func (in *Interner) Shapes() []string {
	// Holding every stripe's read lock stops all interning, and an entry
	// is written under one stripe's write lock, so the counter and the
	// table agree while we read them.
	for i := range in.stripes {
		in.stripes[i].mu.RLock()
		defer in.stripes[i].mu.RUnlock()
	}
	n := in.Len()
	return in.shapes[:n:n]
}

// NewInternerFromShapes rebuilds a dictionary from a CSR shape table
// (the layout a segment stores Shapes in), reassigning the same label
// IDs: shape id gets the sorted child labels packed as little-endian
// u32s in keys[4*kidOff[id]:4*kidOff[id+1]], each of which must be a
// smaller id (children intern before parents). No AHU encoding strings
// are materialized — the dictionary never stores them — and every key
// is a view of keys itself, which the caller must never write again, so
// rebuilding copies nothing and costs one hash and one insert, into a
// map sized for its stripe's share, per distinct shape; profiles
// reconstructed against the result are indistinguishable from freshly
// compiled ones.
func NewInternerFromShapes(kidOff []int32, keys []byte) (*Interner, error) {
	if len(kidOff) == 0 || kidOff[0] != 0 {
		return nil, fmt.Errorf("tree: shape table offsets must start at 0")
	}
	n := len(kidOff) - 1
	if 4*int64(kidOff[n]) != int64(len(keys)) {
		return nil, fmt.Errorf("tree: shape table declares %d child labels, has %d bytes", kidOff[n], len(keys))
	}
	for id := 0; id < n; id++ {
		if kidOff[id] > kidOff[id+1] {
			return nil, fmt.Errorf("tree: shape %d has negative child count", id)
		}
		if kidOff[id+1] > kidOff[n] {
			return nil, fmt.Errorf("tree: shape %d ends past the table's %d child labels", id, kidOff[n])
		}
		prev := int32(-1)
		for j := kidOff[id]; j < kidOff[id+1]; j++ {
			kid := int32(binary.LittleEndian.Uint32(keys[4*j:]))
			if kid < 0 || kid >= int32(id) {
				return nil, fmt.Errorf("tree: shape %d has child label %d (want [0, %d))", id, kid, id)
			}
			if kid < prev {
				return nil, fmt.Errorf("tree: shape %d child labels not sorted", id)
			}
			prev = kid
		}
	}
	all := unsafe.String(unsafe.SliceData(keys), len(keys))
	in := &Interner{id: internerIDs.Add(1), shapes: make([]string, n)}
	stripe := make([]uint8, n)
	var share [internStripes]int
	for id := range stripe {
		key := all[4*kidOff[id] : 4*kidOff[id+1]]
		s := uint8(maphash.String(internSeed, key) & (internStripes - 1))
		in.shapes[id], stripe[id] = key, s
		share[s]++
	}
	for i := range in.stripes {
		in.stripes[i].m = make(map[string]int32, share[i])
	}
	for id, key := range in.shapes {
		m := in.stripes[stripe[id]].m
		had := len(m)
		if m[key] = int32(id); len(m) == had {
			return nil, fmt.Errorf("tree: shape %d duplicates an earlier shape", id)
		}
	}
	in.next.Store(int32(n))
	return in, nil
}
