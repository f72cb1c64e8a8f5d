package tree

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file is the persistence boundary of the shape dictionary and
// the compiled profiles: binary corpus segments (internal/segment)
// store the Interner as a CSR table of child-label runs and each
// Profile as its flat int32 columns, so a snapshot load reconstructs
// both WITHOUT re-walking trees, re-hashing shapes, or re-deriving a
// single AHU string per node — the restart cost the binary format
// exists to eliminate. Everything here validates its input: segment
// bytes pass a checksum before they reach these constructors, but a
// checksum only proves the file is what was written, not that what was
// written is consistent.

// ExportShapes returns the dictionary as a CSR table over label IDs:
// shape id's sorted child labels occupy kids[kidOff[id]:kidOff[id+1]].
// Labels are assigned bottom-up at intern time, so every child label
// is strictly smaller than its shape's own id — the invariant that
// lets NewInternerFromShapes rebuild the encodings in one forward
// pass. The result is deterministic for a given dictionary state.
func (in *Interner) ExportShapes() (kidOff, kids []int32) {
	// Holding every stripe's read lock stops all interning, and an ID is
	// taken and stored under one stripe's write lock, so the counter and
	// the maps agree while we read them.
	for i := range in.stripes {
		in.stripes[i].mu.RLock()
		defer in.stripes[i].mu.RUnlock()
	}
	n := in.Len()
	kidOff = make([]int32, n+1)
	for i := range in.stripes {
		for key, id := range in.stripes[i].m {
			kidOff[id+1] = int32(len(key) / 4)
		}
	}
	for i := 1; i <= n; i++ {
		kidOff[i] += kidOff[i-1]
	}
	kids = make([]int32, kidOff[n])
	for i := range in.stripes {
		for key, id := range in.stripes[i].m {
			run := kids[kidOff[id]:kidOff[id+1]]
			for j := range run {
				k := key[4*j:]
				run[j] = int32(uint32(k[0]) | uint32(k[1])<<8 | uint32(k[2])<<16 | uint32(k[3])<<24)
			}
		}
	}
	return kidOff, kids
}

// NewInternerFromShapes rebuilds a dictionary from an ExportShapes
// table, reassigning the same label IDs: shape id gets the sorted
// child labels kids[kidOff[id]:kidOff[id+1]], each of which must be a
// smaller id (children intern before parents). No AHU encoding strings
// are materialized — the dictionary never stores them — so rebuilding
// costs one map insert per distinct shape and profiles reconstructed
// against the result are indistinguishable from freshly compiled ones.
func NewInternerFromShapes(kidOff, kids []int32) (*Interner, error) {
	if len(kidOff) == 0 || kidOff[0] != 0 {
		return nil, fmt.Errorf("tree: shape table offsets must start at 0")
	}
	n := len(kidOff) - 1
	if int(kidOff[n]) != len(kids) {
		return nil, fmt.Errorf("tree: shape table declares %d child labels, has %d", kidOff[n], len(kids))
	}
	in := NewInterner()
	var key []byte
	for id := 0; id < n; id++ {
		if kidOff[id] > kidOff[id+1] {
			return nil, fmt.Errorf("tree: shape %d has negative child count", id)
		}
		run := kids[kidOff[id]:kidOff[id+1]]
		key = key[:0]
		prev := int32(-1)
		for _, kid := range run {
			if kid < 0 || kid >= int32(id) {
				return nil, fmt.Errorf("tree: shape %d has child label %d (want [0, %d))", id, kid, id)
			}
			if kid < prev {
				return nil, fmt.Errorf("tree: shape %d child labels not sorted", id)
			}
			prev = kid
			key = binary.LittleEndian.AppendUint32(key, uint32(kid))
		}
		s := in.stripe(shapeHash(key))
		if _, dup := s.m[string(key)]; dup {
			return nil, fmt.Errorf("tree: shape %d duplicates an earlier shape", id)
		}
		s.m[string(key)] = int32(id)
	}
	in.next.Store(int32(n))
	return in, nil
}

// ProfileFromParts reconstructs a compiled Profile from its persisted
// columns — the level-sorted labels, the level-local permutation, and
// the CSR child-label runs aligned with t's own child storage — all
// expressed against this dictionary. The derived fields (level sizes,
// size, degree sequences, leaf and root labels, the interned encoding)
// are recomputed from the tree and dictionary rather than trusted, and the
// stored columns are validated structurally: every label a dictionary
// ID, labels sorted within each level, Perm a plausible level-local
// index. The derived columns are carved from s (plain allocations
// when s is nil), so a segment load pays no per-tree make for them.
// The reconstructed profile enters t's profile cache, exactly as a
// fresh compile would.
func (in *Interner) ProfileFromParts(t *Tree, labels, perm, kids []int32, s *Slab) (*Profile, error) {
	n := t.Size()
	if len(labels) != n || len(perm) != n {
		return nil, fmt.Errorf("tree: profile has %d labels and %d perm entries for a %d-node tree", len(labels), len(perm), n)
	}
	if len(kids) != n-1 {
		return nil, fmt.Errorf("tree: profile has %d child labels, tree has %d edges", len(kids), n-1)
	}
	dictLen := int32(in.Len())
	// One pass over kids checks range and per-node sortedness together:
	// within node v's run each label must be in [prev, dictLen), with
	// prev resetting to 0 at every node boundary.
	for v, i := 0, 0; v < n; v++ {
		prev := int32(0)
		for end := int(t.childOff[v+1]); i < end; i++ {
			l := kids[i]
			if l < prev || l >= dictLen {
				return nil, fmt.Errorf("tree: profile child labels of node %d not sorted within dictionary [0, %d)", v, dictLen)
			}
			prev = l
		}
	}
	h := t.Height()
	levels := levelSizes(t, s.Alloc(h+1))
	// Labels must be sorted within each level AND every one a dictionary
	// ID; sortedness makes the range check per level O(1) (first and
	// last element), leaving one comparison per label.
	off := int32(0)
	for d, w := range levels {
		run := labels[off : off+w]
		if !slices.IsSorted(run) {
			return nil, fmt.Errorf("tree: profile labels not sorted within level %d", d)
		}
		if run[0] < 0 || run[w-1] >= dictLen {
			return nil, fmt.Errorf("tree: profile labels of level %d outside dictionary [0, %d)", d, dictLen)
		}
		for _, p := range perm[off : off+w] {
			if p < 0 || p >= w {
				return nil, fmt.Errorf("tree: profile perm entry %d outside level %d width %d", p, d, w)
			}
		}
		off += w
	}
	p := &Profile{
		Levels:    levels,
		Labels:    labels,
		Degs:      levelDegrees(levels, t.childOff, s.Alloc(int(t.levelOff[h]))),
		Perm:      perm,
		Kids:      kids,
		KidOff:    t.childOff, // aligned by construction; both sides immutable
		LeafLabel: labels[n-1],
		Size:      int32(n),
		Canon:     uint64(labels[0]), // level 0 is the root alone
	}
	t.profCache.Store(&cachedProfile{dict: in.id, dictLen: in.Len(), p: p})
	return p, nil
}
