package tree

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"unsafe"
)

// This file is the persistence boundary of the shape dictionary and
// the compiled profiles: binary corpus segments (internal/segment)
// store the Interner as a CSR table of child-label runs and each tree
// as the node-order labels of its levels above the deepest — an arena
// row's stored form (ProfileArena.Words), which a load reads back into
// rows without re-walking graphs, re-hashing shapes, or deriving a
// single AHU string per node. Segments of the earlier layout stored the
// profile columns themselves and still load through ProfileFromParts,
// which validates them: segment bytes pass a checksum before they reach
// it, but a checksum only proves the file is what was written, not that
// what was written is consistent.

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
// IDs: shape id gets the sorted child labels kids[kidOff[id]:kidOff[id+1]],
// each of which must be a smaller id (children intern before parents).
// No AHU encoding strings are materialized — the dictionary never
// stores them — and every key is a view of one buffer holding the whole
// table, so rebuilding costs one hash and one insert, into a map sized
// for its stripe's share, per distinct shape; profiles reconstructed
// against the result are indistinguishable from freshly compiled ones.
func NewInternerFromShapes(kidOff, kids []int32) (*Interner, error) {
	if len(kidOff) == 0 || kidOff[0] != 0 {
		return nil, fmt.Errorf("tree: shape table offsets must start at 0")
	}
	n := len(kidOff) - 1
	if int(kidOff[n]) != len(kids) {
		return nil, fmt.Errorf("tree: shape table declares %d child labels, has %d", kidOff[n], len(kids))
	}
	buf := make([]byte, 0, 4*len(kids))
	for id := 0; id < n; id++ {
		if kidOff[id] > kidOff[id+1] {
			return nil, fmt.Errorf("tree: shape %d has negative child count", id)
		}
		prev := int32(-1)
		for _, kid := range kids[kidOff[id]:kidOff[id+1]] {
			if kid < 0 || kid >= int32(id) {
				return nil, fmt.Errorf("tree: shape %d has child label %d (want [0, %d))", id, kid, id)
			}
			if kid < prev {
				return nil, fmt.Errorf("tree: shape %d child labels not sorted", id)
			}
			prev = kid
			buf = binary.LittleEndian.AppendUint32(buf, uint32(kid))
		}
	}
	// buf is never written again, so the keys may share it.
	all := unsafe.String(unsafe.SliceData(buf), len(buf))
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

// ProfileFromParts reconstructs a compiled Profile from the columns an
// earlier layout persisted — the level-sorted labels, the level-local
// permutation, and the CSR child-label runs aligned with t's own child
// storage, every level's included — all expressed against this
// dictionary. The derived fields (level sizes, size, degree sequences,
// leaf and root labels, the interned encoding) are recomputed from the
// tree and dictionary rather than trusted, and the stored columns are
// validated structurally: every label a dictionary ID, labels sorted
// within each level, Perm a plausible level-local index, and the
// deepest level what the profile leaves implicit — every label the
// dictionary's leaf shape, Perm the identity, and the kids of level h-1
// all leaves. Only the columns above the deepest level are kept, copied
// into s (plain allocations when s is nil) with the derived ones, so the
// result holds no reference to the arguments. The reconstructed profile
// enters t's profile cache, exactly as a fresh compile would.
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
	for v, i := int32(0), 0; int(v) < n; v++ {
		prev := int32(0)
		for end := i + t.NumChildren(v); i < end; i++ {
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
	inner := int(t.levelOff[h])
	nk := max(inner-1, 0)
	leaf, ok := in.resolve(nil, shapeHash(nil), true)
	if !ok {
		return nil, fmt.Errorf("tree: the dictionary has no leaf shape")
	}
	for i := inner; i < n; i++ {
		if labels[i] != leaf || perm[i] != int32(i-inner) {
			return nil, fmt.Errorf("tree: profile's deepest level is not %d leaves in node order", n-inner)
		}
	}
	for _, l := range kids[nk:] {
		if l != leaf {
			return nil, fmt.Errorf("tree: profile gives a node on level %d a child that is not a leaf", h-1)
		}
	}
	lab, prm, kds := s.Alloc(inner), s.Alloc(inner), s.Alloc(nk)
	copy(lab, labels)
	copy(prm, perm)
	copy(kds, kids)
	p := &Profile{
		Levels:    levels,
		Labels:    lab,
		Degs:      levelDegrees(levels, t.childOff, s.Alloc(inner)),
		Perm:      prm,
		Kids:      kds,
		KidOff:    t.childOff[: inner+1 : inner+1], // aligned by construction; both sides immutable
		LeafLabel: leaf,
		Size:      int32(t.Size()),
		dict:      in,
	}
	p.Canon = uint64(p.rootLabel())
	t.profCache.Store(&cachedProfile{dict: in.id, dictLen: in.Len(), p: p})
	return p, nil
}
