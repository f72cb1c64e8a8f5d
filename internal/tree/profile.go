package tree

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file compiles signature trees into Profiles: flat, cache-dense
// summaries precomputed once — at corpus extraction, insert, or snapshot
// load — so that candidate evaluation in similarity queries never walks
// tree structure or compares heap strings again. A Profile carries
// exactly what the filter–verify cascade in internal/ned reads per
// candidate:
//
//   - the level-size vector (the padding lower bound becomes a single
//     loop over two []int32),
//   - every level's child counts, sorted ascending (the degree-sequence
//     lower bound becomes a walk over two sorted int32 runs per level),
//   - every node's subtree shape as a corpus-interned label ID, grouped
//     by depth and sorted within each level (the verify stage's
//     equal-label pre-match becomes a linear merge of two sorted int32
//     runs),
//   - the AHU canonical encoding of the whole tree as an interned 64-bit
//     key (isomorphism testing becomes one integer compare). The
//     encoding STRING is not part of the profile: the rare size-and-
//     height tie in the canonical TED* pair orientation compares
//     tree.Canonical of the two trees, which each tree derives once,
//     lazily, and caches — so neither profile compilation nor segment
//     load ever materializes encoding strings up front.
//
// Labels come from an Interner — one dictionary per corpus, shared by
// every index shard and epoch clone — so two nodes anywhere in the
// corpus carry equal label IDs iff their subtrees are isomorphic.
// Profiles from different Interners are not comparable.

// Profile is the precompiled summary of one signature tree. It is
// immutable after Interner.Profile returns and safe to share across
// goroutines and epoch clones.
type Profile struct {
	// Levels[d] is the number of nodes at depth d; len(Levels) is
	// height+1. Identical to Tree.LevelSize, without the tree.
	Levels []int32

	// Labels holds one interned subtree-shape label per node, grouped by
	// depth (the tree's level order) and sorted ascending within each
	// level, so per-level multisets merge linearly. Level d occupies
	// Labels[off : off+Levels[d]] with off the prefix sum of Levels[:d].
	Labels []int32

	// Degs holds every node's child count, grouped by depth on the same
	// offsets as Labels and sorted ascending within each level: the
	// degree sequences ted.DegreeBound compares. Derived from KidOff by
	// both profile constructors, never persisted, and label-free — a
	// read-only query profile carries the same Degs as an interned one.
	Degs []int32

	// Size is the node count (the sum of Levels).
	Size int32

	// Perm maps each level-sorted position back to its node: aligned
	// with Labels, Perm[off+i] is the level-local index (node ID minus
	// the level's first node ID) of the node whose label sits at
	// Labels[off+i]. Within a level the sort is by (label, node index),
	// so equal labels keep ascending node order — the order the
	// equal-label pre-match in TED* consumes them in.
	Perm []int32

	// Kids holds every node's children's labels, sorted ascending per
	// node: node v's run is Kids[KidOff[v] : KidOff[v+1]]. This is the
	// children collection S(v) of TED* Definition 6 under corpus-interned
	// labels, precomputed so the verify stage's faithful-level fast path
	// (ted.Computer.DistanceAtMostProfiled) builds residual cost matrices
	// without re-walking or re-sorting anything.
	Kids   []int32
	KidOff []int32

	// LeafLabel is the interned label of the childless (leaf) shape —
	// the label padded nodes assume during TED*'s equal-label pre-match.
	// Two comparable profiles always agree on it: any resolved profile's
	// dictionary has interned the leaf shape (every tree bottoms out in
	// leaves), so even a read-only query profile resolves its leaves to
	// the same dictionary ID.
	LeafLabel int32

	// Canon is the interned 64-bit key of the whole tree's AHU canonical
	// encoding: two profiles from the same Interner have equal Canon iff
	// their trees are isomorphic. When the pair orientation needs the
	// encoding itself (size and height tie), callers compare
	// tree.Canonical of the profiled trees — cached on the trees, never
	// stored here.
	Canon uint64
}

// Height returns the profiled tree's height.
func (p *Profile) Height() int { return len(p.Levels) - 1 }

// Resolved reports whether every label is a dictionary ID. False only
// for query-mode profiles (ProfileQuery) of trees containing shapes
// the dictionary had not interned at compile time — any such shape
// makes every ancestor's shape unknown too, so the root's key carries
// the sentinel bit exactly when a local label exists anywhere.
func (p *Profile) Resolved() bool { return p.Canon>>32 == 0 }

// Interner is a corpus-wide dictionary of subtree shapes: it assigns
// dense int32 label IDs such that two subtrees anywhere in the corpus
// get equal IDs iff they are isomorphic. All methods are safe for
// concurrent use; profile builds from parallel extraction workers and
// from queries share one Interner.
//
// The dictionary only grows — shapes are never evicted, so label IDs
// stay stable for the life of the corpus (epoch clones and rebuilt
// indexes keep their profiles valid). Only indexed items intern
// (Profile); query signatures compile read-only (ProfileQuery), so the
// dictionary's size is bounded by the distinct shapes of the corpus's
// own signatures, never by what is queried against it.
type Interner struct {
	id    uint64 // process-unique; profile caches key on it (no pointer pinning)
	mu    sync.RWMutex
	byKey map[string]int32 // packed sorted child-label IDs -> label ID
	n     int32            // next label ID == number of interned shapes
}

// internerIDs hands every dictionary a process-unique identity.
var internerIDs atomic.Uint64

// NewInterner returns an empty shape dictionary.
func NewInterner() *Interner {
	return &Interner{id: internerIDs.Add(1), byKey: make(map[string]int32)}
}

// Len reports how many distinct subtree shapes have been interned.
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return int(in.n)
}

// lookup resolves a shape key without mutating the dictionary.
func (in *Interner) lookup(key []byte) (int32, bool) {
	in.mu.RLock()
	id, ok := in.byKey[string(key)]
	in.mu.RUnlock()
	return id, ok
}

// intern resolves one shape — identified by the packed, ascending child
// label IDs in key — to its label, registering it on first sight.
func (in *Interner) intern(key []byte) int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.byKey[string(key)]; ok {
		return id
	}
	id := in.n
	in.n++
	in.byKey[string(key)] = id
	return id
}

// ProfileCached is Profile behind t's single-slot cache: the compiled
// profile is remembered on the tree (keyed by this Interner's identity,
// not a pointer, so a cached profile never pins a dropped dictionary),
// so repeated use of the same signature tree against the same corpus
// compiles it once. Only fully-resolved profiles ever enter the cache,
// and those are valid forever (the dictionary never evicts), so a hit
// needs no revalidation. Safe for concurrent use; a cache miss under a
// race just compiles twice and keeps either result (they are
// equivalent — interning is deterministic given the dictionary state,
// and labels only ever gain meanings).
func (in *Interner) ProfileCached(t *Tree) *Profile {
	if c := t.profCache.Load(); c != nil && c.dict == in.id && c.p.Resolved() {
		return c.p
	}
	p := in.Profile(t)
	t.profCache.Store(&cachedProfile{dict: in.id, dictLen: in.Len(), p: p})
	return p
}

// ProfileQueryCached is ProfileQuery behind the same single-slot
// cache. A fully-resolved query profile is indistinguishable from an
// interned one and stays valid forever; one carrying local labels is
// only valid while the dictionary holds exactly the shapes it held at
// compile time — interning any new shape (a subsequent Insert) could
// turn a local label into a false mismatch against the newly indexed
// shape — so a hit on an unresolved profile revalidates against the
// dictionary's current size and recompiles on growth.
func (in *Interner) ProfileQueryCached(t *Tree) *Profile {
	if c := t.profCache.Load(); c != nil && c.dict == in.id &&
		(c.p.Resolved() || in.Len() == c.dictLen) {
		return c.p
	}
	// Capture the size before compiling: growth DURING the compile then
	// invalidates the entry on its next use, conservatively.
	dictLen := in.Len()
	p := in.ProfileQuery(t)
	t.profCache.Store(&cachedProfile{dict: in.id, dictLen: dictLen, p: p})
	return p
}

// Profile compiles t against the dictionary, interning shapes it has
// never seen. The bottom-up labeling visits every child before its
// parent (level order guarantees children have larger IDs) and
// resolves each node's shape from its children's labels alone, so the
// per-tree cost is O(n) dictionary operations — the encoding strings
// are only materialized for shapes the corpus has never seen. Use for
// indexed items; queries use ProfileQuery.
func (in *Interner) Profile(t *Tree) *Profile { return in.profile(t, false) }

// ProfileQuery compiles t WITHOUT mutating the dictionary: shapes the
// corpus has never indexed get profile-local negative labels. A
// negative label can never equal an indexed (non-negative) label —
// correctly so, since a shape absent from the dictionary occurs in no
// indexed signature — so every cascade bound stays exact, while an
// arbitrary query stream can neither grow the corpus dictionary nor
// touch its write lock.
func (in *Interner) ProfileQuery(t *Tree) *Profile { return in.profile(t, true) }

func (in *Interner) profile(t *Tree, readOnly bool) *Profile {
	n := t.Size()
	labels := make([]int32, n)
	// Per-node sorted children-label runs, CSR-aligned with the tree's
	// own child storage (same counts, same offsets).
	kidOff := make([]int32, n+1)
	copy(kidOff, t.childOff)
	kidsArr := make([]int32, len(t.childIDs))
	var key []byte
	// Shapes repeat heavily within one tree (every leaf, for a start):
	// a tree-local memo keeps repeated shapes off the shared lock.
	local := make(map[string]int32, 16)
	nextLocal := int32(-1)
	for v := n - 1; v >= 0; v-- {
		kids := t.Children(int32(v))
		kidLabels := kidsArr[kidOff[v]:kidOff[v+1]]
		for i, c := range kids {
			kidLabels[i] = labels[c]
		}
		slices.Sort(kidLabels)
		key = key[:0]
		for _, id := range kidLabels {
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		if id, ok := local[string(key)]; ok {
			labels[v] = id
			continue
		}
		// A key containing a local (negative) child label can never be
		// in the dictionary; the lookup just misses. Negative int32s
		// pack to byte patterns no non-negative ID produces, so local
		// keys cannot collide with dictionary keys either.
		id, ok := in.lookup(key)
		if !ok {
			if readOnly {
				id = nextLocal
				nextLocal--
			} else {
				id = in.intern(key)
			}
		}
		local[string(key)] = id
		labels[v] = id
	}

	levels := levelSizes(t)
	p := &Profile{
		Levels:    levels,
		Labels:    labels,
		Degs:      levelDegrees(levels, kidOff),
		Perm:      make([]int32, n),
		Kids:      kidsArr,
		KidOff:    kidOff,
		LeafLabel: labels[n-1], // last node in level order: deepest, a leaf
		Size:      int32(n),
	}
	if root := labels[0]; root >= 0 {
		p.Canon = uint64(root)
	} else {
		// Whole-tree shape unknown to the corpus: no indexed tree is
		// isomorphic, so give the key a value outside the dictionary's
		// int32 range (equality with any interned key is impossible).
		p.Canon = (1 << 32) | uint64(uint32(-root))
	}
	// The bottom-up pass is done with per-node association; the filter
	// tiers want per-level sorted multisets, so sort each level's run in
	// place — keeping the association in Perm by sorting packed
	// (label, index) keys: labels ascending (the XOR flips the sign bit
	// so negative query-local labels order before dictionary IDs), equal
	// labels by ascending node index.
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
	return p
}

// levelSizes returns t's level-size vector (Profile.Levels).
func levelSizes(t *Tree) []int32 {
	levels := make([]int32, t.Height()+1)
	for d := range levels {
		levels[d] = int32(t.LevelSize(d))
	}
	return levels
}

// levelDegrees fills Profile.Degs: node v's child count is
// kidOff[v+1]-kidOff[v], nodes are numbered in level order, and each
// level's run is sorted ascending.
func levelDegrees(levels, kidOff []int32) []int32 {
	degs := make([]int32, len(kidOff)-1)
	for v := range degs {
		degs[v] = kidOff[v+1] - kidOff[v]
	}
	off := int32(0)
	for _, w := range levels {
		slices.Sort(degs[off : off+w])
		off += w
	}
	return degs
}
