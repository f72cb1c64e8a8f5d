package tree

import (
	"encoding/binary"
	"hash/maphash"
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
//   - the child counts of every level above the deepest, sorted
//     ascending (the degree-sequence lower bound becomes a walk over two
//     sorted int32 runs per level),
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

// The columns stop at level h-1. The deepest level of every tree is
// all leaves, so its contents follow from its width Levels[h] alone:
// every label there is LeafLabel, its Perm is the identity and no node
// on it has children. A node on level h-1 therefore has an implicit kid
// run, LeafLabel repeated its child count, and Kids stores the runs of
// levels 0..h-2 only. Consumers read the deepest level as a leaf run of
// width Levels[h].

// Profile is the precompiled summary of one signature tree. It is
// immutable after Interner.Profile returns and safe to share across
// goroutines and epoch clones.
type Profile struct {
	// Levels[d] is the number of nodes at depth d; len(Levels) is
	// height+1. Identical to Tree.LevelSize, without the tree.
	Levels []int32

	// Labels holds one interned subtree-shape label per node above the
	// deepest level, grouped by depth (the tree's level order) and sorted
	// ascending within each level, so per-level multisets merge linearly.
	// Level d < height occupies Labels[off : off+Levels[d]] with off the
	// prefix sum of Levels[:d]; the deepest level is implicit (every
	// label LeafLabel), so len(Labels) is Size minus the last level's
	// width.
	Labels []int32

	// Degs holds the child count of every node above the deepest level,
	// grouped by depth on the same offsets as Labels and sorted ascending
	// within each level: the degree sequences ted.DegreeBound compares.
	// Derived from KidOff by both profile constructors, never persisted,
	// and label-free — a read-only query profile carries the same Degs as
	// an interned one.
	Degs []int32

	// Size is the node count (the sum of Levels).
	Size int32

	// Perm maps each level-sorted position back to its node: aligned
	// with Labels, Perm[off+i] is the level-local index (node ID minus
	// the level's first node ID) of the node whose label sits at
	// Labels[off+i]. Within a level the sort is by (label, node index),
	// so equal labels keep ascending node order — the order the
	// equal-label pre-match in TED* consumes them in. The deepest
	// level's Perm, the identity, is implicit.
	Perm []int32

	// Kids holds the children's labels of every node above level h-1,
	// sorted ascending per node: node v's run is
	// Kids[KidOff[v] : KidOff[v+1]]. This is the children collection S(v)
	// of TED* Definition 6 under corpus-interned labels, precomputed so
	// the verify stage's faithful-level fast path
	// (ted.Computer.DistanceAtMostProfiled) builds residual cost matrices
	// without re-walking or re-sorting anything. A node v on level h-1
	// has the implicit run LeafLabel × (KidOff[v+1]-KidOff[v]), past the
	// end of Kids; the deepest level's nodes have no runs and no KidOff
	// entries. KidOff is the tree's own child offsets, Size minus the last
	// level's width plus one entries.
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

	// dict is the dictionary an indexed profile's labels are interned
	// in; nil for a query profile, which is never indexed.
	dict *Interner
}

// Height returns the profiled tree's height.
func (p *Profile) Height() int { return len(p.Levels) - 1 }

// InnerDegs is Degs without the root's entry: the sorted child counts of
// levels 1…h−1, the runs tier 2 compares (ted.DegreeExcessRuns). Empty
// for a tree of height 0 or 1.
func (p *Profile) InnerDegs() []int32 {
	if len(p.Degs) == 0 {
		return nil
	}
	return p.Degs[1:]
}

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
// The dictionary is striped by key hash — internStripes maps, each
// behind its own lock — and takes IDs from one atomic counter, so
// workers profiling different trees rarely meet on a lock. Which shape
// gets which ID therefore depends on how the workers interleave (one
// goroutine always assigns them in first-seen order); what every order
// guarantees is that IDs are dense and that a shape's children carry
// smaller IDs than the shape itself, because a child's ID is taken
// before its parent's key can even be formed.
//
// The dictionary only grows — shapes are never evicted, so label IDs
// stay stable for the life of the corpus (epoch clones and rebuilt
// indexes keep their profiles valid). Only indexed items intern
// (Profile); query signatures compile read-only (ProfileQuery), so the
// dictionary's size is bounded by the distinct shapes of the corpus's
// own signatures, never by what is queried against it.
type Interner struct {
	id      uint64       // process-unique; profile caches key on it (no pointer pinning)
	next    atomic.Int32 // next label ID == number of interned shapes
	stripes [internStripes]internStripe

	// shapes is the dictionary in ID order: shapes[id] is the key the
	// stripes map to id, sharing its bytes. An entry is written once,
	// under its stripe's write lock and shapesMu (which orders the writes
	// of different stripes), and never changes, so Shapes hands out a
	// view without copying.
	shapesMu sync.Mutex
	shapes   []string
}

// internStripes is the Interner's fixed stripe count (a power of two).
const internStripes = 32

// internStripe is one lock-guarded shard of the dictionary, padded to
// its own cache line so workers on neighbouring stripes do not contend.
type internStripe struct {
	mu sync.RWMutex
	m  map[string]int32 // packed sorted child-label IDs -> label ID
	_  [64 - 32]byte
}

// internSeed picks the stripe of a key; stripes never affect IDs.
var internSeed = maphash.MakeSeed()

// internerIDs hands every dictionary a process-unique identity.
var internerIDs atomic.Uint64

// NewInterner returns an empty shape dictionary.
func NewInterner() *Interner {
	in := &Interner{id: internerIDs.Add(1)}
	for i := range in.stripes {
		in.stripes[i].m = make(map[string]int32)
	}
	return in
}

// Len reports how many distinct subtree shapes have been interned.
func (in *Interner) Len() int { return int(in.next.Load()) }

// shapeHash hashes a shape key: it picks the key's stripe.
func shapeHash(key []byte) uint64 { return maphash.Bytes(internSeed, key) }

// stripe returns the stripe that owns the key hashing to h.
func (in *Interner) stripe(h uint64) *internStripe {
	return &in.stripes[h&(internStripes-1)]
}

// resolve returns the label of one shape — identified by the packed,
// ascending child label IDs in key, hashing to h. A shape the
// dictionary has not seen is registered under the next ID, unless
// readOnly, in which case ok is false and nothing changes. The ID is
// taken under the stripe's write lock, so a reader that sees the
// counter move and then looks the key up finds it: Len is an exact
// change detector for ProfileQueryCached.
func (in *Interner) resolve(key []byte, h uint64, readOnly bool) (id int32, ok bool) {
	s := in.stripe(h)
	s.mu.RLock()
	id, ok = s.m[string(key)]
	s.mu.RUnlock()
	if ok || readOnly {
		return id, ok
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok = s.m[string(key)]; ok {
		return id, true
	}
	id = in.next.Add(1) - 1
	k := string(key)
	s.m[k] = id
	in.shapesMu.Lock()
	if int(id) >= len(in.shapes) {
		in.shapes = reserve(in.shapes, int(id)+1-len(in.shapes))[:id+1]
	}
	in.shapes[id] = k
	in.shapesMu.Unlock()
	return id, true
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

// profileScratch is profile's working memory, pooled (so, in effect,
// one per worker) and reused across trees: the shape key being packed,
// the per-level sort keys, the labels of the shapes "c leaves" it has
// resolved against the Interner dict (leafRun) — valid for as long as
// that dictionary lives, since it never evicts — and the current tree's
// query-local labels, keyed exactly: a local label has no dictionary
// to fall back on.
type profileScratch struct {
	key       []byte
	packed    []uint64
	dict      uint64
	leafRuns  []int32 // leafRuns[c] is 1 + the dictionary label of "c leaves", 0 unknown
	counts    []int32 // sortKids' count per label, zero between runs
	distinct  []int32
	locals    map[string]int32
	nextLocal int32
}

// profileLocalsKeep bounds the local labels a pooled scratch's map
// keeps room for from one tree to the next.
const profileLocalsKeep = 1 << 11

var profileScratches = sync.Pool{New: func() any { return newProfileScratch() }}

func newProfileScratch() *profileScratch {
	return &profileScratch{locals: make(map[string]int32)}
}

// profileScratchFor takes a scratch from the pool, primed for in.
func profileScratchFor(in *Interner) *profileScratch {
	return profileScratches.Get().(*profileScratch).prime(in)
}

// prime readies sc for a tree profiled against in: its leaf runs kept
// if they are in's.
func (sc *profileScratch) prime(in *Interner) *profileScratch {
	if sc.dict != in.id {
		sc.dict = in.id
		clear(sc.leafRuns)
	}
	sc.nextLocal = -1
	return sc
}

// release drops the tree's local labels and returns sc to the pool.
func (sc *profileScratch) release() {
	if len(sc.locals) > profileLocalsKeep {
		sc.locals = make(map[string]int32)
	} else {
		clear(sc.locals)
	}
	profileScratches.Put(sc)
}

// label resolves one shape key: from the tree's local labels, else
// from the dictionary, else (read-only) as the tree's next local label.
// A key containing a local (negative) child label can never be in the
// dictionary; the lookup just misses. Negative int32s pack to byte
// patterns no non-negative ID produces, so local keys cannot collide
// with dictionary keys either.
func (sc *profileScratch) label(in *Interner, key []byte, readOnly bool) int32 {
	if id, ok := sc.locals[string(key)]; ok {
		return id
	}
	id, ok := in.resolve(key, shapeHash(key), readOnly)
	if !ok {
		id, sc.nextLocal = sc.nextLocal, sc.nextLocal-1
		sc.locals[string(key)] = id
	}
	return id
}

// labelNodes is the bottom-up labelling every profile and every built
// row goes through: it writes the interned label of each node above the
// deepest level of a level-order tree — level starts levelOff, child
// offsets kidOff (one entry per node above the deepest level, plus one),
// node v's children childIDs[kidOff[v]:kidOff[v+1]] — to labels, in node
// order, and each of levels 0…h−2's nodes' sorted children's labels to
// kids (CSR-aligned with kidOff), and returns the leaf label. Every
// childless node has the leaf shape (the empty key), resolved once. The
// deepest level is all leaves, so a node on level h−1 with c children
// has the shape "c leaves", which the scratch remembers by c (leafRun);
// above that the pass visits every child before its parent (level order
// gives children larger IDs) and reads and sorts their labels.
func (sc *profileScratch) labelNodes(in *Interner, levelOff, kidOff, childIDs, labels, kids []int32, readOnly bool) int32 {
	h := len(levelOff) - 2
	inner := len(kidOff) - 1
	last := 0 // the first node of level h-1
	if h > 0 {
		last = int(levelOff[h-1])
	}
	leaf := sc.leafRun(in, 0, 0, readOnly)
	for v := inner - 1; v >= last; v-- {
		labels[v] = sc.leafRun(in, kidOff[v+1]-kidOff[v], leaf, readOnly)
	}
	for v := last - 1; v >= 0; v-- {
		lo, hi := kidOff[v], kidOff[v+1]
		if lo == hi {
			labels[v] = leaf
			continue
		}
		kidLabels := kids[lo:hi]
		for i, c := range childIDs[lo:hi] {
			kidLabels[i] = labels[c]
		}
		sc.sortKids(kidLabels)
		key := sc.key[:0]
		for _, id := range kidLabels {
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
		}
		sc.key = key
		labels[v] = sc.label(in, key, readOnly)
	}
	return leaf
}

// sortKids sorts one node's children's labels ascending. A long run
// holds few distinct labels as a rule — most nodes' children have the
// shapes "c leaves" — so it is counted into a table indexed by label,
// and only its distinct labels are sorted; a short run, or one with a
// label outside the table's bound (a query-local one included), is
// sorted by comparison.
func (sc *profileScratch) sortKids(run []int32) {
	if len(run) <= 16 {
		slices.Sort(run)
		return
	}
	distinct := sc.distinct[:0]
	for _, l := range run {
		if uint32(l) >= kidCountsMax {
			for _, d := range distinct {
				sc.counts[d] = 0
			}
			slices.Sort(run)
			return
		}
		if int(l) >= len(sc.counts) {
			sc.counts = append(sc.counts, make([]int32, max(int(l)+1, 2*len(sc.counts))-len(sc.counts))...)
		}
		if sc.counts[l] == 0 {
			distinct = append(distinct, l)
		}
		sc.counts[l]++
	}
	slices.Sort(distinct)
	at := 0
	for _, l := range distinct {
		for range sc.counts[l] {
			run[at] = l
			at++
		}
		sc.counts[l] = 0
	}
	sc.distinct = distinct
}

// kidCountsMax bounds the labels sortKids counts, and so its table.
const kidCountsMax = 1 << 16

// leafRun is the label of the shape "c leaves" (leaf: the leaf label;
// c = 0 is the leaf shape itself), which most nodes above the deepest
// level have: from the scratch's table indexed by c when it holds it,
// else resolved and, when it is a dictionary label, remembered there.
func (sc *profileScratch) leafRun(in *Interner, c, leaf int32, readOnly bool) int32 {
	if int(c) < len(sc.leafRuns) && sc.leafRuns[c] > 0 {
		return sc.leafRuns[c] - 1
	}
	key := sc.key[:0]
	for range c {
		key = binary.LittleEndian.AppendUint32(key, uint32(leaf))
	}
	sc.key = key
	id := sc.label(in, key, readOnly)
	if id >= 0 {
		if int(c) >= len(sc.leafRuns) {
			sc.leafRuns = append(sc.leafRuns, make([]int32, int(c)+1-len(sc.leafRuns))...)
		}
		sc.leafRuns[c] = id + 1
	}
	return id
}

func (in *Interner) profile(t *Tree, readOnly bool) *Profile {
	sc := profileScratchFor(in)
	defer sc.release()
	return in.profileWith(sc, t, readOnly)
}

func (in *Interner) profileWith(sc *profileScratch, t *Tree, readOnly bool) *Profile {
	h := t.Height()
	inner := int(t.levelOff[h]) // nodes above the deepest level
	nk := max(inner-1, 0)       // children of levels 0..h-2: levels 1..h-1
	// One block for the columns the profile owns: labels, Perm and Degs
	// (inner each), the children-label runs of levels 0..h-2 (nk,
	// CSR-aligned with the tree's own child storage, whose offsets the
	// profile shares) and the level sizes (h+1).
	buf := make([]int32, 3*inner+nk+h+1)
	labels := buf[:inner:inner]
	perm := buf[inner : 2*inner : 2*inner]
	degs := buf[2*inner : 3*inner : 3*inner]
	kidsArr := buf[3*inner : 3*inner+nk : 3*inner+nk]
	levels := levelSizes(t, buf[3*inner+nk:])
	kidOff := t.childOff[: inner+1 : inner+1]
	leaf := sc.labelNodes(in, t.levelOff, kidOff, t.childIDs, labels, kidsArr, readOnly)

	p := &Profile{
		Levels:    levels,
		Labels:    labels,
		Degs:      levelDegrees(levels, kidOff, degs),
		Perm:      perm,
		Kids:      kidsArr,
		KidOff:    kidOff, // aligned by construction; both sides immutable
		LeafLabel: leaf,
		Size:      int32(t.Size()),
	}
	if !readOnly {
		p.dict = in
	}
	if root := p.rootLabel(); root >= 0 {
		p.Canon = uint64(root)
	} else {
		// Whole-tree shape unknown to the corpus: no indexed tree is
		// isomorphic, so give the key a value outside the dictionary's
		// int32 range (equality with any interned key is impossible).
		p.Canon = (1 << 32) | uint64(uint32(-root))
	}
	// The bottom-up pass is done with per-node association; the filter
	// tiers want per-level sorted multisets, so sort each stored level's
	// run in place — keeping the association in Perm by sorting packed
	// (label, index) keys: labels ascending (the XOR flips the sign bit
	// so negative query-local labels order before dictionary IDs), equal
	// labels by ascending node index.
	off := int32(0)
	for _, w := range levels[:h] {
		run := labels[off : off+w]
		lperm := perm[off : off+w]
		if slices.IsSorted(run) {
			// Already in order: the sort below would be the identity.
			for i := range lperm {
				lperm[i] = int32(i)
			}
			off += w
			continue
		}
		keys := slices.Grow(sc.packed[:0], int(w))[:w]
		for i, l := range run {
			keys[i] = uint64(uint32(l)^(1<<31))<<32 | uint64(uint32(i))
		}
		slices.Sort(keys)
		for i, k := range keys {
			run[i] = int32(uint32(k>>32) ^ (1 << 31))
			lperm[i] = int32(uint32(k))
		}
		sc.packed = keys
		off += w
	}
	return p
}

// rootLabel is the root's label: the leaf label when the root is the
// deepest level itself (a single-node tree), else Labels[0].
func (p *Profile) rootLabel() int32 {
	if len(p.Labels) == 0 {
		return p.LeafLabel
	}
	return p.Labels[0]
}

// levelSizes fills dst (len height+1) with t's level-size vector
// (Profile.Levels) and returns it.
func levelSizes(t *Tree, dst []int32) []int32 {
	for d := range dst {
		dst[d] = int32(t.LevelSize(d))
	}
	return dst
}

// levelDegrees fills dst (Profile.Degs: one entry per node above the
// deepest level, so len(dst) is the node count minus the last level's
// width) and returns it: node v's child count is kidOff[v+1]-kidOff[v],
// nodes are numbered in level order, and each level's run is sorted
// ascending.
func levelDegrees(levels, kidOff, dst []int32) []int32 {
	for v := range dst {
		dst[v] = kidOff[v+1] - kidOff[v]
	}
	off := int32(0)
	for _, w := range levels[:len(levels)-1] {
		if run := dst[off : off+w]; !slices.IsSorted(run) {
			slices.Sort(run)
		}
		off += w
	}
	return dst
}
