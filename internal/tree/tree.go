// Package tree implements the unordered rooted trees that act as node
// signatures in NED: the unlabeled unordered k-adjacent tree of §3.1
// (Definitions 1 and 2 of the paper), together with AHU canonical
// encoding, isomorphism testing, and deterministic random generators used
// by tests and benchmarks.
//
// Trees are stored in level order: node 0 is the root and nodes of each
// depth occupy a contiguous ID range, which is exactly the layout the
// TED* algorithm consumes level by level.
package tree

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tree is an unordered rooted tree in level order. Node 0 is the root,
// and nodes are sorted by depth (the number of edges from the root):
// each depth occupies one contiguous ID range, recorded in levelOff.
// Depth itself is not stored; LevelRange and Height give everything
// level-wise consumers read.
//
// A BFS-order tree — parents non-decreasing in node order, the layout
// of every extracted, decoded and wire tree — stores no parent vector:
// its children are the IDs 1..n-1 in order, so childOff alone gives
// Parent, Children and the parent vector. Its childOff covers only the
// nodes above the deepest level (levelOff[h]+1 entries): every node at
// or past levelOff[h] is a leaf, and its width is all the deepest level
// holds. A tree not in BFS order (only a hand-written text snapshot
// holds one) keeps its parent vector and full CSR child lists.
// The zero value is not a valid tree; use New or the builders below.
type Tree struct {
	// parent is the parent vector (parent[0] == -1) of a tree not in BFS
	// order; nil for a BFS-order tree.
	parent []int32

	// levelOff[d] is the index of the first node at depth d;
	// levelOff[height+1] is the node count.
	levelOff []int32

	// children in CSR form: node v's children are
	// childIDs[childOff[v]:childOff[v+1]] for v < len(childOff)-1, and
	// none past that. A BFS-order tree's childOff stops at the deepest
	// level, and its childIDs == 1..n-1 aliases the process-wide
	// read-only run idRun instead of being stored per tree.
	childOff []int32
	childIDs []int32
	bfs      bool // parent non-decreasing: no parent vector, childIDs is the shared run

	// canon caches the AHU canonical encoding. Signatures are queried
	// repeatedly (every canonical orientation of a TED* pair may consult
	// it), so it is derived once, lazily, and shared by concurrent
	// queries.
	canonOnce sync.Once
	canon     string
	canonSet  atomic.Bool

	// profCache is the single-slot cascade-profile cache behind
	// Interner.ProfileCached/ProfileQueryCached: query signatures are
	// typically evaluated against one corpus many times, and
	// recompiling the profile per query would dominate small queries.
	// Keyed by the owning Interner's process-unique ID — not a pointer,
	// so a retained signature tree never pins a dropped corpus
	// dictionary — and a tree queried against several corpora stays
	// correct (the slot just thrashes).
	profCache atomic.Pointer[cachedProfile]
}

// cachedProfile pairs a compiled profile with the identity of the
// dictionary it was compiled against and the dictionary's size at
// compile time. A fully-resolved profile (every label a dictionary ID)
// stays valid forever; one carrying query-local labels goes stale the
// moment the dictionary interns ANY new shape — it might be one of the
// profile's local ones — so a hit on an unresolved profile must
// revalidate against the current dictionary size (the dictionary only
// grows, making the size an exact change detector).
type cachedProfile struct {
	dict    uint64
	dictLen int
	p       *Profile
}

// HasCanon reports whether the AHU canonical encoding has been derived
// (and cached) for this tree yet. The dynamic-corpus tests use it to
// assert that graph updates invalidate only the trees of the affected
// ≤k-hop neighborhoods: untouched signatures must keep their cache.
func (t *Tree) HasCanon() bool { return t.canonSet.Load() }

// Slab bulk-allocates int32 backing storage for batches of trees: a
// segment load reconstructing thousands of small trees pays one large
// allocation per chunk instead of several small ones per tree. Alloc
// never reuses memory — every returned slice is freshly zeroed make()
// storage carved from the current chunk — so slab-built trees are
// indistinguishable from heap-built ones; the slab is an allocation
// batcher, not a pool. The zero value is ready. Not safe for
// concurrent use: give each decoding worker its own.
type Slab struct{ free []int32 }

// slabChunk is the slab allocation quantum: 64K int32s (256 KiB).
const slabChunk = 64 << 10

// Alloc returns a zeroed int32 slice of length and capacity n. A nil
// receiver degrades to plain make, so callers thread an optional slab
// without branching.
func (s *Slab) Alloc(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	if n > len(s.free) {
		if n >= slabChunk {
			return make([]int32, n)
		}
		s.free = make([]int32, slabChunk)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// New constructs a Tree from a parent vector. parent[0] must be -1 and
// every other entry must point to an earlier node (level order). New
// returns an error when the vector violates those invariants. The tree
// keeps no reference to parent.
func New(parent []int32) (*Tree, error) { return build(parent, nil, false) }

// NewOwned is New for a caller that hands parent over and carves the
// derived arrays from s (plain allocations when s is nil): levelOff
// (height+2) and childOff — levelOff[h]+1 entries for a BFS-order tree,
// which keeps nothing else, or n+1 plus childIDs (n-1) for one that is
// not, which keeps parent itself (so parent must not be mutated
// afterwards). This is the bulk-decode path: internal/segment owns every
// parent vector it just decoded and builds thousands of trees per load.
func NewOwned(parent []int32, s *Slab) (*Tree, error) { return build(parent, s, true) }

// build validates parent and derives the tree's columns from it. A
// BFS-order tree keeps none of parent; any other keeps parent itself
// when owned, else a copy.
func build(parent []int32, s *Slab, owned bool) (*Tree, error) {
	if len(parent) == 0 {
		return nil, fmt.Errorf("tree: empty parent vector")
	}
	if parent[0] != -1 {
		return nil, fmt.Errorf("tree: root parent must be -1, got %d", parent[0])
	}
	n := len(parent)
	// One validation pass detects BFS order (parent non-decreasing) and
	// finds the level starts without a depth array: while v sits on the
	// level starting at cur (the previous one starts at prev), its parent
	// must lie in [prev, cur); a parent in [cur, v) opens the next level
	// at v, and one below prev means v is shallower than v-1 — not level
	// order.
	var startsBuf [16]int32
	starts := append(startsBuf[:0], 0)
	prev, cur := int32(0), int32(0)
	bfsOrder := true
	for v := 1; v < n; v++ {
		p := parent[v]
		if p < 0 || int(p) >= v {
			return nil, fmt.Errorf("tree: node %d has invalid parent %d (must precede it)", v, p)
		}
		switch {
		case p >= cur:
			prev, cur = cur, int32(v)
			starts = append(starts, cur)
		case p < prev:
			return nil, fmt.Errorf("tree: nodes not in level order at %d", v)
		}
		bfsOrder = bfsOrder && p >= parent[v-1]
	}
	// Every parent lies above the deepest level, so a BFS-order tree's
	// child counts need offsets for those nodes only.
	offs := n
	if bfsOrder {
		offs = int(cur)
	}
	cols := s.Alloc(len(starts) + 1 + offs + 1)
	levelOff := cols[: len(starts)+1 : len(starts)+1]
	childOff := cols[len(starts)+1:]
	copy(levelOff, starts)
	levelOff[len(starts)] = int32(n)
	for _, p := range parent[1:] {
		childOff[p+1]++
	}
	for v := 1; v <= offs; v++ {
		childOff[v] += childOff[v-1]
	}
	t := &Tree{levelOff: levelOff, childOff: childOff}
	if bfsOrder {
		// Children sorted by (parent, id) are exactly 1..n-1 in order.
		t.childIDs, t.bfs = bfsIDs(n), true
		return t, nil
	}
	if !owned {
		parent = append([]int32(nil), parent...)
	}
	t.parent = parent
	// General level order: fill childIDs using childOff[p] itself as the
	// write cursor; the advancement leaves childOff[v] holding the
	// original childOff[v+1], which one backward shift undoes — no
	// scratch cursor array.
	t.childIDs = s.Alloc(n - 1)
	for v := 1; v < n; v++ {
		p := parent[v]
		t.childIDs[childOff[p]] = int32(v)
		childOff[p]++
	}
	for v := n; v >= 1; v-- {
		childOff[v] = childOff[v-1]
	}
	childOff[0] = 0
	return t, nil
}

// NewBFS builds a BFS-order tree from columns its caller derived and
// vouches for, so nothing is validated: childOff (the prefix sums of the
// child counts of the nodes above the deepest level: levelOff[h]+1
// entries) and levelOff (height+2 entries: each depth's first node, then
// n). The tree takes ownership of both. A segment decoder, which builds
// them from stored labels and their shapes, is the caller.
func NewBFS(childOff, levelOff []int32) *Tree {
	return &Tree{levelOff: levelOff, childOff: childOff, childIDs: bfsIDs(int(levelOff[len(levelOff)-1])), bfs: true}
}

// idRun is the process-wide run 0, 1, 2, ... that BFS-order trees alias
// as their child IDs. It only grows: a grown run is a fresh array
// published atomically, so a slice handed out earlier stays valid and
// no element is ever written after publication. Growth is serialized by
// idRunMu.
var (
	idRun   atomic.Pointer[[]int32]
	idRunMu sync.Mutex
)

// bfsIDs returns 1..n-1 as a read-only, capacity-clipped view of idRun.
func bfsIDs(n int) []int32 {
	if run := idRun.Load(); run != nil && len(*run) >= n {
		return (*run)[1:n:n]
	}
	idRunMu.Lock()
	defer idRunMu.Unlock()
	run := idRun.Load()
	if run == nil || len(*run) < n {
		m := max(n, 1024)
		if run != nil {
			m = max(m, 2*len(*run))
		}
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = int32(i)
		}
		run = &ids
		idRun.Store(run)
	}
	return (*run)[1:n:n]
}

// MustNew is New but panics on malformed input; for literals in tests.
func MustNew(parent []int32) *Tree {
	t, err := New(parent)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return int(t.levelOff[len(t.levelOff)-1]) }

// Height returns the depth of the deepest node (a single root has height 0).
func (t *Tree) Height() int { return len(t.levelOff) - 2 }

// BFSOrder reports whether t's parents are non-decreasing in node order
// — true of every extracted tree — so that each node's children follow
// those of the node before it.
func (t *Tree) BFSOrder() bool { return t.bfs }

// Parent returns the parent of v, or -1 for the root. A BFS-order tree
// finds it by binary search over its child offsets: v's parent p is the
// node whose children span v, childOff[p] <= v-1 < childOff[p+1].
func (t *Tree) Parent(v int32) int32 {
	if !t.bfs {
		return t.parent[v]
	}
	if v == 0 {
		return -1
	}
	off := t.childOff
	return int32(sort.Search(len(off), func(i int) bool { return off[i] > v-1 })) - 1
}

// Children returns the children of v. The slice aliases internal
// storage — shared by every BFS-order tree — and must not be written;
// its capacity is clipped, so an append copies instead.
func (t *Tree) Children(v int32) []int32 {
	if int(v) >= len(t.childOff)-1 {
		return nil // a node of a BFS-order tree's deepest level
	}
	lo, hi := t.childOff[v], t.childOff[v+1]
	return t.childIDs[lo:hi:hi]
}

// NumChildren returns the number of children of v.
func (t *Tree) NumChildren(v int32) int {
	if int(v) >= len(t.childOff)-1 {
		return 0
	}
	return int(t.childOff[v+1] - t.childOff[v])
}

// Level returns the node IDs at depth d (contiguous by construction).
// An out-of-range depth yields an empty slice.
func (t *Tree) Level(d int) []int32 {
	if d < 0 || d >= len(t.levelOff)-1 {
		return nil
	}
	lo, hi := t.levelOff[d], t.levelOff[d+1]
	ids := make([]int32, hi-lo)
	for i := range ids {
		ids[i] = lo + int32(i)
	}
	return ids
}

// LevelSize returns the number of nodes at depth d.
func (t *Tree) LevelSize(d int) int {
	if d < 0 || d >= len(t.levelOff)-1 {
		return 0
	}
	return int(t.levelOff[d+1] - t.levelOff[d])
}

// LevelRange returns the half-open node-ID interval [lo, hi) at depth d.
func (t *Tree) LevelRange(d int) (lo, hi int32) {
	if d < 0 || d >= len(t.levelOff)-1 {
		return 0, 0
	}
	return t.levelOff[d], t.levelOff[d+1]
}

// Truncate returns the subtree of nodes with depth <= maxDepth. With the
// convention used throughout this repo, the k-adjacent tree T(v, k) is
// the BFS tree truncated at maxDepth = k: the root plus k levels of
// neighbors, so that k means "hops of neighbors considered" (§10). A
// negative maxDepth keeps the root alone, as maxDepth = 0 does.
func (t *Tree) Truncate(maxDepth int) *Tree {
	if maxDepth >= t.Height() {
		return t
	}
	maxDepth = max(maxDepth, 0)
	if !t.bfs {
		return MustNew(t.parent[:t.levelOff[maxDepth+1]])
	}
	// The kept levels' children are exactly the nodes up to the new
	// deepest level, so both columns are prefixes.
	levelOff := append([]int32(nil), t.levelOff[:maxDepth+2]...)
	return NewBFS(append([]int32(nil), t.childOff[:t.levelOff[maxDepth]+1]...), levelOff)
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	n := t.Size()
	for v := range len(t.childOff) - 1 {
		if t.childOff[v+1] > t.childOff[v] {
			n--
		}
	}
	return n
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	if !t.bfs {
		return MustNew(t.parent)
	}
	return NewBFS(append([]int32(nil), t.childOff...), append([]int32(nil), t.levelOff...))
}

// ParentVector returns a copy of the level-order parent vector.
func (t *Tree) ParentVector() []int32 {
	if !t.bfs {
		return append([]int32(nil), t.parent...)
	}
	parent := make([]int32, 1, t.Size())
	parent[0] = -1
	for p := range int32(len(t.childOff) - 1) {
		for range t.childOff[p+1] - t.childOff[p] {
			parent = append(parent, p)
		}
	}
	return parent
}

// String renders a compact single-line description.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{%d nodes, height %d}", t.Size(), t.Height())
}

// Pretty renders an indented multi-line view, children sorted by subtree
// canonical form so isomorphic trees print identically.
func (t *Tree) Pretty() string {
	var sb strings.Builder
	var rec func(v int32, indent int)
	rec = func(v int32, indent int) {
		sb.WriteString(strings.Repeat("  ", indent))
		fmt.Fprintf(&sb, "%d\n", v)
		kids := append([]int32(nil), t.Children(v)...)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		for _, c := range kids {
			rec(c, indent+1)
		}
	}
	rec(0, 0)
	return sb.String()
}
