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

// Tree is an unordered rooted tree in level order. Node 0 is the root;
// Parent[0] == -1. Depth[v] is the number of edges from the root, and
// nodes are sorted by depth: Depth is non-decreasing in node ID.
// The zero value is not a valid tree; use New or the builders below.
type Tree struct {
	parent []int32
	depth  []int32

	// levelOff[d] is the index of the first node at depth d;
	// levelOff[height+1] == len(parent).
	levelOff []int32

	// children in CSR form, derived from parent.
	childOff []int32
	childIDs []int32

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
// returns an error when the vector violates those invariants.
func New(parent []int32) (*Tree, error) {
	if len(parent) == 0 {
		return nil, fmt.Errorf("tree: empty parent vector")
	}
	return NewOwned(append([]int32(nil), parent...), nil)
}

// NewOwned is New without the defensive copy: the tree takes ownership
// of parent (which must not be mutated afterwards) and carves its
// derived arrays from s when s is non-nil. This is the bulk-decode
// path — internal/segment owns every parent vector it just decoded and
// builds thousands of trees per load; everyone else wants New.
func NewOwned(parent []int32, s *Slab) (*Tree, error) {
	if len(parent) == 0 {
		return nil, fmt.Errorf("tree: empty parent vector")
	}
	if parent[0] != -1 {
		return nil, fmt.Errorf("tree: root parent must be -1, got %d", parent[0])
	}
	n := len(parent)
	t := &Tree{parent: parent}
	// One combined zeroed allocation for depth, childOff, and childIDs
	// (full-capacity subslices, so an append on one can never bleed into
	// the next); levelOff is carved separately once the height is known.
	buf := s.Alloc(n + (n + 1) + (n - 1))
	t.depth = buf[0:n:n]
	t.childOff = buf[n : 2*n+1 : 2*n+1]
	t.childIDs = buf[2*n+1:]
	depth, childOff := t.depth, t.childOff
	// Single validation pass also counts children and detects BFS order
	// (parent non-decreasing), the layout every extractor and the
	// segment writer emit, which admits a cursor-free CSR fill below.
	bfsOrder := true
	for v := 1; v < n; v++ {
		p := parent[v]
		if p < 0 || int(p) >= v {
			return nil, fmt.Errorf("tree: node %d has invalid parent %d (must precede it)", v, p)
		}
		depth[v] = depth[p] + 1
		if depth[v] < depth[v-1] {
			return nil, fmt.Errorf("tree: nodes not in level order at %d", v)
		}
		childOff[p+1]++
		bfsOrder = bfsOrder && p >= parent[v-1]
	}

	// Level offsets from the depth boundaries: depth is non-decreasing
	// and (validated above) steps by exactly one, so each depth d ≥ 1
	// starts at the single index where depth first reaches d.
	height := int(depth[n-1])
	t.levelOff = s.Alloc(height + 2)
	t.levelOff[height+1] = int32(n)
	for v := 1; v < n; v++ {
		if depth[v] != depth[v-1] {
			t.levelOff[depth[v]] = int32(v)
		}
	}

	for v := 1; v <= n; v++ {
		childOff[v] += childOff[v-1]
	}
	if bfsOrder {
		// Children sorted by (parent, id) are exactly 1..n-1 in order.
		for i := range t.childIDs {
			t.childIDs[i] = int32(i + 1)
		}
		return t, nil
	}
	// General level order: fill childIDs using childOff[p] itself as the
	// write cursor; the advancement leaves childOff[v] holding the
	// original childOff[v+1], which one backward shift undoes — no
	// scratch cursor array.
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

// MustNew is New but panics on malformed input; for literals in tests.
func MustNew(parent []int32) *Tree {
	t, err := New(parent)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.parent) }

// Height returns the depth of the deepest node (a single root has height 0).
func (t *Tree) Height() int { return int(t.depth[len(t.depth)-1]) }

// Parent returns the parent of v, or -1 for the root.
func (t *Tree) Parent(v int32) int32 { return t.parent[v] }

// Depth returns the depth of v.
func (t *Tree) Depth(v int32) int32 { return t.depth[v] }

// Children returns the children of v. The slice aliases internal storage.
func (t *Tree) Children(v int32) []int32 {
	return t.childIDs[t.childOff[v]:t.childOff[v+1]]
}

// NumChildren returns the number of children of v.
func (t *Tree) NumChildren(v int32) int {
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
// neighbors, so that k means "hops of neighbors considered" (§10).
func (t *Tree) Truncate(maxDepth int) *Tree {
	if maxDepth >= t.Height() {
		return t
	}
	hi := t.levelOff[maxDepth+1]
	return MustNew(t.parent[:hi])
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int {
	n := 0
	for v := 0; v < t.Size(); v++ {
		if t.NumChildren(int32(v)) == 0 {
			n++
		}
	}
	return n
}

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree { return MustNew(t.parent) }

// ParentVector returns a copy of the level-order parent vector.
func (t *Tree) ParentVector() []int32 { return append([]int32(nil), t.parent...) }

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
