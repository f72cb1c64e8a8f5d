package ned

import (
	"cmp"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
)

// This file holds the candidate block the cascade sweep reads at any
// width: the scan's rows in columns, one arena (internal/tree) for the
// out-trees and one for the in-trees when the corpus is directed. The
// arenas are the only resident copy of an indexed row: its level
// widths, degree runs and stored labels. A block is immutable once
// published, so epoch clones share it; a write's successor delta
// extends its predecessor's arenas in place (tree.ProfileArena.Append).
//
// A block's rows are physical rows of its arenas. Its ranks order the
// live ones by size key — the out-tree's node count, plus the in-tree's
// when directed — then by node (ord). Since |Δout| + |Δin| ≥
// |Δ(out+in)|, the size key lower-bounds the size tier, so the ranks
// whose size bound can be within w of a query are one contiguous range,
// found by binary search (window): a query bounds the rows of its
// window only and dismisses the others, in bulk, by size. Tier 2 reads
// a row's level widths and degree runs from the arenas too
// (degreeTierPrunes), so a candidate's tree and profile are built, from
// its stored labels and the dictionary, only when it reaches the verify
// stage (candidate). A build, a load and a relocation lay the base's
// rows out in rank order, so the kernels read a window in sequence.

// nodeBytes is the size of one node ID.
const nodeBytes = int64(unsafe.Sizeof(graph.NodeID(0)))

// Rows is a batch of indexed rows in columns: row i is node Nodes[i],
// its out-tree row i of Out and, when directed, its in-tree row i of In,
// all at depth K. A batch is node-ascending, except a loaded one, which
// is in a scan's rank order (segment.ReadRows).
type Rows struct {
	K       int
	Nodes   []graph.NodeID
	Out, In *tree.ProfileArena
}

// Len is the row count; a nil batch has none.
func (r *Rows) Len() int {
	if r == nil {
		return 0
	}
	return len(r.Nodes)
}

// RowsOf compiles profiled items — all directed or all undirected;
// anything else is a programming error and panics — into rows, in node
// order (stably: a scan's items are distinct nodes). The rows keep no
// reference to the items' trees or profiles.
func RowsOf(items []Item) *Rows {
	items = nodeSorted(items)
	directed := len(items) > 0 && items[0].In != nil
	rows := &Rows{Nodes: make([]graph.NodeID, len(items))}
	out := make([]tree.ArenaRun, len(items))
	var in []tree.ArenaRun
	if directed {
		in = make([]tree.ArenaRun, len(items))
	}
	for i := range items {
		it := &items[i]
		mustProfiled(it)
		if (it.In != nil) != directed {
			panic("ned: a profile block mixes directed and undirected items")
		}
		rows.K, rows.Nodes[i] = it.K, it.Node
		out[i] = tree.ArenaRun{P: it.OutP, T: it.Out}
		if directed {
			in[i] = tree.ArenaRun{P: it.InP, T: it.In}
		}
	}
	return rows.compile(out, in, 0)
}

// compile sets r's arenas to the out- and in-tree runs compiled with
// room for room more rows (in nil: undirected rows) and returns r.
func (r *Rows) compile(out, in []tree.ArenaRun, room int) *Rows {
	r.Out = tree.CompileRuns(out, room)
	if in != nil {
		r.In = tree.CompileRuns(in, room)
	}
	return r
}

// Only is the batch of r's rows whose nodes are in nodes, which ascend:
// r itself when that is all of them.
func (r *Rows) Only(nodes []graph.NodeID) *Rows {
	if len(nodes) == r.Len() {
		return r
	}
	sub := &Rows{K: r.K, Nodes: nodes}
	var out, in []tree.ArenaRun
	if r.In != nil {
		in = []tree.ArenaRun{}
	}
	i := 0
	for _, v := range nodes {
		for r.Nodes[i] != v {
			i++
		}
		out = extendRun(out, r.Out, int32(i))
		if r.In != nil {
			in = extendRun(in, r.In, int32(i))
		}
	}
	return sub.compile(out, in, 0)
}

// Item builds row i into an item of its own: its node, trees and
// profiles.
func (r *Rows) Item(i int) Item {
	it := Item{Node: r.Nodes[i], K: r.K}
	it.Out, it.OutP = r.Out.Build(i)
	if r.In != nil {
		it.In, it.InP = r.In.Build(i)
	}
	return it
}

// Row describes row i as a scan stores it.
func (r *Rows) Row(i int) Row {
	x := Row{Node: r.Nodes[i], Out: r.Out.Stored(i), Size: int(r.Out.Sizes[i]), Height: len(r.Out.RowLevels(i)) - 1}
	if r.In != nil {
		x.In, x.Size = r.In.Stored(i), x.Size+int(r.In.Sizes[i])
	}
	return x
}

// profileBlock is a sweep part's rows: every part of a sweep has one.
// Its Rows are its physical rows, in no particular order; the ranks
// order the live ones.
type profileBlock struct {
	Rows
	// ord[r] is the physical row of rank r: the live rows, ascending by
	// (size key, node). byNode lists them by ascending node; nil when
	// every physical row is live and they ascend by node.
	ord, byNode []int32
	n           int // the live rows
}

// newBlock ranks the live rows of rows, listed by node in byNode (nil:
// every row, ascending by node), by size key.
func newBlock(rows Rows, byNode []int32) *profileBlock {
	b := &profileBlock{Rows: rows, byNode: byNode}
	n := rows.Len()
	if byNode != nil {
		n = len(byNode)
	}
	at, keys := make([]int32, n), make([]int32, n)
	for i := range at {
		p := int32(i)
		if byNode != nil {
			p = byNode[i]
		}
		at[i], keys[i] = int32(i), b.physKey(p)
	}
	b.ord, _ = orderBy(at, keys, nil, nil)
	if byNode != nil {
		for r, i := range b.ord {
			b.ord[r] = byNode[i]
		}
	}
	b.n = n
	return b
}

// blockOf is the block over rows, every one live, in rank order so that
// the kernels read a window's rows in sequence: rows already in rank
// order are adopted, node-ascending ones copied with the room a load
// gives its rows (RowRoom), so that a built base's first writes append
// in place too.
func blockOf(rows *Rows) *profileBlock {
	b := newBlock(*rows, nil)
	if inOrder(b.ord) {
		b.byNode = nodeOrder(rows.Nodes)
		return b
	}
	room := RowRoom(b.n)
	ranked := Rows{K: rows.K, Nodes: make([]graph.NodeID, b.n, b.n+room)}
	var out, in []tree.ArenaRun
	if rows.In != nil {
		in = []tree.ArenaRun{}
	}
	at := make([]int32, b.n)
	for r, p := range b.ord {
		ranked.Nodes[r], at[p] = rows.Nodes[p], int32(r)
		out = extendRun(out, rows.Out, p)
		if rows.In != nil {
			in = extendRun(in, rows.In, p)
		}
		b.ord[r] = int32(r)
	}
	b.Rows, b.byNode = *ranked.compile(out, in, room), at
	return b
}

// RankOrder lists rows of distinct nodes in a scan's rank order: by size
// key (keys, as physKey gives it), then by node.
func RankOrder(nodes []graph.NodeID, keys []int32) []int32 {
	ord, _ := orderBy(nodeOrder(nodes), keys, nil, nil)
	return ord
}

// nodeOrder lists rows of distinct nodes, which are not negative, by
// ascending node: through a table indexed by node, or, when the nodes are
// too sparse for one, by a sort.
func nodeOrder(nodes []graph.NodeID) []int32 {
	out := make([]int32, len(nodes))
	top := graph.NodeID(-1)
	for _, v := range nodes {
		top = max(top, v)
	}
	if int64(top) > 4*int64(len(nodes))+4096 {
		for i := range out {
			out[i] = int32(i)
		}
		slices.SortFunc(out, func(p, q int32) int { return cmp.Compare(nodes[p], nodes[q]) })
		return out
	}
	at := make([]int32, top+1) // row + 1 of each node, 0 for none
	for i, v := range nodes {
		at[v] = int32(i) + 1
	}
	k := 0
	for _, i := range at {
		if i > 0 {
			out[k], k = i-1, k+1
		}
	}
	return out
}

// inOrder reports whether ord is 0, 1, 2, ….
func inOrder(ord []int32) bool {
	for r, p := range ord {
		if p != int32(r) {
			return false
		}
	}
	return true
}

// bytes is the size of the block's own columns: its arenas, nodes and
// ranks.
func (b *profileBlock) bytes() int64 {
	n := b.Out.Bytes() + int64(len(b.Nodes))*nodeBytes + 4*int64(len(b.ord)+len(b.byNode))
	if b.In != nil {
		n += b.In.Bytes()
	}
	return n
}

// physKey is physical row p's size key.
func (b *profileBlock) physKey(p int32) int32 {
	k := b.Out.Sizes[p]
	if b.In != nil {
		k += b.In.Sizes[p]
	}
	return k
}

// key is rank r's size key.
func (b *profileBlock) key(r int) int32 { return b.physKey(b.ord[r]) }

// rowsBelow is the number of ranks whose size key is below k.
func (b *profileBlock) rowsBelow(k int64) int32 {
	lo, hi := 0, b.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int64(b.key(m)) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// window returns the ranks [lo, hi) whose size key is within w of the
// profiled query's: every rank outside it has a size bound above w. A
// query whose size key would not bound the size tier here — one without
// an in-tree against a directed block — gets every rank.
func (b *profileBlock) window(q Item, w int) (lo, hi int32) {
	if b.In != nil && q.In == nil {
		return 0, int32(b.n)
	}
	qk := int64(q.OutP.Size)
	if b.In != nil {
		qk += int64(q.InP.Size)
	}
	w64 := int64(min(w, math.MaxInt32))
	return b.rowsBelow(qk - w64), b.rowsBelow(qk + w64 + 1)
}

// rankOf is the rank of live physical row p.
func (b *profileBlock) rankOf(p int32) int32 {
	k, v := b.physKey(p), b.Nodes[p]
	r := sort.Search(b.n, func(r int) bool {
		kr := b.key(r)
		return kr > k || (kr == k && b.Nodes[b.ord[r]] >= v)
	})
	if r == b.n || b.ord[r] != p {
		panic("ned: a live row has no rank in its block")
	}
	return int32(r)
}

// live returns the physical rows by ascending node.
func (b *profileBlock) live() iter.Seq[int32] {
	return func(yield func(int32) bool) {
		if b.byNode != nil {
			for _, p := range b.byNode {
				if !yield(p) {
					return
				}
			}
			return
		}
		for p := range int32(b.n) {
			if !yield(p) {
				return
			}
		}
	}
}

// find is the physical row of node v, if it is live.
func (b *profileBlock) find(v graph.NodeID) (int32, bool) {
	if b.byNode == nil {
		p, ok := slices.BinarySearch(b.Nodes[:b.n], v)
		return int32(p), ok
	}
	i, ok := slices.BinarySearchFunc(b.byNode, v, func(p int32, v graph.NodeID) int { return cmp.Compare(b.Nodes[p], v) })
	if !ok {
		return 0, false
	}
	return b.byNode[i], true
}

// rowScratch is one sweeper's memory for the candidates it verifies.
type rowScratch struct{ out, in tree.RowScratch }

var rowScratches = sync.Pool{New: func() any { return new(rowScratch) }}

// candidate builds rank r into sc: the candidate's node, trees and
// profiles, valid until sc builds the next one.
func (b *profileBlock) candidate(sc *rowScratch, r int32) Item {
	p := b.ord[r]
	it := Item{Node: b.Nodes[p], K: b.K}
	it.Out, it.OutP = sc.out.Row(b.Out, int(p))
	if b.In != nil {
		it.In, it.InP = sc.in.Row(b.In, int(p))
	}
	return it
}

// bounds sweeps the size and padding tiers over ranks [lo, hi) against
// the profiled query, writing rank lo+i's bounds to sizeB[i] and padB[i]
// (len >= hi-lo each). A directed pair's bounds sum over its out- and
// in-trees.
func (b *profileBlock) bounds(q Item, lo, hi int32, sizeB, padB []int32) {
	mustProfiled(&q)
	n := int(hi - lo)
	sizeB, padB = sizeB[:n], padB[:n]
	clear(sizeB)
	clear(padB)
	rows := b.ord[lo:hi]
	boundArena(q.OutP, b.Out, rows, sizeB, padB)
	if b.In != nil && q.In != nil {
		boundArena(q.InP, b.In, rows, sizeB, padB)
	}
}

// boundArena accumulates one tree pair's size and padding tiers over
// the physical rows of a.
func boundArena(p *tree.Profile, a *tree.ProfileArena, rows, sizeB, padB []int32) {
	sizeTierBlock(p.Size, a.Sizes, rows, sizeB)
	paddingTierBlock(p.Levels, a.Width, a.Levels, rows, padB)
}

// degreeTierPrunes is tier 2 on rank r, the column form of the
// item-level degreeTierPrunes: pad plus ted.DegreeExcessRow of the
// out-pair and then of the in-pair, each under whatever the sum so far
// left of t, with the row's level widths and degree runs read from the
// arenas.
func (b *profileBlock) degreeTierPrunes(q Item, r int32, pad, t int) (bound int, pruned bool) {
	p := int(b.ord[r])
	bound = pad
	if bound <= t {
		bound += ted.DegreeExcessRow(q.OutP.Levels, q.OutP.InnerDegs(), b.Out, p, t-bound)
	}
	if bound <= t && b.In != nil && q.In != nil {
		bound += ted.DegreeExcessRow(q.InP.Levels, q.InP.InnerDegs(), b.In, p, t-bound)
	}
	return bound, bound > t
}

// deadWithin is the part of dead, ascending rows, that lies in [lo, hi).
func deadWithin(dead []int32, lo, hi int32) []int32 {
	a, _ := slices.BinarySearch(dead, lo)
	b, _ := slices.BinarySearch(dead, hi)
	return dead[a:b]
}

// rangeBlockSurvivors runs the whole filter cascade over the part's
// block at the static threshold r >= 0 and returns the rows that reach
// the verify stage, ascending. Only the window of rows within r of the
// query's size key is bounded: the rows outside it are dismissed by
// size in bulk. Within it, the size and padding tiers fold into a
// survivor bitmap in one kernel sweep, the part's dead rows are masked
// out of it, then tier 2 walks only the set bits. A radius past the
// int32 kernel arithmetic is clamped to its largest value, which every
// bound is far below, so the survivors are the same. All counter
// accounting for the filtered live rows happens here, and none for dead
// ones; the caller verifies the survivors (which records the verify
// outcomes). The returned slice is the scratch's own.
func (sc *sweepScratch) rangeBlockSurvivors(q Item, pt sweepPart, r int) []int32 {
	blk, cs := pt.blk, pt.cs
	lo, hi := blk.window(q, r)
	n := int(hi - lo)
	sc.sizeB, sc.padB = grow(sc.sizeB, n), grow(sc.padB, n)
	sizeB, padB := sc.sizeB, sc.padB
	blk.bounds(q, lo, hi, sizeB, padB)
	live := blk.n - len(pt.dead)
	cs.blockSweep(live)
	cs.rowsBound(n)
	sc.words = grow(sc.words, (n+63)/64)
	words := sc.words
	t := int32(min(r, math.MaxInt32))
	szPruned, padPruned := tierFilterBlock(sizeB[:n], padB[:n], t, words)
	// A dead row is not a candidate: clear its survivor bit, or take back
	// the tier the bitmap pass charged it to.
	inside := deadWithin(pt.dead, lo, hi)
	for _, d := range inside {
		s := d - lo
		bit := uint64(1) << (uint(s) & 63)
		switch {
		case words[s>>6]&bit != 0:
			words[s>>6] &^= bit
		case sizeB[s] > t:
			szPruned--
		default:
			padPruned--
		}
	}
	szPruned += blk.n - n - (len(pt.dead) - len(inside)) // the live rows outside the window
	cs.cascadePruneBulk(int64(szPruned), int64(padPruned))
	survivors := sc.survivors[:0]
	for w, word := range words {
		base := int32(w) << 6
		for word != 0 {
			j := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if _, pruned := blk.degreeTierPrunes(q, lo+j, int(padB[j]), r); pruned {
				cs.cascadePrune(tierDegree)
				continue
			}
			survivors = append(survivors, lo+j)
		}
	}
	cs.blockSurviveBulk(int64(live-szPruned), int64(live-szPruned-padPruned), int64(len(survivors)))
	sc.survivors = survivors
	return survivors
}
