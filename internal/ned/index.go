package ned

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
	"ned/internal/vptree"
)

// This file defines the unified index layer behind the public Corpus
// query engine: one Index interface that the VP-tree, the BK-tree and
// the cascade scan implement, so query-serving code is written once
// against the interface and backends stay interchangeable. The scan has
// two names, "pruned" and "linear"; they are one implementation
// (scanBackend) at width 1 and at a caller-chosen width.
//
// Every backend threads a distance budget into the TED* computation —
// the current l-th best for the scan, tau for the VP-tree, the ring
// radius for the BK-tree — so hopeless candidates are abandoned
// mid-computation (see ted.Computer.DistanceAtMost). Budgets never
// change results: an evaluation only aborts when the exact distance
// provably exceeds every threshold that could admit the candidate.

// Item is what an index backend stores and queries: a node plus the
// signature trees its distance needs — the single k-adjacent tree for
// undirected NED (Equation 1), or the outgoing and incoming trees for
// the directed variant (Equation 2) — and the precomputed Profiles the
// filter–verify cascade evaluates candidates through. Profiles are
// required, not optional: an item is indexed or swept only once its
// owner has compiled them (ProfileItem), and a query only with its own
// (ProfileQueryItem); an unprofiled item reaching a backend panics.
type Item struct {
	Node graph.NodeID
	K    int
	Out  *tree.Tree // the k-adjacent tree (outgoing tree when directed)
	In   *tree.Tree // incoming k-adjacent tree; nil for undirected NED

	// OutP/InP are the precompiled cascade profiles of Out/In. All
	// profiles of one index must come from one tree.Interner (the
	// corpus dictionary, shared across epoch clones).
	OutP *tree.Profile
	InP  *tree.Profile
}

// Item converts a signature into its index representation.
func (s Signature) Item() Item { return Item{Node: s.Node, K: s.K, Out: s.Tree} }

// tedComputers pools TED* computation engines so each worker goroutine
// reuses one set of scratch buffers across candidates.
var tedComputers = sync.Pool{New: func() any { return ted.NewComputer() }}

// ItemDistance is the NED distance between two items: TED* over the
// out-trees, plus TED* over the in-trees when both items carry one. It
// needs no profiles.
func ItemDistance(a, b Item) int {
	d := ted.Distance(a.Out, b.Out)
	if a.In != nil && b.In != nil {
		d += ted.Distance(a.In, b.In)
	}
	return d
}

// BuildItems materializes index items for the given nodes of g in
// parallel: one BFS tree extraction per node (two when directed).
// Output order matches the input order.
func BuildItems(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, workers int) []Item {
	out := make([]Item, len(nodes))
	parallelFor(len(nodes), BatchOptions{Workers: workers}.workers(), func(i int) {
		out[i] = NewItem(g, nodes[i], k, directed)
	})
	return out
}

// BuildProfiledItems is BuildItems followed by ProfileItems in one
// parallel pass: each worker extracts a node's trees and compiles their
// profiles against dict while the trees are still in its cache, so a
// build walks the items once and the profile phase scales with the
// workers as the extraction does. Output order matches the input order.
func BuildProfiledItems(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, dict *tree.Interner, workers int) []Item {
	out := make([]Item, len(nodes))
	parallelFor(len(nodes), BatchOptions{Workers: workers}.workers(), func(i int) {
		out[i] = NewItem(g, nodes[i], k, directed)
		ProfileItem(&out[i], dict)
	})
	return out
}

// NewItem extracts the index item of one node: its k-adjacent tree, or
// the outgoing and incoming trees when directed.
func NewItem(g *graph.Graph, v graph.NodeID, k int, directed bool) Item {
	it := Item{Node: v, K: k, Out: tree.Extract(g, v, k, graph.Outgoing)}
	if directed {
		it.In = tree.Extract(g, v, k, graph.Incoming)
	}
	return it
}

// Counters is a snapshot of an index's work profile since the last
// ResetStats.
type Counters struct {
	// DistanceCalls counts TED* evaluations started (completed plus
	// early-exited); cheap lower-bound evaluations are not counted.
	DistanceCalls int64
	// EarlyExits counts budgeted evaluations that bailed mid-computation
	// once the running cost provably crossed the search threshold.
	EarlyExits int64
	// LowerBoundPrunes counts candidates dismissed by a lower bound
	// alone, before any matching work — the sum of the three cascade
	// tiers below.
	LowerBoundPrunes int64

	// SizePrunes / PaddingPrunes / LabelPrunes break LowerBoundPrunes
	// down by the filter tier that dismissed the candidate: the O(1)
	// size gap, the per-level padding bound (including the budgeted
	// computation's own padding seed check), or tier 2 (degree
	// sequence) — LabelPrunes keeps the name of the label-multiset tier
	// the degree-sequence bound replaced.
	SizePrunes    int64
	PaddingPrunes int64
	LabelPrunes   int64

	// BlockCandidates counts candidate slots swept by the block kernels,
	// which is every live candidate of every cascade scan query; the
	// survivor counters below break down how many of them passed each
	// successive tier during their scan — BlockLabelSurvivors is how many
	// passed tier 2 (degree sequence; the name predates it) and so
	// reached the verify stage. Candidates evaluated before a scan has a
	// pruning threshold pass trivially. Zero on the tree backends, which
	// sweep no blocks.
	BlockCandidates       int64
	BlockSizeSurvivors    int64
	BlockPaddingSurvivors int64
	BlockLabelSurvivors   int64
}

// Add returns the element-wise sum of two counter snapshots: the work
// of several indexes one FanKNN swept.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		DistanceCalls:         c.DistanceCalls + o.DistanceCalls,
		EarlyExits:            c.EarlyExits + o.EarlyExits,
		LowerBoundPrunes:      c.LowerBoundPrunes + o.LowerBoundPrunes,
		SizePrunes:            c.SizePrunes + o.SizePrunes,
		PaddingPrunes:         c.PaddingPrunes + o.PaddingPrunes,
		LabelPrunes:           c.LabelPrunes + o.LabelPrunes,
		BlockCandidates:       c.BlockCandidates + o.BlockCandidates,
		BlockSizeSurvivors:    c.BlockSizeSurvivors + o.BlockSizeSurvivors,
		BlockPaddingSurvivors: c.BlockPaddingSurvivors + o.BlockPaddingSurvivors,
		BlockLabelSurvivors:   c.BlockLabelSurvivors + o.BlockLabelSurvivors,
	}
}

// counterSet is the atomic accumulator behind Counters. Backends hold
// it by pointer so an index generation and every epoch cloned from it
// share one accumulator: queries still in flight on a
// retired epoch keep landing their counts in the same place, and the
// owner's Stats stay continuous across epoch publication (see Clone).
type counterSet struct {
	distCalls, earlyExits, lbPrunes  atomic.Int64
	sizePrunes, padPrunes, degPrunes atomic.Int64

	blockCands                                atomic.Int64
	blockSizeSurv, blockPadSurv, blockDegSurv atomic.Int64
}

// observe records a completed candidate evaluation. Nil-safe so
// maintenance paths (BK insert descent, the legacy free functions) can
// simply pass no counter set. An OutcomePruned from the budgeted
// computation is the padding seed check firing, so it lands in the
// padding tier.
func (c *counterSet) observe(out ted.Outcome) {
	if c == nil {
		return
	}
	switch out {
	case ted.OutcomePruned:
		c.lbPrunes.Add(1)
		c.padPrunes.Add(1)
	case ted.OutcomeAborted:
		c.distCalls.Add(1)
		c.earlyExits.Add(1)
	default:
		c.distCalls.Add(1)
	}
}

// cascadePrune records a candidate dismissed by the given filter tier.
// Every lower-bound prune has exactly one tier, so LowerBoundPrunes
// always equals SizePrunes + PaddingPrunes + LabelPrunes.
func (c *counterSet) cascadePrune(t cascadeTier) {
	if c == nil {
		return
	}
	c.lbPrunes.Add(1)
	switch t {
	case tierSize:
		c.sizePrunes.Add(1)
	case tierPadding:
		c.padPrunes.Add(1)
	default:
		c.degPrunes.Add(1)
	}
}

// blockSweep records n candidate slots swept by the block kernels.
func (c *counterSet) blockSweep(n int) {
	if c == nil {
		return
	}
	c.blockCands.Add(int64(n))
}

// blockSurvive records one block-path candidate passing every tier up
// to and including through (a candidate verified with no threshold yet
// passes all three trivially — callers pass tierDegree).
func (c *counterSet) blockSurvive(through cascadeTier) {
	if c == nil {
		return
	}
	c.blockSizeSurv.Add(1)
	if through >= tierPadding {
		c.blockPadSurv.Add(1)
	}
	if through >= tierDegree {
		c.blockDegSurv.Add(1)
	}
}

// blockSurviveBulk records per-tier survivor counts for a whole block
// filtered at a static threshold (the Range path).
func (c *counterSet) blockSurviveBulk(size, pad, deg int64) {
	if c == nil {
		return
	}
	c.blockSizeSurv.Add(size)
	c.blockPadSurv.Add(pad)
	c.blockDegSurv.Add(deg)
}

// cascadePruneBulk records size and padding tier prunes in bulk — the
// block paths dismiss whole bound-sorted tails at once.
func (c *counterSet) cascadePruneBulk(size, pad int64) {
	if c == nil || size+pad == 0 {
		return
	}
	c.lbPrunes.Add(size + pad)
	c.sizePrunes.Add(size)
	c.padPrunes.Add(pad)
}

func (c *counterSet) snapshot() Counters {
	return Counters{
		DistanceCalls:         c.distCalls.Load(),
		EarlyExits:            c.earlyExits.Load(),
		LowerBoundPrunes:      c.lbPrunes.Load(),
		SizePrunes:            c.sizePrunes.Load(),
		PaddingPrunes:         c.padPrunes.Load(),
		LabelPrunes:           c.degPrunes.Load(),
		BlockCandidates:       c.blockCands.Load(),
		BlockSizeSurvivors:    c.blockSizeSurv.Load(),
		BlockPaddingSurvivors: c.blockPadSurv.Load(),
		BlockLabelSurvivors:   c.blockDegSurv.Load(),
	}
}

func (c *counterSet) reset() {
	c.distCalls.Store(0)
	c.earlyExits.Store(0)
	c.lbPrunes.Store(0)
	c.sizePrunes.Store(0)
	c.padPrunes.Store(0)
	c.degPrunes.Store(0)
	c.blockCands.Store(0)
	c.blockSizeSurv.Store(0)
	c.blockPadSurv.Store(0)
	c.blockDegSurv.Store(0)
}

// Index is the unified query surface of every NED index backend. All
// methods are safe for concurrent use, report typed errors instead of
// panicking, and check the context inside their distance loops so
// expensive queries abort promptly on cancellation.
type Index interface {
	// KNN returns the l nearest indexed items to the query in ascending
	// (distance, node) order. l larger than Len returns everything.
	KNN(ctx context.Context, query Item, l int) ([]Neighbor, error)
	// Range returns every indexed item within distance r of the query in
	// ascending (distance, node) order.
	Range(ctx context.Context, query Item, r int) ([]Neighbor, error)
	// Len reports how many items are indexed.
	Len() int
	// DistanceCalls reports TED* evaluations started since the last
	// ResetStats (cheap lower-bound evaluations are not counted).
	DistanceCalls() int64
	// Counters reports the full work profile: evaluations, budgeted
	// early exits, and lower-bound prunes.
	Counters() Counters
	// ResetStats zeroes all work counters.
	ResetStats()
}

// sortNeighborsCanonical orders query results by (distance, node), the
// deterministic presentation every backend normalizes to.
func sortNeighborsCanonical(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].Node < ns[j].Node
	})
}

// insertNeighborCanonical inserts n into a canonically-sorted slice at
// its (distance, node) position, trimming to at most l entries —
// O(log l) search plus one shift, versus a full re-sort per accepted
// candidate. It is the one sorted insert: the scan's collector and the
// VP backend's tail merge both go through it.
func insertNeighborCanonical(out []Neighbor, n Neighbor, l int) []Neighbor {
	i := sort.Search(len(out), func(i int) bool {
		if out[i].Dist != n.Dist {
			return out[i].Dist > n.Dist
		}
		return out[i].Node > n.Node
	})
	out = append(out, Neighbor{})
	copy(out[i+1:], out[i:])
	out[i] = n
	if len(out) > l {
		out = out[:l]
	}
	return out
}

// itemLess is the canonical tie-break every backend shares: equal
// distances resolve by node ID, so KNN answers are identical across
// backends down to the node level, not just the distance multiset.
func itemLess(a, b Item) bool { return a.Node < b.Node }

// floatBudget converts a VP-tree float budget to the integer TED* one.
// Flooring is safe: integer distances d <= budget iff d <= floor(budget).
func floatBudget(b float64) int {
	if b >= float64(ted.Unbounded) {
		return ted.Unbounded
	}
	return int(math.Floor(b))
}

// --- VP-tree backend ---

type vpBackend struct {
	t        *vptree.Tree[Item]
	tail     []Item // items inserted after the build, scanned per query
	counters *counterSet
}

// NewVPBackend indexes the items in a vantage-point tree (§13.4): exact
// sub-linear queries via floating-point triangle-inequality pruning.
// Searches hand the metric a budget of radius + tau per node; tier 2 of
// the cascade gates every budgeted evaluation — a candidate whose
// degree-sequence bound already exceeds that budget never starts a
// TED* — and survivors are abandoned mid-TED* once their running cost
// crosses it. Mutations take tombstone + append paths (see dynamic.go).
func NewVPBackend(items []Item) DynamicIndex {
	b := &vpBackend{counters: &counterSet{}}
	b.t = vptree.New(items, func(x, y Item) float64 {
		c := tedComputers.Get().(*ted.Computer)
		d, _ := verifyDistanceAtMost(c, x, y, ted.Unbounded, b.counters)
		tedComputers.Put(c)
		return float64(d)
	})
	b.t.SetBudgetedMetric(func(x, y Item, budget float64) (float64, bool) {
		c := tedComputers.Get().(*ted.Computer)
		d, out := gatedDistanceAtMost(c, x, y, floatBudget(budget), b.counters)
		tedComputers.Put(c)
		return float64(d), out == ted.OutcomeExact
	})
	b.t.SetTieBreak(itemLess)
	b.counters.reset() // the build's evaluations are not serving work
	return b
}

func (b *vpBackend) KNN(ctx context.Context, query Item, l int) ([]Neighbor, error) {
	res, err := b.t.KNNContext(ctx, query, l)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{Node: r.Item.Node, Dist: int(r.Dist)}
	}
	sortNeighborsCanonical(out)
	if len(b.tail) > 0 {
		if out, err = b.mergeTailKNN(ctx, query, l, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *vpBackend) Range(ctx context.Context, query Item, r int) ([]Neighbor, error) {
	res, err := b.t.RangeContext(ctx, query, float64(r))
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, rr := range res {
		out[i] = Neighbor{Node: rr.Item.Node, Dist: int(rr.Dist)}
	}
	if len(b.tail) > 0 {
		if out, err = b.rangeTail(ctx, query, r, out); err != nil {
			return nil, err
		}
	}
	sortNeighborsCanonical(out)
	return out, nil
}

func (b *vpBackend) Len() int             { return b.t.Len() + len(b.tail) }
func (b *vpBackend) DistanceCalls() int64 { return b.counters.distCalls.Load() }
func (b *vpBackend) Counters() Counters   { return b.counters.snapshot() }
func (b *vpBackend) ResetStats() {
	b.counters.reset()
	b.t.ResetStats()
}

// Clone returns a structurally private copy: the tree nodes (tombstone
// flags included) and the append tail are duplicated, the item payloads
// and the counter accumulator are shared. The tree keeps the original's
// metric closures — they only touch the shared counter set, and VP
// mutations (tail append, tombstoning) never evaluate the metric.
func (b *vpBackend) Clone() DynamicIndex {
	return &vpBackend{
		t:        b.t.Clone(),
		tail:     append([]Item(nil), b.tail...),
		counters: b.counters,
	}
}

// --- BK-tree backend ---

type bkBackend struct {
	t        *vptree.BKTree[Item]
	counters *counterSet

	// building mutes the serving counters while Insert descends the tree
	// (maintenance evaluations are not query work). Inserts run only on
	// unpublished clones (under the owner's write lock), so no query ever
	// observes the flag mid-flight — published epochs are immutable.
	building atomic.Bool
}

// metric returns the unbudgeted metric hook for b's tree: exact NED on
// a pooled Computer, counted as serving work unless b is mid-insert.
func (b *bkBackend) metric() func(x, y Item) int {
	return func(x, y Item) int {
		cs := b.counters
		if b.building.Load() {
			cs = nil
		}
		c := tedComputers.Get().(*ted.Computer)
		d, _ := verifyDistanceAtMost(c, x, y, ted.Unbounded, cs)
		tedComputers.Put(c)
		return d
	}
}

// budgetedMetric returns the budget-aware metric hook for b's tree:
// tier 2 of the cascade gates the budgeted TED* per candidate.
func (b *bkBackend) budgetedMetric() func(x, y Item, budget int) (int, bool) {
	return func(x, y Item, budget int) (int, bool) {
		c := tedComputers.Get().(*ted.Computer)
		d, out := gatedDistanceAtMost(c, x, y, budget, b.counters)
		tedComputers.Put(c)
		return d, out == ted.OutcomeExact
	}
}

// NewBKBackend indexes the items in a Burkhard–Keller tree: integer
// distance buckets, often faster than the VP-tree on the small integer
// range NED produces. Searches hand the metric a budget of
// maxChildKey + ringRadius per node, beyond which the exact distance is
// provably irrelevant. Mutations insert natively and remove via
// tombstones (see dynamic.go).
func NewBKBackend(items []Item) DynamicIndex {
	b := &bkBackend{counters: &counterSet{}}
	b.t = vptree.NewBK(items, b.metric())
	b.t.SetBudgetedMetric(b.budgetedMetric())
	b.t.SetTieBreak(itemLess)
	b.counters.reset() // the build's evaluations are not serving work
	return b
}

func (b *bkBackend) KNN(ctx context.Context, query Item, l int) ([]Neighbor, error) {
	res, err := b.t.KNNContext(ctx, query, l)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, r := range res {
		out[i] = Neighbor{Node: r.Item.Node, Dist: r.Dist}
	}
	sortNeighborsCanonical(out)
	return out, nil
}

func (b *bkBackend) Range(ctx context.Context, query Item, r int) ([]Neighbor, error) {
	res, err := b.t.RangeContext(ctx, query, r)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(res))
	for i, rr := range res {
		out[i] = Neighbor{Node: rr.Item.Node, Dist: rr.Dist}
	}
	sortNeighborsCanonical(out)
	return out, nil
}

func (b *bkBackend) Len() int             { return b.t.Len() }
func (b *bkBackend) DistanceCalls() int64 { return b.counters.distCalls.Load() }
func (b *bkBackend) Counters() Counters   { return b.counters.snapshot() }
func (b *bkBackend) ResetStats() {
	b.counters.reset()
	b.t.ResetStats()
}

// Clone returns a structurally private copy sharing item payloads and
// the counter accumulator. BK insertion evaluates the metric during its
// descent, and the hooks reference the owning wrapper (for the
// maintenance-muting flag), so the clone installs hooks pointing at
// itself.
func (b *bkBackend) Clone() DynamicIndex {
	nb := &bkBackend{counters: b.counters}
	nb.t = b.t.Clone(nb.metric(), nb.budgetedMetric())
	return nb
}

// --- cascade scan backend ---

// scanBackend is the cascade scan (§10) over node-sorted items: both
// scan names construct it, "pruned" at width 1 and "linear" at the
// width the caller asks for. The width is how many sweepers share one
// query's candidates; it moves wall time, never decisions.
//
// The items are an immutable base plus a copy-on-write delta (see
// dynamic.go): node n is indexed iff it is in delta, or in a base slot
// dead does not list. A query sweeps two parts, the base without its
// dead slots and the delta.
type scanBackend struct {
	base []Item
	// bblk and dblk are the columnar forms of the base's and the delta's
	// profiles (slot i describes base[i] or delta[i]). Never edited:
	// clones share them.
	bblk  *profileBlock
	dead  []int32 // base slots removed since the last fold, ascending
	delta []Item  // items inserted since the last fold, node-sorted
	dblk  *profileBlock

	workers  int
	counters *counterSet
}

// NewLinearBackend is the cascade scan at the given width (<= 0 means
// GOMAXPROCS): that many sweepers share one query's candidates and its
// running l-th distance. KNN precompiles the size and padding bounds of
// every candidate in one block-kernel sweep over the columnar profile
// arenas, verifies in ascending degree-bound order under the current
// l-th distance as TED* budget, and stops at the first padding bound
// that exceeds it (see scanKNN). The items must be profiled.
// Items already in node order are adopted as the scan's base, otherwise
// a sorted copy is; the scan never writes them. Mutations copy only a
// small delta (see dynamic.go).
func NewLinearBackend(items []Item, workers int) DynamicIndex {
	items = nodeSorted(items)
	return &scanBackend{
		base:     items,
		bblk:     compileBlock(items),
		workers:  BatchOptions{Workers: workers}.workers(),
		counters: &counterSet{},
	}
}

// compareNodes orders items by node.
func compareNodes(a, b Item) int { return cmp.Compare(a.Node, b.Node) }

// nodeSorted returns items when they ascend by node, else a stably
// sorted copy: a sweep reads each part's slot order as node order.
func nodeSorted(items []Item) []Item {
	if slices.IsSortedFunc(items, compareNodes) {
		return items
	}
	return slices.SortedStableFunc(slices.Values(items), compareNodes)
}

// NewPrunedLinearBackend is the cascade scan at width 1: the whole
// query runs on the caller's goroutine, the §10 lower-bound-pruned scan
// PrunedTopL pioneered.
func NewPrunedLinearBackend(items []Item) DynamicIndex { return NewLinearBackend(items, 1) }

func (b *scanBackend) KNN(ctx context.Context, query Item, l int) ([]Neighbor, error) {
	res, _, err := scanKNN(ctx, query, b.appendParts(nil), l, b.workers, runSweepers)
	return res, err
}

func (b *scanBackend) Range(ctx context.Context, query Item, r int) ([]Neighbor, error) {
	return scanRange(ctx, query, b.appendParts(nil), r, b.workers)
}

func (b *scanBackend) Len() int             { return len(b.base) - len(b.dead) + len(b.delta) }
func (b *scanBackend) DistanceCalls() int64 { return b.counters.distCalls.Load() }
func (b *scanBackend) Counters() Counters   { return b.counters.snapshot() }
func (b *scanBackend) ResetStats()          { b.counters.reset() }

// appendParts appends the backend's parts of a sweep: the base without
// its dead slots, then the delta when it holds anything.
func (b *scanBackend) appendParts(parts []sweepPart) []sweepPart {
	parts = append(parts, sweepPart{items: b.base, blk: b.bblk, dead: b.dead, cs: b.counters})
	if len(b.delta) > 0 {
		parts = append(parts, sweepPart{items: b.delta, blk: b.dblk, cs: b.counters})
	}
	return parts
}

// Clone returns a structurally private copy that copies nothing
// item-sized: base, dead list, delta and both blocks are shared, because
// no mutation writes them — it replaces them (see dynamic.go). The
// counter accumulator is shared too.
func (b *scanBackend) Clone() DynamicIndex {
	c := *b
	return &c
}

// cancelCheckStride is how many steps a sweeper takes between context
// checks: candidates processed, or for the KNN sweep candidates
// admitted, verified or dismissed.
const cancelCheckStride = 16

// runSweepers runs sweep once per sweeper and returns when all have
// finished: on the caller's own goroutine at width <= 1, on workers
// goroutines otherwise.
func runSweepers(workers int, sweep func()) {
	if workers <= 1 {
		sweep()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sweep()
		}()
	}
	wg.Wait()
}

// sweepPart is one block of a sweep: node-sorted items (a scan's base
// or delta), the profile block compiled over them, the ascending slots
// of items that are not candidates (the base's dead slots), and the
// counter set the scan's work lands in (nil counts nothing).
type sweepPart struct {
	items []Item
	blk   *profileBlock
	dead  []int32
	cs    *counterSet
}

// sweepScratch is one query's working memory, pooled across queries
// because zeroing and collecting it per query cost more than the sweep
// over the bounds: the bound arrays over every part's slots (global
// slot g of part p is partBase(ends, p) + its local slot), the
// evaluation order and its counting sort's histogram, each part's dead
// slots, the KNN sweep's heap of admitted candidates, the tail cut's
// per-part tally, and Range's survivor bitmap and list. Nothing in it
// outlives the query.
type sweepScratch struct {
	sizeB, padB, order, counts []int32
	ends                       []int32
	dead                       [][]int32
	heap                       []admitted
	tally                      []int64
	words                      []uint64
	survivors                  []int32
}

var sweepScratches = sync.Pool{New: func() any { return new(sweepScratch) }}

// release drops the scratch's references into the query's scans and
// returns it to the pool.
func (sc *sweepScratch) release() {
	clear(sc.dead)
	sweepScratches.Put(sc)
}

// partOf is the part holding global slot g: the first whose end
// exceeds it.
func (sc *sweepScratch) partOf(g int32) int {
	lo, hi := 0, len(sc.ends)-1
	for lo < hi {
		m := (lo + hi) / 2
		if sc.ends[m] > g {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// knnSweep is what one query's sweepers share, all under mu: the cursor
// into the padding order (each position has exactly one claimant), the
// canonical top-l so far and the query's stats. The heap of admitted
// candidates lives in the query's sweepScratch, under mu as well.
type knnSweep struct {
	mu      sync.Mutex
	next    int
	l       int
	results []Neighbor
	stats   PruneStats
}

// threshold is the current l-th distance, or ted.Unbounded until l
// results exist. A candidate whose distance is strictly above it cannot
// enter the final result, and it only ever tightens.
func (s *knnSweep) threshold() int {
	if len(s.results) == s.l {
		return s.results[s.l-1].Dist
	}
	return ted.Unbounded
}

// item is the candidate at global slot g and the part holding it.
func (sc *sweepScratch) item(parts []sweepPart, g int32) (*sweepPart, Item) {
	p := sc.partOf(g)
	return &parts[p], parts[p].items[g-partBase(sc.ends, p)]
}

// admitted is a candidate the KNN sweep has run tier 2 on and kept:
// its degree bound, which orders verification, and its position in the
// padding order, which breaks ties.
type admitted struct{ bound, pos int32 }

func (a admitted) less(b admitted) bool {
	return a.bound < b.bound || (a.bound == b.bound && a.pos < b.pos)
}

// push adds a to the min-heap of admitted candidates. The heap is typed
// and lives in the scratch so that no push boxes or allocates.
func (sc *sweepScratch) push(a admitted) {
	h := append(sc.heap, a)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].less(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	sc.heap = h
}

// pop removes and returns the admitted candidate with the least key.
func (sc *sweepScratch) pop() admitted {
	h := sc.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	sc.heap = h
	return top
}

// cutTail dismisses the unclaimed tail at threshold t. The order
// ascends by padding bound, the tail's first bound exceeds t and the
// threshold only tightens, so every one of them is dismissed by the
// same tiers right now. Each slot is attributed to size or padding via
// its bounds and tallied for its part, and each part's tally lands in
// its counter set as one bulk add. Returns how many slots were
// dismissed.
func (sc *sweepScratch) cutTail(parts []sweepPart, tail []int32, t int) int {
	// The cursor hands the unclaimed tail to exactly one sweeper, so the
	// scratch's tally is this one's alone.
	sc.tally = grow(sc.tally, 2*len(parts)) // [2p]: slots of part p dismissed; [2p+1]: of them by size
	tally := sc.tally
	clear(tally)
	for _, g := range tail {
		p := sc.partOf(g)
		tally[2*p]++
		if int(sc.sizeB[g]) > t {
			tally[2*p+1]++
		}
	}
	for p := range parts {
		if n, bySize := tally[2*p], tally[2*p+1]; n > 0 {
			parts[p].cs.cascadePruneBulk(bySize, n-bySize)
			parts[p].cs.blockSurviveBulk(n-bySize, 0, 0)
		}
	}
	return len(tail)
}

// scanKNN is the cascade top-l sweep: one pass over every part's
// candidates under one top-l result set, behind both scan backends (one
// part), FanKNN and the Corpus (a base and a delta part per scan), and the
// signature-level PrunedTopL / TopLParallel and Hausdorff (one part).
// run chooses who sweeps: it runs the sweep on up to the given number
// of sweepers — runSweepers' own goroutines, or an Executor's pool —
// and returns once all have finished.
//
// It is the optimal multi-step k-NN (Seidl & Kriegel, SIGMOD 1998) over
// the cascade's bounds: candidates are verified in ascending order of
// the tightest bound known for them. The block kernels give every
// candidate its padding bound up front and order them by it; tier 2,
// the degree bound, is computed lazily, in that order, and ranks the
// candidates it admits in a min-heap. Each step of a sweeper does the
// first of these that applies:
//   - verify: the heap's least degree bound is at most the next
//     unclaimed padding bound, so no candidate can have a smaller bound;
//     pop it and verify it under the current l-th distance, or dismiss
//     it if its bound is above that;
//   - cut: the next padding bound is above the l-th distance, so the
//     unclaimed tail and the whole heap are dismissed at once;
//   - admit: claim the next candidate in padding order, run tier 2 on
//     it at the current l-th distance and push it if it survives.
//
// At width 1 this verifies exactly the candidates whose degree bound is
// at most the final l-th distance, the fewest any sweep over these
// bounds can. The ranking is exact with respect to the full TED*
// distance: every dismissal needs a lower bound strictly above the
// current l-th distance, so every reported neighbor carries its true
// distance and the set is the canonical (distance, node) top-l,
// identical to a full scan's, at any width and however the candidates
// are split into parts. Each candidate's work is counted in its own
// part's counter set.
func scanKNN(ctx context.Context, query Item, parts []sweepPart, l, width int, run func(workers int, sweep func())) ([]Neighbor, PruneStats, error) {
	if err := ctx.Err(); err != nil || l <= 0 {
		return nil, PruneStats{}, err
	}
	sc := sweepScratches.Get().(*sweepScratch)
	defer sc.release()
	sc.prepare(query, parts)
	order, padB := sc.order, sc.padB
	if len(order) == 0 {
		return nil, PruneStats{}, nil
	}
	sc.heap = sc.heap[:0]
	sw := &knnSweep{l: l, results: make([]Neighbor, 0, min(l, len(order))+1)}
	run(min(width, len(order)), func() {
		comp := tedComputers.Get().(*ted.Computer)
		defer tedComputers.Put(comp)
		var st PruneStats
		// tier2Prune counts a candidate whose degree bound exceeds the
		// threshold.
		tier2Prune := func(pt *sweepPart) {
			pt.cs.blockSurvive(tierPadding)
			pt.cs.cascadePrune(tierDegree)
			st.PrunedByBound++
		}
		// What this sweeper's last step leaves to settle under the lock: a
		// candidate to push, a neighbor to offer.
		var keep, found bool
		var adm admitted
		var nb Neighbor
		for k := 0; ; k++ {
			stop := k%cancelCheckStride == 0 && ctx.Err() != nil
			sw.mu.Lock()
			if keep {
				sc.push(adm)
			}
			if found && nb.Dist <= sw.threshold() {
				sw.results = insertNeighborCanonical(sw.results, nb, sw.l)
			}
			keep, found = false, false
			if stop {
				sw.mu.Unlock()
				break
			}
			t := sw.threshold()
			nextPad := int32(math.MaxInt32) // the next unclaimed padding bound
			if sw.next < len(order) {
				nextPad = padB[order[sw.next]]
			}
			if len(sc.heap) > 0 && sc.heap[0].bound <= nextPad {
				// Verify: no unverified candidate has a smaller bound.
				a := sc.pop()
				sw.mu.Unlock()
				pt, it := sc.item(parts, order[a.pos])
				if int(a.bound) > t {
					tier2Prune(pt)
					continue
				}
				pt.cs.blockSurvive(tierDegree)
				d, out := verifyDistanceAtMost(comp, query, it, t, pt.cs)
				switch out {
				case ted.OutcomeExact:
					st.FullEvaluations++
					found, nb = true, Neighbor{Node: it.Node, Dist: d}
				case ted.OutcomeAborted:
					st.EarlyExits++
				default:
					st.PrunedByBound++
				}
				continue
			}
			if sw.next == len(order) {
				// Nothing left to claim or verify; candidates other sweepers
				// hold are theirs to settle.
				sw.mu.Unlock()
				break
			}
			if t != ted.Unbounded && int(nextPad) > t {
				// Cut: every heap key exceeds nextPad, so the heap goes with
				// the tail.
				tail := order[sw.next:]
				sw.next = len(order)
				for _, a := range sc.heap {
					pt, _ := sc.item(parts, order[a.pos])
					tier2Prune(pt)
				}
				sc.heap = sc.heap[:0]
				sw.mu.Unlock()
				st.PrunedByBound += sc.cutTail(parts, tail, t)
				break
			}
			// Admit the next candidate in padding order.
			i := sw.next
			sw.next++
			sw.mu.Unlock()
			pt, it := sc.item(parts, order[i])
			if bound, pruned := degreeTierPrunes(query, it, t); pruned {
				tier2Prune(pt)
			} else {
				keep, adm = true, admitted{bound: int32(bound), pos: int32(i)}
			}
		}
		sw.mu.Lock()
		sw.stats.add(st)
		sw.mu.Unlock()
	})
	if err := ctx.Err(); err != nil {
		return nil, sw.stats, err
	}
	return sw.results, sw.stats, nil
}

// scanRange is the cascade range scan behind both scan backends, over
// their parts in turn: the kernels run every filter tier at threshold r
// and only the survivors reach the verify stage. Results are exact and
// canonically sorted; a negative radius admits nothing.
func scanRange(ctx context.Context, query Item, parts []sweepPart, r, workers int) ([]Neighbor, error) {
	if err := ctx.Err(); err != nil || r < 0 {
		return nil, err
	}
	sc := sweepScratches.Get().(*sweepScratch)
	defer sc.release()
	var mu sync.Mutex
	var out []Neighbor
	for _, pt := range parts {
		slots := sc.rangeBlockSurvivors(query, pt, r)
		if err := ParallelForCtx(ctx, len(slots), workers, func(i int) {
			it := pt.items[slots[i]]
			comp := tedComputers.Get().(*ted.Computer)
			d, o := verifyDistanceAtMost(comp, query, it, r, pt.cs)
			tedComputers.Put(comp)
			if o == ted.OutcomeExact && d <= r {
				mu.Lock()
				out = append(out, Neighbor{Node: it.Node, Dist: d})
				mu.Unlock()
			}
		}); err != nil {
			return nil, err
		}
	}
	sortNeighborsCanonical(out)
	return out, nil
}

// ParallelForCtx runs fn(i) for i in [0, n) across workers (<= 0 means
// GOMAXPROCS), stopping early when ctx is canceled; it returns
// ctx.Err() in that case. Slots already handed to workers still
// complete, so fn must stay safe to run after cancellation. At one
// worker the loop runs on the caller's goroutine.
func ParallelForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var next atomic.Int64
	runSweepers(min(BatchOptions{Workers: workers}.workers(), n), func() {
		for k := 0; ; k++ {
			if k%cancelCheckStride == 0 && ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	})
	return ctx.Err()
}
