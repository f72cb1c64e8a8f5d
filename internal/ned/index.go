package ned

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// (Scan) at width 1 and at a caller-chosen width.
//
// Every backend threads a distance budget into the TED* computation —
// the current l-th best for the scan, tau for the VP-tree, the ring
// radius for the BK-tree — so hopeless candidates are abandoned
// mid-computation (see ted.Computer.DistanceAtMost). Budgets never
// change results: an evaluation only aborts when the exact distance
// provably exceeds every threshold that could admit the candidate.

// Item is what an index backend is given and queried with: a node plus
// the signature trees its distance needs — the single k-adjacent tree
// for undirected NED (Equation 1), or the outgoing and incoming trees
// for the directed variant (Equation 2) — and the precomputed Profiles
// the filter–verify cascade evaluates candidates through. Profiles are
// required, not optional: an item is indexed or swept only once its
// owner has compiled them (ProfileItem), and a query only with its own
// (ProfileQueryItem); an unprofiled item reaching a backend panics.
// The cascade scan keeps none of an item but its rows (RowsOf): the
// items its Items yields carry Node and K only, and Item builds the
// trees and profiles back from the rows.
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

// buildChunk is how many nodes a build worker takes from the node list
// at a time.
const buildChunk = 256

// BuildRows extracts the k-adjacent trees of the given nodes of g,
// which must ascend, straight into rows labelled against dict, in node
// order. Workers take the nodes in chunks of 256 and write each chunk's
// rows into arenas of the chunk's own (tree.RowBuilder); one compile
// gathers them. The shapes dict lacks take the next IDs as the workers
// intern them; on one worker, in the order profiling each extracted
// tree would intern them.
func BuildRows(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, dict *tree.Interner, workers int) *Rows {
	return buildRows(g, nodes, k, directed, dict, workers, false)
}

// BuildRanked is BuildRows in a scan's rank order, with the room a load
// gives its rows (RowRoom): the base NewScan adopts as it is, so a build
// copies each row once. The workers label the rows against a dictionary
// of the build's own, and one canonical pass (tree.Interner.Canonicalize)
// then interns its shapes into dict in the canonical order and rewrites
// the rows' labels, so the rows and dict are the same on any number of
// workers.
func BuildRanked(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, dict *tree.Interner, workers int) *Rows {
	return buildRows(g, nodes, k, directed, dict, workers, true)
}

// shapesPerNode and keyBytesPerNode size a ranked build's own
// dictionary, so that it seldom grows while the workers share it: the
// PGP analog at k = 3 interns about 2.5 shapes a node, coded in about 42
// bytes a node.
const shapesPerNode, keyBytesPerNode = 3, 48

// canonNanos is the time the canonical passes of every BuildRanked so
// far took, in nanoseconds.
var canonNanos atomic.Int64

// CanonTime is the time the canonical passes of every BuildRanked in
// this process took.
func CanonTime() time.Duration { return time.Duration(canonNanos.Load()) }

func buildRows(g *graph.Graph, nodes []graph.NodeID, k int, directed bool, dict *tree.Interner, workers int, ranked bool) *Rows {
	// chunks[c] holds chunk c's rows: its out-trees' and in-trees'.
	type chunk struct{ out, in *tree.ProfileArena }
	chunks := make([]chunk, (len(nodes)+buildChunk-1)/buildChunk)
	workers = BatchOptions{Workers: workers}.workers()
	// The build's builders, one per worker at most; a sync.Pool would keep
	// them past the build.
	builders := make(chan *tree.RowBuilder, workers)
	into := dict
	if ranked {
		into = tree.NewInterner()
		into.Reserve(shapesPerNode*len(nodes), keyBytesPerNode*len(nodes))
	}
	parallelFor(len(chunks), workers, func(c int) {
		var b *tree.RowBuilder
		select {
		case b = <-builders:
		default:
			b = into.NewRowBuilder(k, directed)
		}
		b.Add(g, nodes[c*buildChunk:min((c+1)*buildChunk, len(nodes))])
		chunks[c].out, chunks[c].in = b.Rows()
		builders <- b
	})
	if ranked {
		t0 := time.Now()
		arenas := make([]*tree.ProfileArena, 0, 2*len(chunks))
		for _, ch := range chunks {
			arenas = append(arenas, ch.out)
			if directed {
				arenas = append(arenas, ch.in)
			}
		}
		dict.Canonicalize(arenas, workers)
		canonNanos.Add(int64(time.Since(t0)))
	}
	// at is node i's chunk and row in it.
	at := func(i int) (chunk, int32) { return chunks[i/buildChunk], int32(i % buildChunk) }
	// order lists the rows as the compile lays them out; a run is a chunk
	// in node order, mostly a single row in rank order.
	n := len(nodes)
	var order []int32
	room, runs := 0, len(chunks)
	if ranked {
		keys := make([]int32, n)
		for i := range keys {
			ch, p := at(i)
			keys[i] = ch.out.Sizes[p]
			if directed {
				keys[i] += ch.in.Sizes[p]
			}
		}
		order, room, runs = RankOrder(nodes, keys), RowRoom(n), n
	} else {
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
	}
	rows := &Rows{K: k, Nodes: make([]graph.NodeID, n, n+room)}
	out := make([]tree.ArenaRun, 0, runs)
	var in []tree.ArenaRun
	if directed {
		in = make([]tree.ArenaRun, 0, runs)
	}
	for r, i := range order {
		ch, p := at(int(i))
		rows.Nodes[r] = nodes[i]
		out = extendRun(out, ch.out, p)
		if directed {
			in = extendRun(in, ch.in, p)
		}
	}
	return rows.compile(out, in, room)
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

	// BlockCandidates counts the live candidates of every cascade scan
	// query; the survivor counters below break down how many of them
	// passed each successive tier during their scan —
	// BlockLabelSurvivors is how many passed tier 2 (degree sequence; the
	// name predates it) and so reached the verify stage. Candidates
	// evaluated before a scan has a pruning threshold pass trivially.
	// Zero on the tree backends, which sweep no blocks.
	BlockCandidates       int64
	BlockSizeSurvivors    int64
	BlockPaddingSurvivors int64
	BlockLabelSurvivors   int64

	// RowsBound counts the block rows whose size and padding bounds a
	// scan query's kernels computed: the rows of its size window, dead
	// ones included. The live candidates outside the window are
	// dismissed by size without being bounded.
	RowsBound int64

	// HungarianCells and VerifyLevels count the verify stage's work:
	// the cells of the cost matrices its TED* computations handed the
	// Hungarian solver, and the levels they swept (ted.Work).
	HungarianCells int64
	VerifyLevels   int64
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
		RowsBound:             c.RowsBound + o.RowsBound,
		HungarianCells:        c.HungarianCells + o.HungarianCells,
		VerifyLevels:          c.VerifyLevels + o.VerifyLevels,
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
	boundRows                                 atomic.Int64
	cells, levels                             atomic.Int64
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

// verifyWork records the work of one verify stage.
func (c *counterSet) verifyWork(w ted.Work) {
	if c == nil {
		return
	}
	c.cells.Add(w.HungarianCells)
	c.levels.Add(w.Levels)
}

// blockSweep records n live candidates of a scan query.
func (c *counterSet) blockSweep(n int) {
	if c == nil {
		return
	}
	c.blockCands.Add(int64(n))
}

// rowsBound records n block rows bounded by a query's kernels.
func (c *counterSet) rowsBound(n int) {
	if c == nil {
		return
	}
	c.boundRows.Add(int64(n))
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
		RowsBound:             c.boundRows.Load(),
		HungarianCells:        c.cells.Load(),
		VerifyLevels:          c.levels.Load(),
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
	c.boundRows.Store(0)
	c.cells.Store(0)
	c.levels.Store(0)
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

// Scan is the cascade scan (§10) over node-sorted rows, and a Corpus's
// only copy of them: both scan names construct it, "pruned" at width 1
// and "linear" at the width the caller asks for. A KNN is one sweep on
// the caller's goroutine; the width is how many goroutines verify a
// Range's survivors, and it moves wall time, never decisions.
//
// The rows are an immutable base plus a copy-on-write delta (see
// dynamic.go): node n is indexed iff it is in the delta, or in a base
// row dead does not list. A query sweeps two parts, the base without
// its dead rows and the delta.
type Scan struct {
	// bblk and dblk are the base's and the delta's blocks (block.go);
	// dblk is nil when the delta is empty. Never edited: clones share
	// them.
	bblk     *profileBlock
	dead     []int32 // base rows removed since the last fold, ascending
	deadRows []int32 // their ranks, ascending
	dblk     *profileBlock

	workers  int
	counters *counterSet
}

// NewLinearBackend is the cascade scan at the given Range width (<= 0
// means GOMAXPROCS): that many goroutines verify a range query's
// survivors. KNN runs on the caller's goroutine at any width: it bounds
// the rows of a size window around the query with the block kernels
// over the columnar profile arenas, widening it while it runs out below
// the l-th distance, verifies in ascending degree-bound order under the
// current l-th distance as TED* budget, and stops at the first bound
// that exceeds it (see scanKNN).
// The items must be profiled; the scan keeps their rows (RowsOf), not
// them. Mutations copy only a small delta (see dynamic.go).
func NewLinearBackend(items []Item, workers int) DynamicIndex {
	return NewScan(RowsOf(items), workers)
}

// NewScan is the cascade scan at the given Range width over rows,
// which must be node-ascending or already in rank order (size key, then
// node); it adopts them as its base, copied into rank order if they are
// not, and never writes them.
func NewScan(rows *Rows, workers int) *Scan {
	return &Scan{
		bblk:     blockOf(rows),
		workers:  BatchOptions{Workers: workers}.workers(),
		counters: &counterSet{},
	}
}

// compareNodes orders items by node.
func compareNodes(a, b Item) int { return cmp.Compare(a.Node, b.Node) }

// nodeSorted returns items when they ascend by node, else a stably
// sorted copy: a scan finds its rows by node, and a block breaks size
// ties by node.
func nodeSorted(items []Item) []Item {
	if slices.IsSortedFunc(items, compareNodes) {
		return items
	}
	return slices.SortedStableFunc(slices.Values(items), compareNodes)
}

// NewPrunedLinearBackend is the cascade scan at width 1: KNN and Range
// both run on the caller's goroutine, the §10 lower-bound-pruned scan
// PrunedTopL pioneered.
func NewPrunedLinearBackend(items []Item) DynamicIndex { return NewLinearBackend(items, 1) }

func (b *Scan) KNN(ctx context.Context, query Item, l int) ([]Neighbor, error) {
	res, _, err := scanKNN(ctx, query, b.appendParts(nil), l)
	return res, err
}

func (b *Scan) Range(ctx context.Context, query Item, r int) ([]Neighbor, error) {
	return scanRange(ctx, query, b.appendParts(nil), r, b.workers)
}

func (b *Scan) Len() int             { return b.bblk.n - len(b.dead) + b.deltaLen() }
func (b *Scan) DistanceCalls() int64 { return b.counters.distCalls.Load() }
func (b *Scan) Counters() Counters   { return b.counters.snapshot() }
func (b *Scan) ResetStats()          { b.counters.reset() }

// appendParts appends the backend's parts of a sweep: the base without
// its dead slots, then the delta when it holds anything.
func (b *Scan) appendParts(parts []sweepPart) []sweepPart {
	parts = append(parts, sweepPart{blk: b.bblk, dead: b.deadRows, cs: b.counters})
	if b.deltaLen() > 0 {
		parts = append(parts, sweepPart{blk: b.dblk, cs: b.counters})
	}
	return parts
}

// Clone returns a structurally private copy that copies nothing
// row-sized: both blocks and the dead lists are shared, because no
// mutation writes them — it replaces them (see dynamic.go). The counter
// accumulator is shared too.
func (b *Scan) Clone() DynamicIndex {
	c := *b
	return &c
}

// cancelCheckStride is how many steps a loop takes between context
// checks: indices processed, or for the KNN sweep candidates admitted,
// verified or dismissed.
const cancelCheckStride = 16

// sweepPart is one block of a sweep (a scan's base or delta), the
// ascending ranks of that block that are not candidates (the base's
// dead rows), and the counter set the scan's work lands in (nil counts
// nothing).
type sweepPart struct {
	blk  *profileBlock
	dead []int32
	cs   *counterSet
}

// sweepScratch is one query's working memory, pooled across queries
// because allocating it per query costs more than the sweep: the bound
// arrays over every part's rows (global row g of part p is
// partBase(ends, p) + its row; only the windows' rows are ever written),
// each part's window, the evaluation order, the widening's new rows,
// their order, the merge buffer and the counting sort's histogram, the
// KNN sweep's heap of admitted candidates, the cut's per-part tally, and
// Range's survivor bitmap and list. Nothing in it outlives the query.
type sweepScratch struct {
	sizeB, padB, order            []int32
	fresh, sorted, merged, counts []int32
	ends                          []int32
	wins                          []rowSpan
	heap                          []admitted
	tally                         []int64
	words                         []uint64
	survivors                     []int32
}

// rowSpan is the rows [lo, hi) of a block: a part's window.
type rowSpan struct{ lo, hi int32 }

var sweepScratches = sync.Pool{New: func() any { return new(sweepScratch) }}

// partOf is the part holding global row g: the first whose end
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

// knnSweep is one query's sweep state: the cursor into the padding
// order, the windows' size gap w, whether they hold every row, the
// canonical top-l so far. The windows, the order and the heap of
// admitted candidates live in the query's sweepScratch.
type knnSweep struct {
	next    int
	w       int
	full    bool
	l       int
	results []Neighbor
}

// firstWindow is the size gap a KNN sweep's windows open at; until the
// sweep has a finite l-th distance, each widening doubles it.
const firstWindow = 15

// barrier is a lower bound on the padding bound of every row outside the
// windows: w+1, or none once the windows hold every row.
func (s *knnSweep) barrier() int32 {
	if s.full {
		return math.MaxInt32
	}
	return int32(s.w) + 1
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

// rank is the part holding global row g and g's rank there.
func (sc *sweepScratch) rank(parts []sweepPart, g int32) (*sweepPart, int32) {
	p := sc.partOf(g)
	return &parts[p], g - partBase(sc.ends, p)
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

// cut dismisses everything the sweep has not claimed at threshold t,
// which every remaining bound exceeds: the unclaimed tail of the order,
// each row attributed to size or padding via its bounds, and the live
// rows outside the windows, whose size bound exceeds w >= t, as size
// prunes without a walk. Each part's tally lands in its counter set as
// one bulk add. Returns how many candidates were dismissed.
func (sc *sweepScratch) cut(parts []sweepPart, tail []int32, t int) int {
	sc.tally = grow(sc.tally, 2*len(parts)) // [2p]: rows of part p dismissed; [2p+1]: of them by size
	tally := sc.tally
	clear(tally)
	for _, g := range tail {
		p := sc.partOf(g)
		tally[2*p]++
		if int(sc.sizeB[g]) > t {
			tally[2*p+1]++
		}
	}
	dismissed := len(tail)
	for p := range parts {
		pt, win := &parts[p], sc.wins[p]
		outside := int64(pt.blk.n - int(win.hi-win.lo) - len(pt.dead) + len(deadWithin(pt.dead, win.lo, win.hi)))
		n, bySize := tally[2*p], tally[2*p+1]
		pt.cs.cascadePruneBulk(bySize+outside, n-bySize)
		pt.cs.blockSurviveBulk(n-bySize, 0, 0)
		dismissed += int(outside)
	}
	return dismissed
}

// scanKNN is the cascade top-l sweep: one pass over every part's
// candidates under one top-l result set, on the caller's goroutine,
// behind both scan backends (one part), FanKNN and the Corpus (a base
// and a delta part per scan), and the signature-level PrunedTopL /
// TopLParallel and Hausdorff (one part).
//
// It is the optimal multi-step k-NN (Seidl & Kriegel, SIGMOD 1998) over
// the cascade's bounds: candidates are verified in ascending order of
// the tightest bound known for them. It bounds only a window of each
// part: the rows whose size key is within w of the query's (block.go),
// w = firstWindow to start. The block kernels give the window's rows
// their padding bounds and order them by it; every row outside has a
// size bound, hence a padding bound, of at least w+1, so the next bound
// of the sweep is min(next unclaimed padding bound, w+1). Tier 2, the
// degree bound, is computed lazily, in that order, from the block's
// degree column, and ranks the candidates it admits in a min-heap. Each
// step does the first of these that applies:
//   - verify: the heap's least degree bound is at most the next bound,
//     so no candidate can have a smaller bound; pop it and verify it
//     under the current l-th distance, or dismiss it if its bound is
//     above that;
//   - cut: the next bound is above the l-th distance, so the unclaimed
//     tail, the rows outside the windows and the whole heap are
//     dismissed at once;
//   - admit: the next unclaimed padding bound is at most w+1: claim that
//     candidate, run tier 2 on it at the current l-th distance and push
//     it if it survives;
//   - widen: the window's order ran out below w+1 and the l-th distance:
//     grow w to the l-th distance once it is finite, and double it
//     before, bound the new rows and merge them, by padding bound, into
//     the unclaimed order (sweepScratch.widen).
//
// It verifies exactly the candidates whose degree bound is at most the
// final l-th distance, the fewest any sweep over these bounds can. The
// ranking is exact with respect to the full TED* distance: every
// dismissal needs a lower bound strictly above the current l-th
// distance, so every reported neighbor carries its true distance and
// the set is the canonical (distance, node) top-l, identical to a full
// scan's however the candidates are split into parts. Each candidate's
// work is counted in its own part's counter set.
func scanKNN(ctx context.Context, query Item, parts []sweepPart, l int) ([]Neighbor, PruneStats, error) {
	if err := ctx.Err(); err != nil || l <= 0 {
		return nil, PruneStats{}, err
	}
	sc := sweepScratches.Get().(*sweepScratch)
	defer sweepScratches.Put(sc)
	live := sc.open(query, parts)
	if live == 0 {
		return nil, PruneStats{}, nil
	}
	sc.heap = sc.heap[:0]
	sw := &knnSweep{l: l, w: firstWindow, results: make([]Neighbor, 0, min(l, live)+1)}
	sw.full = sc.widen(query, parts, sw.w, 0)
	comp := tedComputers.Get().(*ted.Computer)
	defer tedComputers.Put(comp)
	rs := rowScratches.Get().(*rowScratch)
	defer rowScratches.Put(rs)
	var st PruneStats
	// tier2Prune counts a candidate whose degree bound exceeds the
	// threshold.
	tier2Prune := func(pt *sweepPart) {
		pt.cs.blockSurvive(tierPadding)
		pt.cs.cascadePrune(tierDegree)
		st.PrunedByBound++
	}
	for k := 0; ; k++ {
		if k%cancelCheckStride == 0 && ctx.Err() != nil {
			break
		}
		t := sw.threshold()
		order := sc.order
		nextPad := int32(math.MaxInt32) // the next unclaimed padding bound
		if sw.next < len(order) {
			nextPad = sc.padB[order[sw.next]]
		}
		bound := min(nextPad, sw.barrier()) // the least bound of any unclaimed candidate
		if len(sc.heap) > 0 && sc.heap[0].bound <= bound {
			// Verify: no unverified candidate has a smaller bound.
			a := sc.pop()
			pt, r := sc.rank(parts, order[a.pos])
			if int(a.bound) > t {
				tier2Prune(pt)
				continue
			}
			pt.cs.blockSurvive(tierDegree)
			it := pt.blk.candidate(rs, r)
			d, out := verifyDistanceAtMost(comp, query, it, t, pt.cs)
			switch out {
			case ted.OutcomeExact:
				st.FullEvaluations++
				sw.results = insertNeighborCanonical(sw.results, Neighbor{Node: it.Node, Dist: d}, sw.l)
			case ted.OutcomeAborted:
				st.EarlyExits++
			default:
				st.PrunedByBound++
			}
			continue
		}
		if t != ted.Unbounded && int(bound) > t {
			// Cut: every heap key exceeds the next bound, so the heap goes
			// with the tail and the rows outside the windows.
			for _, a := range sc.heap {
				pt, _ := sc.rank(parts, order[a.pos])
				tier2Prune(pt)
			}
			sc.heap = sc.heap[:0]
			st.PrunedByBound += sc.cut(parts, order[sw.next:], t)
			break
		}
		if nextPad > bound {
			// Widen: the windows' order ran out below w+1 <= t.
			if t != ted.Unbounded {
				sw.w = t
			} else {
				sw.w = 2*sw.w + 1
			}
			sw.w = min(sw.w, math.MaxInt32-1)
			sw.full = sc.widen(query, parts, sw.w, sw.next)
			continue
		}
		if sw.next == len(order) {
			// Every row is in the order and claimed, with fewer than l
			// verified so far.
			break
		}
		// Admit the next candidate in padding order.
		i := sw.next
		sw.next++
		pt, r := sc.rank(parts, order[i])
		if bound, pruned := pt.blk.degreeTierPrunes(query, r, int(nextPad), t); pruned {
			tier2Prune(pt)
		} else {
			sc.push(admitted{bound: int32(bound), pos: int32(i)})
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	return sw.results, st, nil
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
	defer sweepScratches.Put(sc)
	var mu sync.Mutex
	var out []Neighbor
	for _, pt := range parts {
		rows := sc.rangeBlockSurvivors(query, pt, r)
		if err := ParallelForCtx(ctx, len(rows), workers, func(i int) {
			comp := tedComputers.Get().(*ted.Computer)
			rs := rowScratches.Get().(*rowScratch)
			it := pt.blk.candidate(rs, rows[i])
			d, o := verifyDistanceAtMost(comp, query, it, r, pt.cs)
			rowScratches.Put(rs)
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
	loop := func() {
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
	}
	workers = min(BatchOptions{Workers: workers}.workers(), n)
	if workers <= 1 {
		loop()
		return ctx.Err()
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	wg.Wait()
	return ctx.Err()
}
