package ned

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/tree"
)

// Typed errors returned by the Corpus API. Wrap-aware: test with
// errors.Is. Canceled or expired contexts surface as context.Canceled /
// context.DeadlineExceeded, checked inside the distance loops so even
// in-flight queries abort promptly.
var (
	// ErrNilGraph reports a nil graph passed to NewCorpus.
	ErrNilGraph = errors.New("ned: nil graph")
	// ErrBadK reports a neighborhood depth below 1.
	ErrBadK = errors.New("ned: k must be >= 1")
	// ErrBadL reports a result count below 1.
	ErrBadL = errors.New("ned: l must be >= 1")
	// ErrBadRadius reports a negative range radius.
	ErrBadRadius = errors.New("ned: radius must be >= 0")
	// ErrNodeOutOfRange reports a node ID outside [0, NumNodes).
	ErrNodeOutOfRange = errors.New("ned: node out of range")
	// ErrBadBackend reports an unknown Backend value.
	ErrBadBackend = errors.New("ned: unknown backend")
	// ErrKMismatch reports a query signature whose k differs from the
	// corpus's k; cross-parameter distances are not comparable rankings.
	ErrKMismatch = errors.New("ned: query signature k differs from corpus k")
	// ErrBadSignature reports a query signature with no tree.
	ErrBadSignature = errors.New("ned: query signature has no tree")
	// ErrDirectedSignature reports a single-tree signature query against
	// a directed corpus, whose distance needs incoming and outgoing
	// trees; query directed corpora by node ID via KNN.
	ErrDirectedSignature = errors.New("ned: directed corpus requires node queries")
	// ErrNoGraph reports a graph-requiring operation (Insert, UpdateGraph,
	// Signature, KNN of an unindexed node) on a corpus loaded from a
	// snapshot without WithGraph.
	ErrNoGraph = errors.New("ned: corpus has no graph")
	// ErrBadSnapshot reports a corpus snapshot LoadCorpus could not
	// parse: corrupt input, an unsupported format version, or metadata
	// disagreeing with the items.
	ErrBadSnapshot = errors.New("ned: bad corpus snapshot")
)

// Backend names an index structure. A Corpus serves from the cascade
// scan whatever Backend it is given (see WithBackend); the type remains
// for one release so existing callers, flags, create requests, and
// snapshot headers keep parsing. The metric trees the other names stood
// for are the low-level VPIndex and BKIndex, and the paper's NN-query
// experiment in `nedbench -exp fig9|ablation`.
type Backend int

const (
	// BackendVP named the paper's VP-tree metric index (§13.4).
	//
	// Deprecated: accepted and ignored; the Corpus serves from the
	// cascade scan. Use VPIndex for the tree itself.
	BackendVP Backend = iota
	// BackendBK named the Burkhard–Keller tree.
	//
	// Deprecated: accepted and ignored; the Corpus serves from the
	// cascade scan. Use BKIndex for the tree itself.
	BackendBK
	// BackendLinear named the cascade scan spread over several sweepers
	// per shard.
	//
	// Deprecated: accepted and ignored; the Corpus serves from the
	// cascade scan at width 1 per shard.
	BackendLinear
	// BackendPrunedLinear names the cascade scan (§10) every Corpus
	// serves from: each shard scans on one goroutine, best-first by lower
	// bound, skipping the candidates the bounds prove out of range.
	//
	// Deprecated: there is nothing left to select.
	BackendPrunedLinear

	numBackends = iota
)

// String returns the flag-friendly backend name.
func (b Backend) String() string {
	switch b {
	case BackendVP:
		return "vp"
	case BackendBK:
		return "bk"
	case BackendLinear:
		return "linear"
	case BackendPrunedLinear:
		return "pruned"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// MarshalText encodes the backend as its flag-friendly name, so JSON
// stats documents carry "vp" rather than a bare enum ordinal that would
// silently renumber if backends were ever reordered.
func (b Backend) MarshalText() ([]byte, error) {
	if err := b.check(); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// check rejects a value outside the four named constants.
func (b Backend) check() error {
	if b < 0 || b >= numBackends {
		return fmt.Errorf("%w: %d", ErrBadBackend, int(b))
	}
	return nil
}

// UnmarshalText parses a backend name, accepting everything
// ParseBackend does.
func (b *Backend) UnmarshalText(text []byte) error {
	pb, err := ParseBackend(string(text))
	if err != nil {
		return err
	}
	*b = pb
	return nil
}

// ParseBackend maps a name ("vp", "bk", "linear", "pruned") to its
// Backend, for command-line flags.
//
// Deprecated: every name means the cascade scan (see WithBackend); only
// the ErrBadBackend for an unknown name still matters.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "vp", "vptree", "vp-tree":
		return BackendVP, nil
	case "bk", "bktree", "bk-tree":
		return BackendBK, nil
	case "linear", "scan":
		return BackendLinear, nil
	case "pruned", "pruned-linear", "prunedlinear":
		return BackendPrunedLinear, nil
	}
	return 0, fmt.Errorf("%w: %q (want vp, bk, linear, or pruned)", ErrBadBackend, s)
}

// maxDefaultShards caps the GOMAXPROCS-derived shard default: beyond a
// point extra shards stop buying mutation isolation and only add a
// block, a lock and a counter set to keep per shard. WithShards
// overrides the cap.
const maxDefaultShards = 16

// defaultShards is the shard count when WithShards is not given:
// GOMAXPROCS, capped.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxDefaultShards {
		n = maxDefaultShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// CorpusOption configures a Corpus at construction.
type CorpusOption func(*corpusConfig)

type corpusConfig struct {
	backend  Backend // validated at construction, never read after; see WithBackend
	workers  int
	shards   int
	directed bool
	nodes    []NodeID
	nodesSet bool
	graph    *Graph // LoadCorpus only; see WithGraph
}

// WithBackend used to select the index structure behind the Corpus.
//
// Deprecated: accepted and ignored. Every Corpus serves from the cascade
// scan — behind the filter cascade it does fewer TED* evaluations than
// either metric tree and costs nothing to build (EXPERIMENTS.md,
// "Bake-off verdict") — and Stats().Backend reports "pruned" whatever
// was asked for. A value outside the four named constants still fails
// construction with ErrBadBackend.
func WithBackend(b Backend) CorpusOption {
	return func(c *corpusConfig) { c.backend = b }
}

// WithWorkers sets the worker pool size used for parallel signature
// materialization, a query's sweepers, and BatchKNN.
// Values <= 0 (the default) mean GOMAXPROCS.
func WithWorkers(n int) CorpusOption {
	return func(c *corpusConfig) { c.workers = n }
}

// WithShards sets how many shards the corpus partitions its nodes
// across. Each shard owns its own index, publishes immutable epochs that
// queries read without locking, and serializes its own mutations — so a
// mutation on one shard never blocks queries, and never blocks mutations
// on other shards. Shards are write-side only: a KNN query sweeps every
// shard's block in one best-first pass under one top-l collector, so
// answers are node-identical and the TED* work is the same (within tie
// order) for every shard count, including 1.
//
// Values <= 0 (the default) derive the count from GOMAXPROCS (capped at
// 16). More shards buy writers that do not share a lock — and smaller
// folds, since a shard's scan folds its delta into a new base once the
// delta passes a fixed fraction of the shard — at the price of two more
// blocks (base and delta) per query sweep; a write itself copies only
// its shard's delta whatever the count. WithShards(1) restores one
// monolithic index.
func WithShards(n int) CorpusOption {
	return func(c *corpusConfig) { c.shards = n }
}

// ShardsFlag maps a CLI -shards flag value onto a WithShards argument:
// every non-positive value (the tools document -1 and 0 as "engine
// default") selects the GOMAXPROCS-derived default, which WithShards
// spells as 0. The cmd/ tools share this one helper so their -shards
// semantics cannot drift apart.
func ShardsFlag(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// WithDirected switches the corpus to the directed NED of Equation 2:
// distances sum TED* over the incoming and outgoing k-adjacent trees.
// Directed corpora are queried by node ID (KNN); single-tree signature
// queries return ErrDirectedSignature.
func WithDirected() CorpusOption {
	return func(c *corpusConfig) { c.directed = true }
}

// WithNodes restricts the corpus to a node subset (for example a
// candidate pool in a de-anonymization attack); an empty subset yields
// an empty corpus. The default indexes every node of the graph. The
// slice is copied and deduplicated. LoadCorpus ignores this option (a
// snapshot's items define its node set; Remove can shrink it).
func WithNodes(nodes []NodeID) CorpusOption {
	return func(c *corpusConfig) {
		c.nodes = append([]NodeID(nil), nodes...)
		c.nodesSet = true
	}
}

// WithGraph attaches the backing graph to a corpus restored by
// LoadCorpus, re-enabling the graph-requiring operations: Insert,
// UpdateGraph, Signature, and queries for nodes outside the index. The
// graph must be the one the snapshot was taken from (node IDs are
// resolved against it). NewCorpus ignores this option — its graph
// parameter wins.
func WithGraph(g *Graph) CorpusOption {
	return func(c *corpusConfig) { c.graph = g }
}

// Corpus is a thread-safe, context-aware NED query engine over the
// nodes of one graph: the top-l / nearest-set similarity workloads of
// §13.3–13.4 behind a single API, served from one cascade scan per
// shard. Build one with NewCorpus (or restore one with LoadCorpus);
// all methods may be called concurrently.
//
// The engine is sharded (WithShards): nodes are hash-partitioned across
// shards, each owning its own index, and a query sweeps all of the
// shards' blocks in one pass under one top-l collector, so answers are
// node-identical for every shard count.
//
// Read consistency: every query observes exactly one committed prefix
// of mutation calls; publish order = WAL order. The whole corpus — the
// backing graph and every shard's items and index — is published as one
// immutable view through a single atomic pointer. A query loads that
// pointer once and answers from what it loaded. Every mutation call
// (Insert, Remove, UpdateGraph) prepares private successor epochs for
// the shards it touches and publishes them with one pointer store, so a
// call spanning shards is visible whole or not at all, to queries and
// to Stats alike. Once the lazy build has run, a mutation never blocks
// queries — in-flight readers keep the view they loaded — and Insert
// and Remove calls on disjoint shards prepare concurrently (the one
// exception is the first query itself, whose lazy build waits for
// mutations already in flight).
//
// Signatures and the shard indexes are materialized lazily, in
// parallel, on the first query, so constructing a Corpus is cheap and
// programs that only query a few of several corpora never pay for the
// rest.
//
// A Corpus is dynamic: Insert and Remove churn the indexed node set
// with live index maintenance (each touched shard's scan takes a new
// delta, folded into its base once it grows), UpdateGraph follows the graph
// through version changes re-extracting only the signatures an edit
// actually affected, and Snapshot/LoadCorpus persist the built index
// across processes. Results after any mutation sequence are identical
// to a freshly built corpus over the same live nodes.
type Corpus struct {
	k   int
	cfg corpusConfig

	// gmu orders whole-engine transitions against one another:
	// materialization and index builds and UpdateGraph take the write
	// side, which excludes every mutator — they prepare their successor
	// view without shard locks. Insert and Remove hold the read side for
	// their whole span, so the graph version cannot move underneath
	// them. Queries never touch gmu; Stats and ResetStats are entirely
	// atomic.
	gmu sync.RWMutex

	// view is the published corpus. publish is its only writer; pubMu
	// serializes the read-copy-store of Insert and Remove calls preparing
	// concurrently on disjoint shards.
	view  atomic.Pointer[corpusView]
	pubMu sync.Mutex

	exec *ned.Executor // pooled workers for query sweepers and BatchKNN

	// dict is the corpus-wide subtree-shape dictionary behind the
	// filter–verify cascade: every signature is compiled against it —
	// at extraction, Insert, UpdateGraph, and snapshot load — into a
	// flat Profile (level sizes, per-level degree sequences and interned
	// label multisets, the AHU encoding as an interned 64-bit key), and
	// every query
	// signature is compiled read-only against the same dictionary on
	// arrival (shapes the corpus never indexed get profile-local
	// labels), so candidate evaluation compares precomputed int32 runs
	// instead of walking trees. One dictionary per corpus, shared by
	// all shards and epoch clones; it grows only with the shapes of
	// indexed signatures, never with what is queried against it.
	dict *tree.Interner

	materialized atomic.Bool // signatures extracted into the epochs
	built        atomic.Bool // per-shard indexes constructed

	// Durable state, attached by MakeDurable/OpenDurable (see
	// durable.go); nil/zero on purely in-memory corpora. wal is the
	// active mutation log — commit routes every Insert and Remove
	// through it so the append lands before the mutation becomes
	// visible. durMu orders checkpoints, closes, and the attach itself
	// against one another; walSeq (guarded by durMu) is the generation
	// of the active log.
	wal        atomic.Pointer[segment.WAL]
	durMu      sync.Mutex
	durableDir string
	walSeq     int64

	// Degraded-mode state (see durable.go). degraded is nil while
	// healthy; a failed WAL commit or checkpoint stores the sticky
	// cause, mutations refuse with ErrDegraded, and only a verified
	// full-segment rewrite (Checkpoint) clears it. Reads never consult
	// it. recoveryAttempts counts rewrite attempts while degraded;
	// quarantined counts checkpoint generations renamed aside during
	// recovery because they failed to decode.
	degraded         atomic.Pointer[DegradedInfo]
	recoveryAttempts atomic.Int64
	quarantined      atomic.Int64

	queries atomic.Int64
}

// corpusView is one published version of the whole corpus. Immutable
// once published: a successor shares every epoch its mutation did not
// touch, so a view costs a handful of pointers. The slot count is fixed
// for the life of the Corpus, and node n lives in slot
// ned.ShardOf(n, len(shards)).
type corpusView struct {
	g      *Graph         // nil for snapshot-loaded corpora without WithGraph
	shards []*corpusShard // slot i's mutation lock and contention telemetry
	eps    []*shardEpoch  // slot i's items and index in this version
}

// shardOf is the slot owning node n.
func (v *corpusView) shardOf(n NodeID) int { return ned.ShardOf(n, len(v.shards)) }

// epochOf returns the epoch of the shard owning node n.
func (v *corpusView) epochOf(n NodeID) *shardEpoch { return v.eps[v.shardOf(n)] }

// indexes lists the view's shard indexes in slot order: what one query
// sweeps.
func (v *corpusView) indexes() []ned.Index {
	ixs := make([]ned.Index, len(v.eps))
	for i, ep := range v.eps {
		ixs[i] = ep.ix
	}
	return ixs
}

// publish is the only writer of c.view: it copies the current view
// (none before the first publish), lets edit replace what the caller
// prepared, and stores the result. A caller may edit only what its
// locks own — the epochs of shards whose mu it holds under gmu's read
// side, anything under gmu's write side.
func (c *Corpus) publish(edit func(nv *corpusView)) {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	nv := &corpusView{}
	if cur := c.view.Load(); cur != nil {
		*nv = *cur
		nv.eps = append([]*shardEpoch(nil), cur.eps...)
	}
	edit(nv)
	c.view.Store(nv)
}

// corpusShard is one partition's identity across views: its mutation
// lock and its write-contention telemetry.
type corpusShard struct {
	mu sync.Mutex // serializes Insert and Remove calls touching this shard

	// Contention counters, monotone for the corpus lifetime (ResetStats
	// leaves them alone, so a scraper can difference successive
	// readings): nanoseconds mutators spent waiting for mu, mutated-node
	// count, and bytes copied preparing successor epochs (see splice).
	lockWaitNS atomic.Int64
	mutations  atomic.Int64
	cloneBytes atomic.Int64
}

// lockTimed is sh.mu.Lock with the wait time accounted to the shard's
// contention counters; the uncontended path costs one TryLock.
func (sh *corpusShard) lockTimed() {
	if sh.mu.TryLock() {
		return
	}
	t0 := time.Now()
	sh.mu.Lock()
	sh.lockWaitNS.Add(time.Since(t0).Nanoseconds())
}

// noteMutation records a committed mutation of n nodes whose successor
// epoch cost copied bytes to prepare.
func (sh *corpusShard) noteMutation(n int, copied int64) {
	sh.mutations.Add(int64(n))
	sh.cloneBytes.Add(copied)
}

// shardEpoch is one immutable generation of one shard, published as
// part of a corpusView. Readers use the one their view holds for their
// whole query; mutations never edit a published epoch — they splice a
// successor and publish it. Serving counters inside ix are atomic and
// shared across the shard's epochs, so Stats stay continuous through
// publication.
//
// Membership lives in exactly one place per life stage: members before
// the signatures materialize; staged (whose keys are the membership)
// from materialization to the index build — a loaded snapshot, WAL
// replay, or a corpus never queried; from the build on the scan itself,
// the only copy of the shard's items, which shares all but its delta
// with its predecessor's.
type shardEpoch struct {
	members map[NodeID]bool     // pre-materialization node set
	staged  map[NodeID]ned.Item // materialized items awaiting the build
	ix      ned.ItemIndex       // the shard's scan; nil until built
}

// item returns node v's indexed item in this epoch (none before
// materialization).
func (e *shardEpoch) item(v NodeID) (ned.Item, bool) {
	if e.ix != nil {
		return e.ix.Item(v)
	}
	it, ok := e.staged[v]
	return it, ok
}

// has reports whether v is indexed in this epoch.
func (e *shardEpoch) has(v NodeID) bool {
	if e.members != nil {
		return e.members[v]
	}
	_, ok := e.item(v)
	return ok
}

// size is the epoch's indexed node count.
func (e *shardEpoch) size() int {
	switch {
	case e.ix != nil:
		return e.ix.Len()
	case e.staged != nil:
		return len(e.staged)
	}
	return len(e.members)
}

// items iterates the epoch's items in ascending node order (none before
// materialization).
func (e *shardEpoch) items() iter.Seq[ned.Item] {
	if e.ix != nil {
		return e.ix.Items()
	}
	return slices.Values(sortedShardItems(e.staged))
}

// clone returns a mutable copy of an unbuilt epoch: its membership or
// staged items in a fresh map. A built epoch's successor comes from
// splice instead.
func (e *shardEpoch) clone() *shardEpoch {
	if e.members != nil {
		return &shardEpoch{members: maps.Clone(e.members)}
	}
	return &shardEpoch{staged: maps.Clone(e.staged)}
}

// resolveShards normalizes a WithShards value.
func resolveShards(n int) int {
	if n <= 0 {
		return defaultShards()
	}
	return n
}

// newShardedCorpus allocates the shard skeleton and publishes its first
// view, every epoch empty; the caller populates membership (and items,
// for LoadCorpus) in place before the corpus is shared.
func newShardedCorpus(k int, cfg corpusConfig, g *Graph) *Corpus {
	c := &Corpus{k: k, cfg: cfg, exec: ned.NewExecutor(cfg.workers), dict: tree.NewInterner()}
	v := corpusView{g: g}
	for i := 0; i < cfg.shards; i++ {
		v.shards = append(v.shards, &corpusShard{})
		v.eps = append(v.eps, &shardEpoch{members: make(map[NodeID]bool)})
	}
	c.publish(func(nv *corpusView) { *nv = v })
	return c
}

// HashShard is the placement: the shard slot node v hashes to among n.
// A corpus of n shards files every node there for its whole life; tools
// use it to reason about or construct node colocation.
func HashShard(v NodeID, n int) int { return ned.ShardOf(v, n) }

// NewCorpus validates the configuration and returns a query engine over
// g's nodes with neighborhood depth k. Errors are typed: ErrNilGraph,
// ErrBadK, ErrNodeOutOfRange (a WithNodes entry out of range), or
// ErrBadBackend.
func NewCorpus(g *Graph, k int, opts ...CorpusOption) (*Corpus, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadK, k)
	}
	cfg := corpusConfig{backend: BackendPrunedLinear}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.graph = nil // LoadCorpus only
	cfg.shards = resolveShards(cfg.shards)
	if err := cfg.backend.check(); err != nil {
		return nil, err
	}
	members := make(map[NodeID]bool)
	if !cfg.nodesSet {
		for v := 0; v < g.NumNodes(); v++ {
			members[NodeID(v)] = true
		}
	} else {
		for _, v := range cfg.nodes {
			if int(v) < 0 || int(v) >= g.NumNodes() {
				return nil, fmt.Errorf("%w: node %d not in [0, %d)", ErrNodeOutOfRange, v, g.NumNodes())
			}
			members[v] = true
		}
	}
	cfg.nodes = nil
	c := newShardedCorpus(k, cfg, g)
	view := c.view.Load()
	for v := range members {
		view.epochOf(v).members[v] = true
	}
	return c, nil
}

// sortedShardItems returns a shard's live items in ascending node order
// — the deterministic build and snapshot order.
func sortedShardItems(byNode map[NodeID]ned.Item) []ned.Item {
	items := make([]ned.Item, 0, len(byNode))
	for _, it := range byNode {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Node < items[j].Node })
	return items
}

// newShardIndex compiles one shard's index, the cascade scan at width 1
// over its staged items.
func newShardIndex(staged map[NodeID]ned.Item) ned.ItemIndex {
	return ned.NewPrunedLinearBackend(sortedShardItems(staged)).(ned.ItemIndex)
}

// materializeAllLocked extracts the signatures of every member in
// parallel and publishes item-bearing epochs (a no-op once done, and
// for snapshot-loaded corpora, whose items arrived with the snapshot).
// Callers hold gmu for writing.
func (c *Corpus) materializeAllLocked() {
	if c.materialized.Load() {
		return
	}
	v := c.view.Load()
	var nodes []NodeID
	for _, ep := range v.eps {
		for n := range ep.members {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	items := ned.BuildProfiledItems(v.g, nodes, c.k, c.cfg.directed, c.dict, c.cfg.workers)
	eps := make([]*shardEpoch, len(v.eps))
	for i, ep := range v.eps {
		eps[i] = &shardEpoch{staged: make(map[NodeID]ned.Item, len(ep.members))}
	}
	for _, it := range items {
		eps[v.shardOf(it.Node)].staged[it.Node] = it
	}
	c.publish(func(nv *corpusView) { nv.eps = eps })
	c.materialized.Store(true)
}

// buildAllLocked materializes and constructs every shard's index.
// Callers hold gmu for writing.
func (c *Corpus) buildAllLocked() {
	if c.built.Load() {
		return
	}
	c.materializeAllLocked()
	eps := append([]*shardEpoch(nil), c.view.Load().eps...)
	for i, ep := range eps {
		if ep.ix == nil {
			eps[i] = &shardEpoch{ix: newShardIndex(ep.staged)}
		}
	}
	c.publish(func(nv *corpusView) { nv.eps = eps })
	c.built.Store(true)
}

// acquire returns the published view, building lazily on first use.
// The hot path is one atomic load — no locks.
func (c *Corpus) acquire() *corpusView {
	if !c.built.Load() {
		c.gmu.Lock()
		c.buildAllLocked()
		c.gmu.Unlock()
	}
	return c.view.Load()
}

// queryItem validates and converts an external signature query. The
// cascade profile is deliberately NOT compiled here: callers profile
// the item with profileQuery AFTER acquiring the view, because a
// read-only query profile is only valid against items whose shapes
// were interned before it was compiled — which acquire guarantees for
// every item visible in the view it returns (items intern before
// their epoch publishes, and the lazy first build interns the whole
// corpus before this query proceeds).
func (c *Corpus) queryItem(sig Signature) (ned.Item, error) {
	if c.cfg.directed {
		return ned.Item{}, ErrDirectedSignature
	}
	if sig.Tree == nil {
		return ned.Item{}, ErrBadSignature
	}
	if sig.K != c.k {
		return ned.Item{}, fmt.Errorf("%w: signature k=%d, corpus k=%d", ErrKMismatch, sig.K, c.k)
	}
	return sig.Item(), nil
}

// profileQuery compiles a validated query item's cascade profile
// against the corpus dictionary — once per query, after acquire,
// before the sweep, so every shard's candidate filter reads
// the same precompiled bounds.
func (c *Corpus) profileQuery(q *ned.Item) {
	ned.ProfileQueryItem(q, c.dict)
}

// checkUnindexedNode is the one validity gate for node queries that
// miss the index: they need a graph to extract from and an in-range ID.
func checkUnindexedNode(g *Graph, v NodeID) error {
	if g == nil {
		return fmt.Errorf("%w: node %d is not indexed (restore with WithGraph to query arbitrary nodes)", ErrNoGraph, v)
	}
	if int(v) < 0 || int(v) >= g.NumNodes() {
		return fmt.Errorf("%w: node %d not in [0, %d)", ErrNodeOutOfRange, v, g.NumNodes())
	}
	return nil
}

// checkNode validates a node query target without forcing the lazy
// build, so an out-of-range node on a never-queried corpus errors
// immediately instead of paying the full materialization first: indexed
// nodes are always valid; anything else passes checkUnindexedNode.
func (c *Corpus) checkNode(v NodeID) error {
	view := c.view.Load()
	if int(v) >= 0 && view.epochOf(v).has(v) {
		return nil
	}
	return checkUnindexedNode(view.g, v)
}

// nodeItem resolves the query item for a node against an acquired
// view: the cached index item when the node is indexed, a fresh
// extraction from the view's graph otherwise. Snapshot-loaded corpora
// without WithGraph can only query indexed nodes.
func (c *Corpus) nodeItem(view *corpusView, v NodeID) (ned.Item, error) {
	if int(v) >= 0 {
		if it, ok := view.epochOf(v).item(v); ok {
			return it, nil
		}
	}
	if err := checkUnindexedNode(view.g, v); err != nil {
		return ned.Item{}, err
	}
	it := ned.NewItem(view.g, v, c.k, c.cfg.directed)
	ned.ProfileQueryItem(&it, c.dict)
	return it, nil
}

// KNN returns the l indexed nodes most NED-similar to node v of the
// corpus graph, in ascending (distance, node) order. The query node
// itself ranks first at distance 0 when it is part of the corpus.
func (c *Corpus) KNN(ctx context.Context, v NodeID, l int) ([]Neighbor, error) {
	if l < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadL, l)
	}
	// Check before acquire so a dead context or a bad node never pays
	// for the lazy index build.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.checkNode(v); err != nil {
		return nil, err
	}
	view := c.acquire()
	q, err := c.nodeItem(view, v)
	if err != nil {
		return nil, err
	}
	c.queries.Add(1)
	return ned.FanKNN(ctx, c.exec, view.indexes(), q, l)
}

// KNNSignature is KNN for an external query signature — typically a
// node of a different graph, the inter-graph workload NED exists for.
// The signature's k must match the corpus's.
func (c *Corpus) KNNSignature(ctx context.Context, sig Signature, l int) ([]Neighbor, error) {
	if l < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadL, l)
	}
	q, err := c.queryItem(sig)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ixs := c.acquire().indexes()
	c.profileQuery(&q)
	c.queries.Add(1)
	return ned.FanKNN(ctx, c.exec, ixs, q, l)
}

// Range returns every indexed node within NED distance r of the query
// signature, in ascending (distance, node) order.
func (c *Corpus) Range(ctx context.Context, sig Signature, r int) ([]Neighbor, error) {
	if r < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadRadius, r)
	}
	q, err := c.queryItem(sig)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ixs := c.acquire().indexes()
	c.profileQuery(&q)
	c.queries.Add(1)
	return ned.FanRange(ctx, c.exec, ixs, q, r)
}

// NearestSet returns every indexed node at the minimum NED distance
// from the query signature — the "nearest neighbor result set" of
// §13.3, which is rarely a single node because NED's integer distances
// tie (Figure 8a).
func (c *Corpus) NearestSet(ctx context.Context, sig Signature) ([]Neighbor, error) {
	q, err := c.queryItem(sig)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ixs := c.acquire().indexes()
	c.profileQuery(&q)
	c.queries.Add(1)
	best, err := ned.FanKNN(ctx, c.exec, ixs, q, 1)
	if err != nil || len(best) == 0 {
		return nil, err
	}
	// The scan is exact, so the range at the minimum distance is the
	// minimum stratum: nothing sits below it and every tie is inside it.
	return ned.FanRange(ctx, c.exec, ixs, q, best[0].Dist)
}

// BatchKNN answers one KNN query per signature, fanning the queries out
// across the corpus executor's pooled workers (each query in turn fans
// out across the shards). results[i] corresponds to sigs[i]. Cancelling
// ctx aborts the whole batch: queries not yet started are never issued,
// in-flight ones abort at their next distance-loop check, and the
// context error is returned.
func (c *Corpus) BatchKNN(ctx context.Context, sigs []Signature, l int) ([][]Neighbor, error) {
	if l < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBadL, l)
	}
	qs := make([]ned.Item, len(sigs))
	for i, s := range sigs {
		q, err := c.queryItem(s)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ixs := c.acquire().indexes()
	for i := range qs {
		c.profileQuery(&qs[i])
	}
	c.queries.Add(int64(len(sigs)))
	results := make([][]Neighbor, len(sigs))
	errs := make([]error, len(sigs))
	if err := c.exec.Do(ctx, len(sigs), 0, func(i int) {
		results[i], errs[i] = ned.FanKNN(ctx, c.exec, ixs, qs[i], l)
	}); err != nil {
		return nil, err
	}
	for _, qerr := range errs {
		if qerr != nil {
			return nil, qerr
		}
	}
	return results, nil
}

// CorpusStats is a point-in-time snapshot of a corpus's configuration
// and serving counters.
//
// The JSON field names are a stable, versioned schema: the nedserve
// stats endpoint and nedstats -json both serialize this struct, and
// TestCorpusStatsJSONSchema locks the names, so renaming a Go field
// cannot silently break a dashboard scraping the server. Keys leave the
// schema with the code they reported: "rebuilds" and "stale_ratio" with
// the metric trees, "placement_base", "placement_overrides",
// "rebalances", "shard_splits" and "shard_merges" with the placement
// directory, "plan_parallel", "plan_sequential" and "plan_single" with
// the query planner; "backend" is the constant "pruned"
// and "plan_scans" the constant 0 until the benchmark harness stops
// reading them.
type CorpusStats struct {
	// Backend is always BackendPrunedLinear ("pruned"), whatever
	// WithBackend or a snapshot header asked for.
	Backend Backend `json:"backend"`
	// K is the neighborhood depth of every signature in the corpus.
	K int `json:"k"`
	// Directed reports whether distances are the directed NED of Eq. 2.
	Directed bool `json:"directed"`
	// Workers is the configured worker count; 0 means GOMAXPROCS.
	Workers int `json:"workers"`
	// Nodes is the indexed node count, summed across shards.
	Nodes int `json:"nodes"`
	// Shards is the shard count the corpus partitions across.
	Shards int `json:"shards"`
	// Built reports whether the indexes have been materialized yet.
	Built bool `json:"built"`

	// ShardNodes is the indexed node count per shard slot — the
	// partition balance of the splitmix hash.
	ShardNodes []int `json:"shard_nodes"`

	// ShardLockWaitNS, ShardMutations, and ShardCloneBytes are the
	// per-shard-slot write-contention telemetry: nanoseconds mutators
	// spent waiting on the shard write lock, nodes mutated, and bytes of
	// index state copied preparing successors — on a built corpus the
	// scan's new delta, its tombstones and the delta's block, plus the
	// whole rebuilt base when a mutation folds. Monotone for the corpus
	// lifetime — ResetStats leaves them alone so differences of
	// successive readings stay truthful.
	ShardLockWaitNS []int64 `json:"shard_lock_wait_ns"`
	ShardMutations  []int64 `json:"shard_mutations"`
	ShardCloneBytes []int64 `json:"shard_clone_bytes"`

	// PlanScans counted shards a query plan answered by direct scan
	// instead of their tree index; always 0.
	PlanScans int64 `json:"plan_scans"`

	// Queries counts queries served (BatchKNN counts each signature).
	Queries int64 `json:"queries"`
	// DistanceCalls counts TED* evaluations started serving them
	// (including early-exited ones).
	DistanceCalls int64 `json:"distance_calls"`

	// EarlyExits counts TED* evaluations the budget pipeline abandoned
	// mid-computation: the candidate's running cost provably crossed the
	// search threshold (kth-best, tau, or ring radius) before the full
	// O(k·n³) work was spent.
	EarlyExits int64 `json:"early_exits"`
	// LowerBoundPrunes counts candidates dismissed by a precompiled
	// lower bound alone, before any matching work; it always equals
	// SizePrunes + PaddingPrunes + LabelPrunes.
	LowerBoundPrunes int64 `json:"lower_bound_prunes"`

	// SizePrunes, PaddingPrunes, and LabelPrunes break LowerBoundPrunes
	// down by filter-cascade tier, aggregated atomically across shards:
	// the O(1) node-count gap, the per-level padding bound read off two
	// precompiled level-size vectors (including the budgeted TED*'s own
	// padding seed check), and tier 2 (degree sequence): the sorted
	// child counts of every level bound its matching cost. LabelPrunes
	// and label_prunes keep the name of the label-multiset tier that
	// bound replaced. See the README's "Filter cascade" section.
	SizePrunes    int64 `json:"size_prunes"`
	PaddingPrunes int64 `json:"padding_prunes"`
	LabelPrunes   int64 `json:"label_prunes"`

	// BlockCandidates counts candidate slots the scans swept through the
	// columnar block kernels (struct-of-arrays profile arenas) instead
	// of the scalar per-candidate cascade; the survivor
	// counters below report how many of those passed each successive
	// tier — BlockLabelSurvivors passed tier 2 (degree sequence; the
	// name predates it) and reached the verify stage.
	BlockCandidates       int64 `json:"block_candidates"`
	BlockSizeSurvivors    int64 `json:"block_size_survivors"`
	BlockPaddingSurvivors int64 `json:"block_padding_survivors"`
	BlockLabelSurvivors   int64 `json:"block_label_survivors"`

	// SizeHist and DepthHist profile the indexed signatures, computed
	// on demand from the live items (null until materialized):
	// SizeHist[i] counts items whose total signature size (tree nodes,
	// both trees when directed) has bit length i — i.e. lands in
	// [2^(i-1), 2^i) — and DepthHist[d] counts items whose out-tree
	// height is d (bounded by k). Exported for inspection.
	SizeHist  []int64 `json:"size_hist"`
	DepthHist []int64 `json:"depth_hist"`
}

// Stats reports the corpus configuration and serving counters. Safe to
// call concurrently with queries and mutations — it reads one published
// view (so Nodes and ShardNodes count one committed state) and atomic
// counters without locking.
func (c *Corpus) Stats() CorpusStats {
	view := c.view.Load()
	nShards := len(view.shards)
	s := CorpusStats{
		Backend:         BackendPrunedLinear,
		K:               c.k,
		Directed:        c.cfg.directed,
		Workers:         c.cfg.workers,
		Shards:          nShards,
		ShardNodes:      make([]int, nShards),
		ShardLockWaitNS: make([]int64, nShards),
		ShardMutations:  make([]int64, nShards),
		ShardCloneBytes: make([]int64, nShards),
		Built:           c.built.Load(),
		Queries:         c.queries.Load(),
	}
	var counters ned.Counters
	for i, sh := range view.shards {
		ep := view.eps[i]
		s.ShardNodes[i] = ep.size()
		s.Nodes += ep.size()
		s.ShardLockWaitNS[i] = sh.lockWaitNS.Load()
		s.ShardMutations[i] = sh.mutations.Load()
		s.ShardCloneBytes[i] = sh.cloneBytes.Load()
		if ep.ix != nil {
			counters = counters.Add(ep.ix.Counters())
		}
		for it := range ep.items() {
			size := it.Out.Size()
			if it.In != nil {
				size += it.In.Size()
			}
			s.SizeHist = bumpHist(s.SizeHist, bits.Len(uint(size)))
			s.DepthHist = bumpHist(s.DepthHist, it.Out.Height())
		}
	}
	s.DistanceCalls = counters.DistanceCalls
	s.EarlyExits = counters.EarlyExits
	s.LowerBoundPrunes = counters.LowerBoundPrunes
	s.SizePrunes = counters.SizePrunes
	s.PaddingPrunes = counters.PaddingPrunes
	s.LabelPrunes = counters.LabelPrunes
	s.BlockCandidates = counters.BlockCandidates
	s.BlockSizeSurvivors = counters.BlockSizeSurvivors
	s.BlockPaddingSurvivors = counters.BlockPaddingSurvivors
	s.BlockLabelSurvivors = counters.BlockLabelSurvivors
	return s
}

// bumpHist increments histogram bucket i, growing the slice to reach
// it; histograms stay as short as their highest occupied bucket.
func bumpHist(h []int64, i int) []int64 {
	for len(h) <= i {
		h = append(h, 0)
	}
	h[i]++
	return h
}

// ResetStats zeroes the query and distance counters. Each
// shard's accumulator is shared by every epoch of that shard, so the
// reset covers retired generations and epochs still serving in-flight
// queries; like Stats, it takes no locks. The per-shard contention
// counters (lock wait, mutations, clone bytes) are deliberately NOT
// reset: they are monotone totals a scraper differences.
func (c *Corpus) ResetStats() {
	c.queries.Store(0)
	for _, ep := range c.view.Load().eps {
		if ep.ix != nil {
			ep.ix.ResetStats()
		}
	}
}

// HasGraph reports whether a backing graph is attached — the gate for
// Insert, UpdateGraph, Signature, and node-based queries. Corpora
// loaded from a snapshot carry their graph; corpora imported from the
// legacy text formats need WithGraph to re-attach one.
func (c *Corpus) HasGraph() bool { return c.view.Load().g != nil }

// Signature of node v of the corpus graph at the corpus's k — a
// convenience for cross-corpus queries: sig from corpus A's graph, then
// b.KNNSignature(ctx, sig, l).
func (c *Corpus) Signature(v NodeID) (Signature, error) {
	g := c.view.Load().g
	if g == nil {
		return Signature{}, fmt.Errorf("%w: Signature needs the corpus graph", ErrNoGraph)
	}
	if int(v) < 0 || int(v) >= g.NumNodes() {
		return Signature{}, fmt.Errorf("%w: node %d not in [0, %d)", ErrNodeOutOfRange, v, g.NumNodes())
	}
	return NewSignature(g, v, c.k), nil
}
