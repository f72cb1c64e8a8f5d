package ned

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/bits"
	"slices"
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
	// parse: corrupt input, a format other than NEDSEG03, or metadata
	// disagreeing with the items.
	ErrBadSnapshot = errors.New("ned: bad corpus snapshot")
	// ErrLegacyFormat reports a corpus an earlier build wrote — a
	// NEDSEG01 or NEDSEG02 segment or a text manifest — which no longer
	// loads; `nedstats -upgrade` converts it to NEDSEG03. LoadCorpus wraps it in
	// ErrBadSnapshot.
	ErrLegacyFormat = errors.New("ned: legacy corpus format; convert it with nedstats -upgrade")
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
	// BackendLinear named the cascade scan spread over several sweepers.
	//
	// Deprecated: accepted and ignored; the Corpus serves from the
	// cascade scan.
	BackendLinear
	// BackendPrunedLinear names the cascade scan (§10) every Corpus
	// serves from: one best-first sweep by lower bound, skipping the
	// candidates the bounds prove out of range.
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

// CorpusOption configures a Corpus at construction.
type CorpusOption func(*corpusConfig)

type corpusConfig struct {
	backend  Backend // validated at construction, never read after; see WithBackend
	workers  int
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

// WithWorkers sets the worker pool size used for the parallel build of
// a corpus's rows, a query's sweepers, and BatchKNN.
// Values <= 0 (the default) mean GOMAXPROCS.
func WithWorkers(n int) CorpusOption {
	return func(c *corpusConfig) { c.workers = n }
}

// WithShards used to set how many hash shards the corpus partitioned
// its nodes across.
//
// Deprecated: accepted and ignored. A corpus is one scan — an immutable
// base plus a delta and tombstone list under one write lock — and
// Stats().Shards reports 1. The option stays until the benchmark
// harness is folded into the module (ROADMAP item 1(b)).
func WithShards(int) CorpusOption {
	return func(*corpusConfig) {}
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
// §13.3–13.4 behind a single API, served from one cascade scan. Build
// one with NewCorpus (or restore one with LoadCorpus); all methods may
// be called concurrently.
//
// Read consistency: every query observes exactly one committed prefix
// of mutation calls; publish order = WAL order. The whole corpus — the
// backing graph and the scan's items — is published as one immutable
// view through a single atomic pointer. A query loads that pointer once
// and answers from what it loaded. Every mutation call (Insert, Remove,
// UpdateGraph) prepares a private successor view and publishes it with
// one pointer store, so a call is visible whole or not at all, to
// queries and to Stats alike. A mutation never blocks queries —
// in-flight readers keep the view they loaded.
//
// A corpus is built when it is made: NewCorpus extracts every indexed
// node's row, in parallel, and makes the scan of them before it
// returns, and LoadCorpus and OpenDurable restore the scan whole, so
// the first query is served like any other.
//
// A Corpus is dynamic: Insert and Remove churn the indexed node set
// with live index maintenance (the scan takes a new delta, folded into
// its base once it grows), UpdateGraph follows the graph through
// version changes re-extracting only the signatures an edit actually
// affected, and Snapshot/LoadCorpus persist the built index across
// processes. Results after any mutation sequence are identical to a
// freshly built corpus over the same live nodes.
type Corpus struct {
	k   int
	cfg corpusConfig

	// gmu orders graph versions against the other mutators: UpdateGraph
	// takes the write side, which excludes every mutator. Insert and
	// Remove hold the read side for their whole span, so the graph
	// version cannot move underneath them. Queries never touch gmu;
	// Stats and ResetStats are entirely atomic.
	gmu sync.RWMutex

	// wmu is the one write lock: Insert and Remove take it, under gmu's
	// read side, around splice, WAL append and publish. Signature
	// extraction runs before it, so writers queue only for the splice.
	wmu sync.Mutex

	// view is the published corpus. Every store to it after the corpus
	// is shared runs under either gmu's write side or wmu (whose holders
	// hold gmu's read side), so no two stores race and each successor is
	// prepared from the view it replaces.
	view atomic.Pointer[corpusView]

	// Write-contention counters, monotone for the corpus lifetime
	// (ResetStats leaves them alone, so a scraper can difference
	// successive readings): nanoseconds mutators spent waiting for wmu,
	// mutated-node count, and bytes copied preparing successor epochs
	// (see splice).
	lockWaitNS atomic.Int64
	mutations  atomic.Int64
	cloneBytes atomic.Int64

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
	// every version; it grows only with the shapes of indexed signatures,
	// never with what is queried against it.
	dict *tree.Interner

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

// corpusView is one published version of the whole corpus: the graph
// and the scan, the only copy of its rows. Immutable once published:
// mutations never edit a published scan — they splice a successor,
// which shares all but its delta, and publish it in a new view. Serving
// counters inside the scan are atomic and shared by every successor, so
// Stats stay continuous through publication.
type corpusView struct {
	g    *Graph    // nil for snapshot-loaded corpora without WithGraph
	scan *ned.Scan // the rows in this version
}

// lockWrites is wmu.Lock with the wait time accounted to lockWaitNS;
// the uncontended path costs one TryLock.
func (c *Corpus) lockWrites() {
	if c.wmu.TryLock() {
		return
	}
	t0 := time.Now()
	c.wmu.Lock()
	c.lockWaitNS.Add(time.Since(t0).Nanoseconds())
}

// nodesOf iterates a scan's indexed nodes in ascending order.
func nodesOf(scan *ned.Scan) iter.Seq[NodeID] {
	return func(yield func(NodeID) bool) {
		for it := range scan.Items() {
			if !yield(it.Node) {
				return
			}
		}
	}
}

// newCorpus allocates a corpus over rows, labelled against dict, and
// publishes its first view.
func newCorpus(k int, cfg corpusConfig, g *Graph, dict *tree.Interner, rows *ned.Rows) *Corpus {
	c := &Corpus{k: k, cfg: cfg, exec: ned.NewExecutor(cfg.workers), dict: dict}
	c.view.Store(&corpusView{g: g, scan: ned.NewScan(rows, 1)})
	return c
}

// NewCorpus validates the configuration and returns a query engine over
// g's nodes with neighborhood depth k, built: every indexed node's row
// is extracted, in parallel on the WithWorkers pool, and scanned before
// it returns. Errors are typed: ErrNilGraph, ErrBadK, ErrNodeOutOfRange
// (a WithNodes entry out of range), or ErrBadBackend.
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
	if err := cfg.backend.check(); err != nil {
		return nil, err
	}
	nodes := cfg.nodes
	if !cfg.nodesSet {
		nodes = make([]NodeID, g.NumNodes())
		for v := range nodes {
			nodes[v] = NodeID(v)
		}
	}
	for _, v := range nodes {
		if int(v) < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("%w: node %d not in [0, %d)", ErrNodeOutOfRange, v, g.NumNodes())
		}
	}
	slices.Sort(nodes) // WithNodes made nodes a copy
	nodes = slices.Compact(nodes)
	cfg.nodes = nil
	dict := tree.NewInterner()
	rows := ned.BuildRanked(g, nodes, k, cfg.directed, dict, cfg.workers)
	return newCorpus(k, cfg, g, dict, rows), nil
}

// queryItem validates and converts an external signature query. The
// cascade profile is deliberately NOT compiled here: callers profile
// the item with profileQuery AFTER loading the view, because a
// read-only query profile is only valid against items whose shapes
// were interned before it was compiled — which holds for every item
// visible in a loaded view (items intern before their view publishes).
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
// against the corpus dictionary — once per query, after loading the
// view, before the sweep.
func (c *Corpus) profileQuery(q *ned.Item) {
	ned.ProfileQueryItem(q, c.dict)
}

// nodeItem resolves the query item for a node against a loaded view:
// the indexed row's item when the node is indexed, otherwise a fresh
// extraction from the view's graph, which needs a graph and an
// in-range ID. Snapshot-loaded corpora without WithGraph can only query
// indexed nodes.
func (c *Corpus) nodeItem(view *corpusView, v NodeID) (ned.Item, error) {
	if it, ok := view.scan.Item(v); ok {
		return it, nil
	}
	g := view.g
	if g == nil {
		return ned.Item{}, fmt.Errorf("%w: node %d is not indexed (restore with WithGraph to query arbitrary nodes)", ErrNoGraph, v)
	}
	if int(v) < 0 || int(v) >= g.NumNodes() {
		return ned.Item{}, fmt.Errorf("%w: node %d not in [0, %d)", ErrNodeOutOfRange, v, g.NumNodes())
	}
	it := ned.NewItem(g, v, c.k, c.cfg.directed)
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
	// Check before extracting, so a dead context never pays for an
	// unindexed node's tree.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	view := c.view.Load()
	q, err := c.nodeItem(view, v)
	if err != nil {
		return nil, err
	}
	c.queries.Add(1)
	return c.knn(ctx, view, q, l)
}

// knn is one best-first sweep over the view's scan, on up to the
// executor's width of sweepers.
func (c *Corpus) knn(ctx context.Context, view *corpusView, q ned.Item, l int) ([]Neighbor, error) {
	return ned.FanKNN(ctx, c.exec, []ned.Index{view.scan}, q, l)
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
	view := c.view.Load()
	c.profileQuery(&q)
	c.queries.Add(1)
	return c.knn(ctx, view, q, l)
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
	scan := c.view.Load().scan
	c.profileQuery(&q)
	c.queries.Add(1)
	return scan.Range(ctx, q, r)
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
	view := c.view.Load()
	c.profileQuery(&q)
	c.queries.Add(1)
	best, err := c.knn(ctx, view, q, 1)
	if err != nil || len(best) == 0 {
		return nil, err
	}
	// The scan is exact, so the range at the minimum distance is the
	// minimum stratum: nothing sits below it and every tie is inside it.
	return view.scan.Range(ctx, q, best[0].Dist)
}

// BatchKNN answers one KNN query per signature, fanning the queries out
// across the corpus executor's pooled workers. results[i] corresponds to
// sigs[i]. Cancelling ctx aborts the whole batch: queries not yet
// started are never issued, in-flight ones abort at their next
// distance-loop check, and the context error is returned.
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
	view := c.view.Load()
	for i := range qs {
		c.profileQuery(&qs[i])
	}
	c.queries.Add(int64(len(sigs)))
	results := make([][]Neighbor, len(sigs))
	errs := make([]error, len(sigs))
	if err := c.exec.Do(ctx, len(sigs), 0, func(i int) {
		results[i], errs[i] = c.knn(ctx, view, qs[i], l)
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
	// Nodes is the indexed node count.
	Nodes int `json:"nodes"`
	// Shards is always 1.
	//
	// Deprecated: a corpus has no shards. The field keeps its JSON name
	// until the benchmark harness is folded into the module (ROADMAP
	// item 1(b)).
	Shards int `json:"shards"`
	// Built is always true: a corpus is built when NewCorpus,
	// LoadCorpus or OpenDurable returns it. The field keeps its JSON
	// name, which the stats schema pins.
	Built bool `json:"built"`

	// ShardNodes is one element, Nodes.
	//
	// Deprecated: read Nodes. Kept, with its JSON name, until the
	// benchmark harness is folded into the module (ROADMAP item 1(b)).
	ShardNodes []int `json:"shard_nodes"`

	// ShardLockWaitNS, ShardMutations, and ShardCloneBytes are the
	// write-contention telemetry, one element each: nanoseconds mutators
	// spent waiting on the corpus write lock, nodes mutated, and bytes of
	// index state copied preparing successors — on a built corpus the
	// scan's new delta, its tombstones and the delta's block, plus the
	// whole rebuilt base when a mutation folds. Monotone for the corpus
	// lifetime — ResetStats leaves them alone so differences of
	// successive readings stay truthful.
	//
	// Deprecated: each keeps its one-element form and JSON name until
	// the benchmark harness is folded into the module (ROADMAP item
	// 1(b)).
	ShardLockWaitNS []int64 `json:"shard_lock_wait_ns"`
	// ShardMutations is nodes mutated; see ShardLockWaitNS.
	//
	// Deprecated: see ShardLockWaitNS.
	ShardMutations []int64 `json:"shard_mutations"`
	// ShardCloneBytes is bytes copied preparing successor epochs; see
	// ShardLockWaitNS.
	//
	// Deprecated: see ShardLockWaitNS.
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
	// down by filter-cascade tier:
	// the O(1) node-count gap, the per-level padding bound read off two
	// precompiled level-size vectors (including the budgeted TED*'s own
	// padding seed check), and tier 2 (degree sequence): the sorted
	// child counts of every level bound its matching cost. LabelPrunes
	// and label_prunes keep the name of the label-multiset tier that
	// bound replaced. See the README's "Filter cascade" section.
	SizePrunes    int64 `json:"size_prunes"`
	PaddingPrunes int64 `json:"padding_prunes"`
	LabelPrunes   int64 `json:"label_prunes"`

	// BlockCandidates counts the live candidates of the scan's queries;
	// the survivor counters below report how many of those passed each
	// successive tier — BlockLabelSurvivors passed tier 2 (degree
	// sequence; the name predates it) and reached the verify stage.
	BlockCandidates       int64 `json:"block_candidates"`
	BlockSizeSurvivors    int64 `json:"block_size_survivors"`
	BlockPaddingSurvivors int64 `json:"block_padding_survivors"`
	BlockLabelSurvivors   int64 `json:"block_label_survivors"`

	// RowsBound counts the rows whose size and padding bounds the
	// queries' block kernels computed: the rows of each query's size
	// window (see the README's "Evaluation order"). The candidates
	// outside it are dismissed by size unbounded.
	RowsBound int64 `json:"rows_bound"`

	// HungarianCells and VerifyLevels count the verify stage's work:
	// the cells of the cost matrices its TED* computations handed the
	// Hungarian solver (n² for an n×n matching), and the tree levels
	// they swept, the one an evaluation stopped at included.
	HungarianCells int64 `json:"hungarian_cells"`
	VerifyLevels   int64 `json:"verify_levels"`

	// SizeHist and DepthHist profile the indexed signatures, computed
	// on demand from the live rows (null for an empty corpus):
	// SizeHist[i] counts items whose total signature size (tree nodes,
	// both trees when directed) has bit length i — i.e. lands in
	// [2^(i-1), 2^i) — and DepthHist[d] counts items whose out-tree
	// height is d (bounded by k). Exported for inspection.
	SizeHist  []int64 `json:"size_hist"`
	DepthHist []int64 `json:"depth_hist"`
}

// Stats reports the corpus configuration and serving counters. Safe to
// call concurrently with queries and mutations — it reads one published
// view (so Nodes counts one committed state) and atomic counters without
// locking.
func (c *Corpus) Stats() CorpusStats {
	scan := c.view.Load().scan
	n := scan.Len()
	s := CorpusStats{
		Backend:         BackendPrunedLinear,
		K:               c.k,
		Directed:        c.cfg.directed,
		Workers:         c.cfg.workers,
		Nodes:           n,
		Shards:          1,
		ShardNodes:      []int{n},
		ShardLockWaitNS: []int64{c.lockWaitNS.Load()},
		ShardMutations:  []int64{c.mutations.Load()},
		ShardCloneBytes: []int64{c.cloneBytes.Load()},
		Built:           true,
		Queries:         c.queries.Load(),
	}
	counters := scan.Counters()
	for r := range scan.Rows() {
		s.SizeHist = bumpHist(s.SizeHist, bits.Len(uint(r.Size)))
		s.DepthHist = bumpHist(s.DepthHist, r.Height)
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
	s.RowsBound = counters.RowsBound
	s.HungarianCells = counters.HungarianCells
	s.VerifyLevels = counters.VerifyLevels
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

// ResetStats zeroes the query and distance counters. The scan's
// accumulator is shared by every successor, so the reset covers retired
// versions and versions still serving in-flight queries; like Stats,
// it takes no locks. The contention counters (lock wait, mutations,
// clone bytes) are deliberately NOT reset: they are monotone totals a
// scraper differences.
func (c *Corpus) ResetStats() {
	c.queries.Store(0)
	c.view.Load().scan.ResetStats()
}

// HasGraph reports whether a backing graph is attached — the gate for
// Insert, UpdateGraph, Signature, and node-based queries. Corpora
// loaded from a snapshot carry their graph when it does; one converted
// from a text corpus (nedstats -upgrade) needs WithGraph to re-attach one.
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
