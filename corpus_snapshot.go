package ned

import (
	"bufio"
	"fmt"
	"io"

	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/vptree"
)

// Snapshot writes the corpus — its configuration and every live
// signature, mutations included — to w as a versioned "# ned corpus v2"
// sharded manifest (internal/ned/persist): one section per shard,
// node-ascending within each, so LoadCorpus can restore it without
// re-extracting a single BFS tree. While the placement is still the
// hash seed layout the header stays "v2" and equal corpora with equal
// shard counts are byte-identical on disk; a rebalanced corpus writes
// a "v3" header carrying its placement directory so it restores into
// the same layout. Snapshotting a corpus that has never been queried
// materializes its signatures first (but not the index structures,
// which LoadCorpus rebuilds lazily anyway).
//
// The cut is one published view — the same single snapshot a query
// reads — serialized outside any lock: w may be a slow disk or network
// writer, and queries and mutations keep running for the whole
// transfer. Undirected snapshots double as plain signature files:
// ReadSignatures parses them (section markers are comments), and
// LoadCorpus parses legacy signature files in turn.
func (c *Corpus) Snapshot(w io.Writer) error {
	v := c.materializedView()
	meta := ned.CorpusMeta{
		Version:  2,
		Backend:  c.cfg.backend.String(),
		K:        c.k,
		Directed: c.cfg.directed,
		Shards:   len(v.shards),
		Place:    v.place,
	}
	return ned.WriteShardedCorpusItems(w, meta, v.shardItems())
}

// SnapshotSegment writes the corpus to w as a binary segment
// (internal/segment): the same consistent cut as Snapshot, but carrying
// the compiled cascade profiles, the subtree-shape dictionary, the
// backing graph (when attached), and — on a VP-backed corpus whose
// indexes have been built — each shard's vantage-point tree structure,
// length- and checksum-framed. LoadCorpus restores it — the format is
// sniffed from the first bytes — without re-extracting, re-profiling,
// or (when the index dumps are present) re-indexing anything, which is
// what makes binary restarts fast; the price is a format that is
// neither human-readable nor diff-friendly. Snapshotting one corpus
// twice is byte-identical; unlike Snapshot, two equal corpora may
// differ on disk, because the dictionary records shapes in interning
// order and parallel profiling interns in scheduling order.
func (c *Corpus) SnapshotSegment(w io.Writer) error {
	return c.writeSegment(w, c.materializedView())
}

// writeSegment serializes one (materialized) view as a binary segment —
// the body of SnapshotSegment and of every checkpoint.
func (c *Corpus) writeSegment(w io.Writer, v *corpusView) error {
	meta := segment.Meta{Backend: c.cfg.backend.String(), K: c.k, Directed: c.cfg.directed, Place: v.place}
	return segment.Write(w, meta, c.dict, v.g, v.shardItems(), shardIndexDumps(v.eps))
}

// shardItems is every shard's live items in ascending node order — the
// deterministic persistence order.
func (v *corpusView) shardItems() [][]ned.Item {
	items := make([][]ned.Item, len(v.eps))
	for i, ep := range v.eps {
		items[i] = sortedShardItems(ep.byNode)
	}
	return items
}

// materializedView returns the published view, materializing the
// signatures first on a corpus that has never been queried.
func (c *Corpus) materializedView() *corpusView {
	if !c.materialized.Load() {
		c.gmu.Lock()
		c.materializeAllLocked()
		c.gmu.Unlock()
	}
	return c.view.Load()
}

// shardIndexDumps exports every shard's built VP-tree index for
// persistence. It returns nil — no index sections at all — unless at
// least one shard has a dump worth carrying: a built, tombstone-free
// VP backend (scan backends rebuild for free, and a tombstoned tree
// references items the snapshot no longer holds; either way those
// shards rebuild lazily on first query, exactly as they would have
// without index sections).
func shardIndexDumps(eps []*shardEpoch) []segment.VPIndex {
	dumps := make([]segment.VPIndex, len(eps))
	any := false
	for i, ep := range eps {
		if ep.ix == nil {
			continue
		}
		nodes, tail, ok := ned.ExportVPBackend(ep.ix)
		if !ok {
			continue
		}
		vix := &dumps[i]
		vix.Nodes = make([]segment.VPNode, len(nodes))
		for j := range nodes {
			e := &nodes[j]
			vix.Nodes[j] = segment.VPNode{
				Node:   e.Item.Node,
				Radius: e.Radius,
				Inside: e.Inside,
				Beyond: e.Beyond,
			}
		}
		vix.Tail = make([]NodeID, len(tail))
		for j := range tail {
			vix.Tail[j] = tail[j].Node
		}
		any = any || len(vix.Nodes)+len(vix.Tail) > 0
	}
	if !any {
		return nil
	}
	return dumps
}

// LoadCorpus restores a corpus from a Snapshot or SnapshotSegment
// stream — the binary segment format (recognized by its magic bytes),
// a v2 sharded manifest, a v1 single-index snapshot, or a legacy
// WriteSignatures file (which predates snapshot metadata and loads
// with the default backend, undirected, k taken from its signatures).
// Parse failures wrap ErrBadSnapshot. The recorded shard count is the
// default, and a rebalanced corpus's recorded placement directory is
// restored with it, so the corpus comes back in the layout it was
// saved in. WithShards overrides both: under a different count the
// recorded placement is dropped and the items re-hash into the seed
// layout, so any snapshot loads into any shard count. v1/legacy files
// record neither and spread across the standard GOMAXPROCS-derived
// default.
//
// The restored corpus answers signature queries — and node queries for
// indexed nodes — identically to the corpus that was snapshotted.
// Options apply on top of the recorded metadata: WithBackend overrides
// the recorded backend, WithWorkers, WithShards, and
// WithRebuildThreshold tune the restored engine, and WithGraph
// re-attaches the backing graph (overriding a segment's embedded one),
// re-enabling Insert, UpdateGraph, Signature, and queries for
// unindexed nodes. WithNodes and WithDirected are ignored: the
// snapshot's items define the node set and directedness.
//
// Text snapshots carry no profiles, so loading one recompiles the
// filter cascade against a fresh dictionary; binary segments carry
// profiles and dictionary both, and skip that work entirely.
func LoadCorpus(r io.Reader, opts ...CorpusOption) (*Corpus, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, _ := br.Peek(len(segment.Magic))
	if segment.IsSegment(prefix) {
		return loadSegmentCorpus(br, opts...)
	}
	return loadTextCorpus(br, opts...)
}

// loadSegmentCorpus restores a binary segment stream: the dictionary
// and compiled profiles are adopted as-is.
func loadSegmentCorpus(r io.Reader, opts ...CorpusOption) (*Corpus, error) {
	meta, items, dict, g, indexes, err := segment.Read(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	cfg := corpusConfig{rebuildAt: defaultRebuildThreshold, directed: meta.Directed}
	if cfg.backend, err = ParseBackend(meta.Backend); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if meta.K < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSnapshot, meta.K)
	}
	userGraph := applyLoadOptions(&cfg, meta.Shards, opts)
	if cfg.backend < 0 || cfg.backend >= numBackends {
		return nil, fmt.Errorf("%w: %d", ErrBadBackend, int(cfg.backend))
	}
	if userGraph != nil {
		g = userGraph
	}
	if err := validateLoadedGraph(cfg, g, items); err != nil {
		return nil, err
	}
	c := newShardedCorpus(meta.K, cfg, g)
	// Adopt the segment's dictionary: every loaded profile is expressed
	// against its label IDs. The fresh interner newShardedCorpus made
	// has seen nothing and is safely replaced.
	c.dict = dict
	installPlacement(c, meta.Place)
	installLoadedItems(c, items)
	// Restore persisted VP indexes — but only when they still describe
	// this corpus: the engine must run the VP backend (WithBackend may
	// have overridden it) with the snapshot's own shard count (index
	// dumps are per-shard; a different count re-partitions the items).
	// Otherwise the dumps are silently dropped and shards build lazily,
	// exactly as a dump-free segment would.
	if indexes != nil && cfg.backend == BackendVP && cfg.shards == meta.Shards {
		if err := restoreShardIndexes(c, indexes); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
	}
	return c, nil
}

// restoreShardIndexes rebuilds each shard's VP backend from its
// persisted structure dump — no metric evaluations, just resolving
// node references against the freshly installed item tables. A dump
// must cover its shard's items exactly (every node referenced once);
// anything else means the segment's sections disagree with each other,
// which is corruption and fails loudly. Runs during load, before the
// corpus is shared, so storing into the live epochs is safe.
func restoreShardIndexes(c *Corpus, indexes []segment.VPIndex) error {
	eps := c.view.Load().eps
	for si := range indexes {
		ix := &indexes[si]
		if len(ix.Nodes) == 0 && len(ix.Tail) == 0 {
			continue
		}
		ep := eps[si]
		if got := len(ix.Nodes) + len(ix.Tail); got != len(ep.byNode) {
			return fmt.Errorf("segment: shard %d index references %d items, shard holds %d", si, got, len(ep.byNode))
		}
		seen := make(map[NodeID]bool, len(ep.byNode))
		resolve := func(v NodeID) (ned.Item, error) {
			it, ok := ep.byNode[v]
			if !ok {
				return ned.Item{}, fmt.Errorf("segment: shard %d index references node %d, which the shard does not hold", si, v)
			}
			if seen[v] {
				return ned.Item{}, fmt.Errorf("segment: shard %d index references node %d twice", si, v)
			}
			seen[v] = true
			return it, nil
		}
		nodes := make([]vptree.ExportNode[ned.Item], len(ix.Nodes))
		for i := range ix.Nodes {
			n := &ix.Nodes[i]
			it, err := resolve(n.Node)
			if err != nil {
				return err
			}
			nodes[i] = vptree.ExportNode[ned.Item]{Item: it, Radius: n.Radius, Inside: n.Inside, Beyond: n.Beyond}
		}
		tail := make([]ned.Item, len(ix.Tail))
		for i, v := range ix.Tail {
			it, err := resolve(v)
			if err != nil {
				return err
			}
			tail[i] = it
		}
		backend, err := ned.NewVPBackendFromExport(nodes, tail)
		if err != nil {
			return fmt.Errorf("segment: shard %d index: %w", si, err)
		}
		ep.ix = backend
	}
	return nil
}

// loadTextCorpus restores the text formats (v2/v1/legacy signatures).
func loadTextCorpus(r io.Reader, opts ...CorpusOption) (*Corpus, error) {
	meta, items, err := ned.ReadCorpusItems(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	cfg := corpusConfig{backend: BackendPrunedLinear, rebuildAt: defaultRebuildThreshold}
	k := meta.K
	if meta.Version >= 1 {
		if cfg.backend, err = ParseBackend(meta.Backend); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		cfg.directed = meta.Directed
	} else {
		// Legacy signature file: derive k from the signatures themselves.
		if len(items) == 0 {
			return nil, fmt.Errorf("%w: no signatures in input", ErrBadSnapshot)
		}
		k = items[0].K
		for _, it := range items {
			if it.K != k {
				return nil, fmt.Errorf("%w: mixed k values %d and %d (a corpus has one k)", ErrBadSnapshot, k, it.K)
			}
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSnapshot, k)
	}
	g := applyLoadOptions(&cfg, meta.Shards, opts)
	if cfg.backend < 0 || cfg.backend >= numBackends {
		return nil, fmt.Errorf("%w: %d", ErrBadBackend, int(cfg.backend))
	}
	if err := validateLoadedGraph(cfg, g, items); err != nil {
		return nil, err
	}
	c := newShardedCorpus(k, cfg, g)
	// The text formats carry no profiles (they predate them and stay
	// diff-friendly); recompile them against the fresh corpus
	// dictionary so restored corpora serve the same filter cascade as
	// freshly built ones.
	ned.ProfileItems(items, c.dict, cfg.workers)
	installPlacement(c, meta.Place)
	installLoadedItems(c, items)
	return c, nil
}

// installPlacement adopts a snapshot-recorded placement directory into
// the (not yet shared) corpus. Dropped silently when the restored
// engine's shard count differs from the recorded layout's — WithShards
// overrides the placement just as it always overrode the recorded
// count, and the items rehash into the seed layout instead.
func installPlacement(c *Corpus, place *ned.Placement) {
	if place == nil || place.Trivial() {
		return
	}
	if place.Shards != len(c.view.Load().shards) {
		return
	}
	c.publish(func(nv *corpusView) { nv.place = place })
}

// applyLoadOptions overlays user options onto the snapshot-recorded
// configuration, returning the WithGraph graph (nil if none).
func applyLoadOptions(cfg *corpusConfig, metaShards int, opts []CorpusOption) *Graph {
	userCfg := corpusConfig{backend: cfg.backend, rebuildAt: cfg.rebuildAt}
	for _, opt := range opts {
		opt(&userCfg)
	}
	cfg.backend = userCfg.backend
	cfg.workers = userCfg.workers
	cfg.rebuildAt = userCfg.rebuildAt
	if cfg.rebuildAt <= 0 {
		cfg.rebuildAt = defaultRebuildThreshold
	}
	cfg.shards = userCfg.shards
	if cfg.shards <= 0 {
		cfg.shards = metaShards // 0 for v0/v1: fall through to the default
	}
	cfg.shards = resolveShards(cfg.shards)
	return userCfg.graph
}

// validateLoadedGraph checks a restored item set against the graph the
// corpus will serve with (which may be nil: signature-only corpora).
func validateLoadedGraph(cfg corpusConfig, g *Graph, items []ned.Item) error {
	if g == nil {
		return nil
	}
	// A directed corpus restored onto an undirected graph would
	// extract In==Out signatures for every later Insert, silently
	// diverging from the snapshot's true directed signatures — fail
	// fast instead, like UpdateGraph's directedness check. (The
	// reverse — an undirected-NED corpus over a directed graph — is
	// a legitimate combination NewCorpus accepts.)
	if cfg.directed && !g.Directed() {
		return fmt.Errorf("%w: directed snapshot needs a directed graph", ErrBadSnapshot)
	}
	for _, it := range items {
		if int(it.Node) < 0 || int(it.Node) >= g.NumNodes() {
			return fmt.Errorf("%w: snapshot node %d not in the attached graph's [0, %d)",
				ErrNodeOutOfRange, it.Node, g.NumNodes())
		}
	}
	return nil
}

// installLoadedItems seeds every shard with a materialized item table
// and files the restored items through the placement table (the hash
// seed layout unless installPlacement adopted a recorded directory).
func installLoadedItems(c *Corpus, items []ned.Item) {
	// The snapshot's items arrive pre-materialized: give every shard a
	// non-nil item table (its keys are the membership) up front.
	v := c.view.Load()
	for _, ep := range v.eps {
		ep.members = nil
		ep.byNode = make(map[NodeID]ned.Item)
	}
	for _, it := range items {
		v.epochOf(it.Node).byNode[it.Node] = it
	}
	c.noteAvgSig(items)
	c.materialized.Store(true)
}
