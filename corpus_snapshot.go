package ned

import (
	"bufio"
	"fmt"
	"io"

	"ned/internal/ned"
	"ned/internal/segment"
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
		Backend:  BackendPrunedLinear.String(),
		K:        c.k,
		Directed: c.cfg.directed,
		Shards:   len(v.shards),
		Place:    v.place,
	}
	return ned.WriteShardedCorpusItems(w, meta, v.shardItems())
}

// SnapshotSegment writes the corpus to w as a binary segment
// (internal/segment): the same consistent cut as Snapshot, but carrying
// the compiled cascade profiles, the subtree-shape dictionary, and the
// backing graph (when attached), length- and checksum-framed.
// LoadCorpus restores it — the format is sniffed from the first bytes —
// without re-extracting or re-profiling anything, which is what makes
// binary restarts fast; the price is a format that is
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
	meta := segment.Meta{Backend: BackendPrunedLinear.String(), K: c.k, Directed: c.cfg.directed, Place: v.place}
	return segment.Write(w, meta, c.dict, v.g, v.shardItems(), nil)
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

// LoadCorpus restores a corpus from a Snapshot or SnapshotSegment
// stream — the binary segment format (recognized by its magic bytes),
// a v2 sharded manifest, a v1 single-index snapshot, or a legacy
// WriteSignatures file (which predates snapshot metadata and loads
// undirected, k taken from its signatures). Whatever backend a header
// names — and whatever VP-tree dumps an older segment carries — the
// restored corpus serves from the cascade scan; an unknown backend name
// is still a parse failure.
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
// Options apply on top of the recorded metadata: WithWorkers and
// WithShards tune the restored engine, and WithGraph
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
	// Index dumps an older segment carries are framed and checksummed by
	// Read like every section, then dropped: the scan has nothing to
	// restore.
	meta, items, dict, g, _, err := segment.Read(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	cfg := corpusConfig{directed: meta.Directed}
	if _, err = ParseBackend(meta.Backend); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	if meta.K < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadSnapshot, meta.K)
	}
	userGraph, err := applyLoadOptions(&cfg, meta.Shards, opts)
	if err != nil {
		return nil, err
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
	return c, nil
}

// loadTextCorpus restores the text formats (v2/v1/legacy signatures).
func loadTextCorpus(r io.Reader, opts ...CorpusOption) (*Corpus, error) {
	meta, items, err := ned.ReadCorpusItems(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	var cfg corpusConfig
	k := meta.K
	if meta.Version >= 1 {
		if _, err = ParseBackend(meta.Backend); err != nil {
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
	g, err := applyLoadOptions(&cfg, meta.Shards, opts)
	if err != nil {
		return nil, err
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
func applyLoadOptions(cfg *corpusConfig, metaShards int, opts []CorpusOption) (*Graph, error) {
	userCfg := corpusConfig{backend: BackendPrunedLinear}
	for _, opt := range opts {
		opt(&userCfg)
	}
	if err := userCfg.backend.check(); err != nil {
		return nil, err
	}
	cfg.workers = userCfg.workers
	cfg.shards = userCfg.shards
	if cfg.shards <= 0 {
		cfg.shards = metaShards // 0 for v0/v1: fall through to the default
	}
	cfg.shards = resolveShards(cfg.shards)
	return userCfg.graph, nil
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
