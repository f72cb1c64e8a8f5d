package ned

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"slices"

	"ned/internal/ned"
	"ned/internal/segment"
)

// Snapshot writes the corpus — its configuration, every live signature
// (mutations included) with its compiled cascade profile, the
// subtree-shape dictionary, and the backing graph when one is attached —
// to w as a NEDSEG01 binary segment (internal/segment), length- and
// checksum-framed, the one corpus format this build writes. LoadCorpus
// restores it without re-extracting or re-profiling anything, and with
// the graph, so the restored corpus can Insert and UpdateGraph exactly
// when this one can. Snapshotting a corpus that has never been queried
// materializes its signatures first (but not the index structures,
// which LoadCorpus rebuilds lazily anyway).
//
// The cut is one published view — the same single snapshot a query
// reads — serialized outside any lock: w may be a slow disk or network
// writer, and queries and mutations keep running for the whole
// transfer. Snapshotting one corpus twice is byte-identical; two equal
// corpora may differ on disk, because the dictionary records shapes in
// interning order and parallel profiling interns in scheduling order.
func (c *Corpus) Snapshot(w io.Writer) error {
	return c.writeSegment(w, c.materializedView())
}

// writeSegment serializes one (materialized) view as a binary segment —
// the body of Snapshot and of every checkpoint.
func (c *Corpus) writeSegment(w io.Writer, v *corpusView) error {
	meta := segment.Meta{Backend: BackendPrunedLinear.String(), K: c.k, Directed: c.cfg.directed}
	return segment.Write(w, meta, c.dict, v.g, segment.Tables(v.ep.items()), nil)
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

// LoadCorpus restores a corpus from a Snapshot stream — the binary
// segment format, recognized by its magic bytes — or imports one of the
// text formats earlier builds wrote: a v2/v3 sharded manifest, a v1
// single-index snapshot, or a legacy WriteSignatures file (which
// predates snapshot metadata and loads undirected, k taken from its
// signatures). Whatever backend a header names — and whatever VP-tree
// dumps or placement directory an older segment or v3 manifest carries
// — the restored corpus serves from the one cascade scan, whatever
// shard count the file records; an unknown backend name is still a
// parse failure. Parse failures wrap ErrBadSnapshot.
//
// The restored corpus answers signature queries — and node queries for
// indexed nodes — identically to the corpus that was snapshotted.
// Options apply on top of the recorded metadata: WithWorkers tunes the
// restored engine, and WithGraph
// re-attaches the backing graph (overriding a segment's embedded one),
// re-enabling Insert, UpdateGraph, Signature, and queries for
// unindexed nodes. WithNodes and WithDirected are ignored: the
// snapshot's items define the node set and directedness.
//
// The text formats carry neither profiles nor graph, so importing one
// recompiles the filter cascade against a fresh dictionary and needs
// WithGraph before it can mutate; segments carry all three.
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
	userGraph, err := applyLoadOptions(&cfg, opts)
	if err != nil {
		return nil, err
	}
	if userGraph != nil {
		g = userGraph
	}
	if err := validateLoadedGraph(cfg, g, slices.Values(items)); err != nil {
		return nil, err
	}
	c := newCorpus(meta.K, cfg, g, &corpusEpoch{})
	// Adopt the segment's dictionary: every loaded profile is expressed
	// against its label IDs. The fresh interner newCorpus made has seen
	// nothing and is safely replaced.
	c.dict = dict
	installLoadedItems(c, items)
	return c, nil
}

// loadTextCorpus imports the text formats (v3/v2/v1/legacy signatures).
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
	g, err := applyLoadOptions(&cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := validateLoadedGraph(cfg, g, slices.Values(items)); err != nil {
		return nil, err
	}
	c := newCorpus(k, cfg, g, &corpusEpoch{})
	// The text formats carry no profiles; compile them against the fresh
	// corpus dictionary so imported corpora serve the same filter cascade
	// as freshly built ones.
	ned.ProfileItems(items, c.dict, cfg.workers)
	installLoadedItems(c, items)
	return c, nil
}

// applyLoadOptions overlays user options onto the snapshot-recorded
// configuration, returning the WithGraph graph (nil if none).
func applyLoadOptions(cfg *corpusConfig, opts []CorpusOption) (*Graph, error) {
	userCfg := corpusConfig{backend: BackendPrunedLinear}
	for _, opt := range opts {
		opt(&userCfg)
	}
	if err := userCfg.backend.check(); err != nil {
		return nil, err
	}
	cfg.workers = userCfg.workers
	return userCfg.graph, nil
}

// validateLoadedGraph checks a restored item set against the graph the
// corpus will serve with (which may be nil: signature-only corpora).
func validateLoadedGraph(cfg corpusConfig, g *Graph, items iter.Seq[ned.Item]) error {
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
	for it := range items {
		if int(it.Node) < 0 || int(it.Node) >= g.NumNodes() {
			return fmt.Errorf("%w: snapshot node %d not in the attached graph's [0, %d)",
				ErrNodeOutOfRange, it.Node, g.NumNodes())
		}
	}
	return nil
}

// installLoadedItems stages the restored items; the scan compiles
// lazily over them.
func installLoadedItems(c *Corpus, items []ned.Item) {
	// The snapshot's items arrive pre-materialized: the staging table's
	// keys are the membership.
	staged := make(map[NodeID]ned.Item, len(items))
	for _, it := range items {
		staged[it.Node] = it
	}
	c.view.Load().ep.staged = staged
	c.materialized.Store(true)
}
