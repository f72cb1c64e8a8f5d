package ned

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"iter"
	"slices"

	"ned/internal/segment"
)

// Snapshot writes the corpus — its configuration, the subtree-shape
// dictionary, every live signature (mutations included) as the interned
// labels of its tree's levels above the deepest, and the backing graph
// when one is attached — to w as a NEDSEG04 binary segment
// (internal/segment), length- and checksum-framed, the one corpus
// format this build writes. LoadCorpus derives every tree and compiled
// cascade profile from those labels and the dictionary, without
// re-extracting or re-interning anything, and restores the graph, so
// the restored corpus can Insert and UpdateGraph exactly when this one
// can.
//
// The cut is one published view — the same single snapshot a query
// reads — serialized outside any lock: w may be a slow disk or network
// writer, and queries and mutations keep running for the whole
// transfer. Snapshotting one corpus twice is byte-identical, and so is
// snapshotting two corpora NewCorpus built over the same graph and
// options, on any worker count: a build numbers its shapes canonically.
// Shapes that later Insert and UpdateGraph calls intern take their IDs
// in the order their parallel extraction meets them, so two corpora
// with the same mutation history may still differ on disk.
func (c *Corpus) Snapshot(w io.Writer) error {
	return c.writeSegment(w, c.view.Load())
}

// writeSegment serializes one view as a binary segment — the body of
// Snapshot and of every checkpoint.
func (c *Corpus) writeSegment(w io.Writer, v *corpusView) error {
	meta := segment.Meta{Backend: BackendPrunedLinear.String(), K: c.k, Directed: c.cfg.directed}
	return segment.WriteRows(w, meta, c.dict, v.g, v.scan.Rows())
}

// LoadCorpus restores a corpus from a Snapshot stream: a NEDSEG04
// segment, the one format this build reads and writes. Any other input
// fails with ErrBadSnapshot; a NEDSEG01, NEDSEG02 or NEDSEG03 segment or a text
// manifest of an earlier build also matches ErrLegacyFormat, and
// `nedstats -upgrade` converts it. Whatever backend the segment names, and whatever VP-tree
// dumps it carries, the restored corpus serves from the one cascade scan;
// an unknown backend name is still a parse failure. Parse failures wrap
// ErrBadSnapshot.
//
// The restored corpus answers signature queries — and node queries for
// indexed nodes — identically to the corpus that was snapshotted, its
// trees and profiles derived from the dictionary the segment carries.
// Options apply on top of the recorded metadata: WithWorkers tunes the
// restored engine, and WithGraph re-attaches the backing graph
// (overriding the segment's embedded one), re-enabling Insert,
// UpdateGraph, Signature, and queries for unindexed nodes on a segment
// without one. WithNodes and WithDirected are ignored: the snapshot's
// items define the node set and directedness.
func LoadCorpus(r io.Reader, opts ...CorpusOption) (*Corpus, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, _ := br.Peek(len(legacyTextHeader)) // the longest prefix told apart
	switch {
	case slices.ContainsFunc(legacyPrefixes, func(p string) bool { return bytes.HasPrefix(prefix, []byte(p)) }):
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, ErrLegacyFormat)
	case !segment.IsSegment(prefix):
		return nil, fmt.Errorf("%w: not a %s segment (a corpus an earlier build wrote converts with nedstats -upgrade)", ErrBadSnapshot, segment.Magic)
	}
	// Index dumps an older segment carries are framed and checksummed by
	// ReadRows like every section, then dropped: the scan has nothing to
	// restore.
	meta, rows, dict, g, err := segment.ReadRows(br)
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
	if err := validateLoadedGraph(cfg, g, slices.Values(rows.Nodes)); err != nil {
		return nil, err
	}
	// Adopt the segment's dictionary: every loaded row is expressed
	// against its label IDs.
	return newCorpus(meta.K, cfg, g, dict, rows), nil
}

// legacyPrefixes start the corpus formats earlier builds wrote: a
// NEDSEG01, NEDSEG02 or NEDSEG03 segment and a text manifest.
var legacyPrefixes = []string{"NEDSEG01", "NEDSEG02", "NEDSEG03", legacyTextHeader}

const legacyTextHeader = "# ned corpus v"

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

// validateLoadedGraph checks a restored node set against the graph the
// corpus will serve with (which may be nil: signature-only corpora).
func validateLoadedGraph(cfg corpusConfig, g *Graph, nodes iter.Seq[NodeID]) error {
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
	for v := range nodes {
		if int(v) < 0 || int(v) >= g.NumNodes() {
			return fmt.Errorf("%w: snapshot node %d not in the attached graph's [0, %d)",
				ErrNodeOutOfRange, v, g.NumNodes())
		}
	}
	return nil
}
