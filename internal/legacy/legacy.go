// Package legacy converts the corpus formats earlier builds wrote — text
// corpora v0–v3 and NEDSEG01 segments, placement directories included —
// to NEDSEG02, the one format the engine loads. Only the offline
// converter, nedstats -upgrade, uses it.
package legacy

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"ned/internal/fsx"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/tree"
)

// Upgrade writes the corpus src holds to w as a NEDSEG02 segment, as the
// engine writes a corpus, and names the format it found: a NEDSEG02
// segment passes segment.Verify and is written back byte for byte. A
// text corpus has no dictionary or graph: its trees are profiled against
// a fresh dictionary, and the segment carries no graph.
func Upgrade(w io.Writer, src []byte) (string, error) {
	switch {
	case segment.IsSegment(src):
		if err := segment.Verify(bytes.NewReader(src)); err != nil {
			return segment.Magic, err
		}
		_, err := w.Write(src)
		return segment.Magic, err
	case bytes.HasPrefix(src, []byte(magicV1)):
		b, err := transcodeV1(src)
		if err != nil {
			return magicV1, err
		}
		meta, items, dict, g, _, err := segment.Read(bytes.NewReader(b))
		if err != nil {
			return magicV1, err
		}
		return magicV1, write(w, meta, dict, g, items)
	}
	meta, items, err := ReadCorpusItems(bytes.NewReader(src))
	format := fmt.Sprintf("text v%d", meta.Version)
	if err != nil {
		return format, err
	}
	if meta.Version == 0 {
		// A signature file: its signatures' one k, served by the scan.
		if len(items) == 0 {
			return format, fmt.Errorf("legacy: no signatures in input")
		}
		meta.Backend, meta.K = "pruned", items[0].K
		for _, it := range items {
			if it.K != meta.K {
				return format, fmt.Errorf("legacy: mixed k values %d and %d (a corpus has one k)", meta.K, it.K)
			}
		}
	}
	if meta.K < 1 {
		return format, fmt.Errorf("legacy: k=%d", meta.K)
	}
	dict := tree.NewInterner()
	ned.ProfileItems(items, dict, 1)
	return format, write(w, segment.Meta{Backend: meta.Backend, K: meta.K, Directed: meta.Directed}, dict, nil, items)
}

// write writes profiled items as the engine writes a corpus: its rows,
// node-ascending, split into segment.Tables.
func write(w io.Writer, meta segment.Meta, dict *tree.Interner, g *graph.Graph, items []ned.Item) error {
	rows := ned.RowsOf(items)
	return segment.WriteRows(w, meta, dict, g, segment.Tables(func(yield func(ned.Row) bool) {
		for i := range rows.Len() {
			if !yield(rows.Row(i)) {
				return
			}
		}
	}))
}

// UpgradeDir converts each checkpoint of the durable directory dir that
// is not NEDSEG02, atomically in place, and returns the paths it
// rewrote; it leaves logs and NEDSEG02 checkpoints as they are.
func UpgradeDir(dir string) ([]string, error) {
	seqs, err := segment.Checkpoints(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("legacy: %s holds no checkpoint", dir)
	}
	var done []string
	for _, s := range seqs {
		path := segment.CheckpointPath(dir, s)
		src, err := os.ReadFile(path)
		if err != nil {
			return done, err
		}
		if segment.IsSegment(src) {
			continue
		}
		if err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
			_, err := Upgrade(w, src)
			return err
		}); err != nil {
			return done, fmt.Errorf("legacy: %s: %w", path, err)
		}
		done = append(done, path)
	}
	return done, nil
}
