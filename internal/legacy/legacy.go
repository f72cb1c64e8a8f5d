// Package legacy converts the corpus formats earlier builds wrote — text
// corpora v0–v3, NEDSEG01 segments, placement directories included, and
// NEDSEG02 and NEDSEG03 segments — to NEDSEG04, the one format the engine
// loads. Only the offline converter, nedstats -upgrade, uses it.
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

// Upgrade writes the corpus src holds to w as a NEDSEG04 segment, as the
// engine writes a corpus, and names the format it found: a NEDSEG04
// segment passes segment.Verify and is written back byte for byte; a
// NEDSEG03 segment has its dictionary and graph re-coded (transcodeV3)
// and, once segment.Read has checked the result, is written as that; a
// NEDSEG01 segment is transcoded to NEDSEG02 and on, as a NEDSEG02 one
// is, to NEDSEG03 and NEDSEG04. A text corpus has no dictionary or
// graph: its trees are profiled against a fresh dictionary, and the
// segment carries no graph.
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
		if err == nil {
			err = upgradeV2(w, b)
		}
		return magicV1, err
	case bytes.HasPrefix(src, []byte(magicV2)):
		return magicV2, upgradeV2(w, src)
	case bytes.HasPrefix(src, []byte(magicV3)):
		b, err := transcodeV3(src)
		if err == nil {
			_, _, _, _, _, err = segment.Read(bytes.NewReader(b))
		}
		if err == nil {
			_, err = w.Write(b)
		}
		return magicV3, err
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

// upgradeV2 writes the corpus of the NEDSEG02 segment b to w: its
// transcoding (transcodeV2, then transcodeV3) goes through segment.Read,
// so every check of the one decoder runs on old bytes.
func upgradeV2(w io.Writer, b []byte) error {
	b, err := transcodeV2(b)
	if err == nil {
		b, err = transcodeV3(b)
	}
	if err != nil {
		return err
	}
	meta, items, dict, g, _, err := segment.Read(bytes.NewReader(b))
	if err != nil {
		return err
	}
	return write(w, meta, dict, g, items)
}

// write writes profiled items as the engine writes a corpus: its rows,
// node-ascending (segment.WriteRows).
func write(w io.Writer, meta segment.Meta, dict *tree.Interner, g *graph.Graph, items []ned.Item) error {
	rows := ned.RowsOf(items)
	return segment.WriteRows(w, meta, dict, g, func(yield func(ned.Row) bool) {
		for i := range rows.Len() {
			if !yield(rows.Row(i)) {
				return
			}
		}
	})
}

// Converted is one checkpoint UpgradeDir rewrote: its path, the format
// it held and its bytes before and after.
type Converted struct {
	Path, Format  string
	Before, After int64
}

// UpgradeDir converts each checkpoint of the durable directory dir that
// is not NEDSEG04, atomically in place, and returns those it rewrote; it
// leaves logs and NEDSEG04 checkpoints as they are.
func UpgradeDir(dir string) ([]Converted, error) {
	seqs, err := segment.Checkpoints(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("legacy: %s holds no checkpoint", dir)
	}
	var done []Converted
	for _, s := range seqs {
		path := segment.CheckpointPath(dir, s)
		src, err := os.ReadFile(path)
		if err != nil {
			return done, err
		}
		if segment.IsSegment(src) {
			continue
		}
		c := Converted{Path: path, Before: int64(len(src))}
		if err := fsx.WriteFileAtomic(path, func(w io.Writer) (err error) {
			c.Format, err = Upgrade(w, src)
			return err
		}); err != nil {
			return done, fmt.Errorf("legacy: %s: %w", path, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return done, err
		}
		c.After = fi.Size()
		done = append(done, c)
	}
	return done, nil
}
