package ned

import (
	"bytes"
	"testing"
)

// benchSnapshots builds a PGP-analog corpus once and renders it in both
// persistence formats.
func benchSnapshots(b *testing.B) (text, seg []byte) {
	b.Helper()
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 1.0, Seed: 1})
	c, err := NewCorpus(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	var tb, sb bytes.Buffer
	if err := c.Snapshot(&tb); err != nil {
		b.Fatal(err)
	}
	if err := c.SnapshotSegment(&sb); err != nil {
		b.Fatal(err)
	}
	return tb.Bytes(), sb.Bytes()
}

func BenchmarkLoadCorpusText(b *testing.B) {
	text, _ := benchSnapshots(b)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCorpus(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadCorpusSegment(b *testing.B) {
	_, seg := benchSnapshots(b)
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCorpus(bytes.NewReader(seg)); err != nil {
			b.Fatal(err)
		}
	}
}
