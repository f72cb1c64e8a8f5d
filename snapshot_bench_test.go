package ned

import (
	"bytes"
	"testing"
)

// BenchmarkLoadCorpusSegment restores a PGP-analog corpus from its
// snapshot.
func BenchmarkLoadCorpusSegment(b *testing.B) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 1.0, Seed: 1})
	c, err := NewCorpus(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	var seg bytes.Buffer
	if err := c.Snapshot(&seg); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(seg.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCorpus(bytes.NewReader(seg.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
