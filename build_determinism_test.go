package ned

import (
	"bytes"
	"fmt"
	"testing"

	"ned/internal/segment"
)

// TestBuildIsDeterministic pins the dictionary's canonical IDs: eight
// two-worker builds and one one-worker build of the PGP analog at
// scales 1 and 4 (and 16 without -short) write byte-identical
// checkpoints, whichever worker interned which shape first, and in every
// checkpoint each shape's children carry smaller IDs than the shape.
func TestBuildIsDeterministic(t *testing.T) {
	scales := []float64{1, 4}
	if !testing.Short() {
		scales = append(scales, 16)
	}
	for _, scale := range scales {
		g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 42})
		var first []byte
		for run, workers := range []int{2, 2, 2, 2, 2, 2, 2, 2, 1} {
			label := fmt.Sprintf("PGP x%g run %d (workers=%d)", scale, run, workers)
			c, err := NewCorpus(g, 3, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.Snapshot(&buf); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if first == nil {
				first = buf.Bytes()
				checkKidsBeforeShapes(t, label, first)
				continue
			}
			if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%s: the checkpoint is %d bytes, unlike the first run's %d or not byte for byte",
					label, buf.Len(), len(first))
			}
		}
	}
}

// checkKidsBeforeShapes fails t unless every shape of the segment's
// dictionary has children with smaller IDs.
func checkKidsBeforeShapes(t *testing.T, label string, seg []byte) {
	t.Helper()
	_, _, dict, _, _, err := segment.Read(bytes.NewReader(seg))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var kids []int32
	for id := range int32(dict.Len()) {
		kids = dict.Kids(id, kids[:0])
		for _, kid := range kids {
			if kid >= id {
				t.Fatalf("%s: shape %d has child %d", label, id, kid)
			}
		}
	}
}
