package segment_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ned/internal/legacy"
	"ned/internal/ned"
	"ned/internal/segment"
)

// NEDSEG01, the first segment layout, stores every profile column. Read
// no longer takes it: internal/legacy converts it to NEDSEG02 offline
// (nedstats -upgrade). These suites convert the NEDSEG01 golden first
// and then assert what they asserted when Read translated it.

// upgrade converts a corpus as nedstats -upgrade does.
func upgrade(src []byte) ([]byte, error) {
	var out bytes.Buffer
	_, err := legacy.Upgrade(&out, src)
	return out.Bytes(), err
}

// asNEDSEG02 is b with the NEDSEG02 magic: Verify walks the framing and
// checksums, which both layouts share.
func asNEDSEG02(b []byte) []byte { return append([]byte(segment.Magic), b[len(segment.Magic):]...) }

// The NEDSEG01 golden converts: it decodes to exactly the columns its
// NEDSEG02 re-encoding derives.
func TestSegmentV1GoldenMatchesV2(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "golden-v1.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(old[:len(segment.Magic)]) != "NEDSEG01" {
		t.Fatalf("golden-v1.nedseg starts %q", old[:len(segment.Magic)])
	}
	if err := segment.Verify(bytes.NewReader(asNEDSEG02(old))); err != nil {
		t.Fatalf("Verify rejects the NEDSEG01 golden's framing: %v", err)
	}
	if _, _, _, _, _, err := segment.Read(bytes.NewReader(old)); err == nil {
		t.Fatal("Read accepts the NEDSEG01 golden")
	}
	converted, err := upgrade(old)
	if err != nil {
		t.Fatalf("converting the NEDSEG01 golden: %v", err)
	}
	meta, items, dict, g, _, err := segment.Read(bytes.NewReader(converted))
	if err != nil {
		t.Fatalf("Read rejects the converted NEDSEG01 golden: %v", err)
	}
	tables := make([][]ned.Item, meta.Shards)
	for _, it := range items {
		si := ned.ShardOf(it.Node, meta.Shards)
		tables[si] = append(tables[si], it)
	}
	var blob bytes.Buffer
	if err := segment.Write(&blob, meta, dict, g, tables, nil); err != nil {
		t.Fatal(err)
	}
	meta2, items2, dict2, g2, _, err := segment.Read(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatalf("Read of the re-encoding: %v", err)
	}
	if meta2 != meta || dict2.Len() != dict.Len() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("re-encoding: meta %+v, %d shapes, %d edges; want %+v, %d, %d",
			meta2, dict2.Len(), g2.NumEdges(), meta, dict.Len(), g.NumEdges())
	}
	segment.SameItems(t, "NEDSEG01 golden vs its NEDSEG02 re-encoding", items2, items)
	t.Logf("NEDSEG01 %d bytes, NEDSEG02 %d bytes", len(old), blob.Len())
}

// The conversion rejects the NEDSEG01 columns NEDSEG02 cannot express
// with segment.ErrInconsistent — including a perm that repeats a node and a kid
// run that is not its label's shape, which the loader of the NEDSEG01
// columns accepted.
func TestSegmentV1RejectsInconsistentTables(t *testing.T) {
	for _, c := range segment.V1Cases(t) {
		_, err := upgrade(c.Blob)
		if !errors.Is(err, segment.ErrInconsistent) || !strings.Contains(err.Error(), c.Want) {
			t.Errorf("%s: got %v, want segment.ErrInconsistent mentioning %q", c.What, err, c.Want)
		}
	}
}
