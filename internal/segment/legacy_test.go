package segment_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ned/internal/graph"
	"ned/internal/legacy"
	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/tree"
)

// NEDSEG01 stores every profile column and NEDSEG02 every stored row as
// u32 words; NEDSEG03 stores its dictionary uncompressed and its graph
// as u32 pairs. Read takes none of them: internal/legacy converts them to
// NEDSEG04 offline (nedstats -upgrade). These suites convert the old
// goldens first and then assert what they asserted when Read took them.
// All four goldens hold one corpus (the fixture of TestSegmentGolden).

// upgrade converts a corpus as nedstats -upgrade does.
func upgrade(src []byte) ([]byte, error) {
	var out bytes.Buffer
	_, err := legacy.Upgrade(&out, src)
	return out.Bytes(), err
}

// withMagic is b with the NEDSEG04 magic: Verify walks the framing and
// checksums, which every layout shares.
func withMagic(b []byte) []byte { return append([]byte(segment.Magic), b[len(segment.Magic):]...) }

// corpus is a segment as Read returns it, its items node-ascending.
type corpus struct {
	meta  segment.Meta
	items []ned.Item
	dict  *tree.Interner
	g     *graph.Graph
}

// readGolden reads testdata/name, converted first unless it is the
// NEDSEG04 golden, which it must not need.
func readGolden(t *testing.T, name, magic string) corpus {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:len(magic)]) != magic {
		t.Fatalf("%s starts %q", name, b[:len(magic)])
	}
	if magic != segment.Magic {
		if err := segment.Verify(bytes.NewReader(withMagic(b))); err != nil {
			t.Fatalf("Verify rejects the %s golden's framing: %v", magic, err)
		}
		if _, _, _, _, _, err := segment.Read(bytes.NewReader(b)); err == nil {
			t.Fatalf("Read accepts the %s golden", magic)
		}
		if b, err = upgrade(b); err != nil {
			t.Fatalf("converting the %s golden: %v", magic, err)
		}
	}
	meta, items, dict, g, _, err := segment.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Read rejects the %s golden, converted: %v", magic, err)
	}
	slices.SortFunc(items, func(a, b ned.Item) int { return int(a.Node - b.Node) })
	return corpus{meta, items, dict, g}
}

// sameCorpus requires got to hold want's items, dictionary and graph.
func sameCorpus(t *testing.T, label string, got, want corpus) {
	t.Helper()
	got.meta.Shards, want.meta.Shards = 0, 0 // a conversion picks its own table count
	gotKeys, gotOff := got.dict.Coded()
	wantKeys, wantOff := want.dict.Coded()
	gotShapes, wantShapes := len(gotOff)-1, len(wantOff)-1
	if got.meta != want.meta || !bytes.Equal(gotKeys, wantKeys) ||
		got.g.NumNodes() != want.g.NumNodes() || !slices.Equal(got.g.Edges(), want.g.Edges()) {
		t.Fatalf("%s: meta %+v, %d shapes, %d edges; want %+v, %d, %d",
			label, got.meta, gotShapes, got.g.NumEdges(), want.meta, wantShapes, want.g.NumEdges())
	}
	segment.SameItems(t, label, got.items, want.items)
}

// The NEDSEG01 golden converts to exactly the corpus the NEDSEG02 golden
// converts to, and that corpus re-encodes to the same columns.
func TestSegmentV1GoldenMatchesV2(t *testing.T) {
	v1 := readGolden(t, "golden-v1.nedseg", "NEDSEG01")
	v2 := readGolden(t, "golden-v2.nedseg", "NEDSEG02")
	sameCorpus(t, "NEDSEG01 golden vs the NEDSEG02 golden", v1, v2)
	dict := v1.dict
	tables := make([][]ned.Item, 4)
	for _, it := range v1.items {
		si := ned.ShardOf(it.Node, len(tables))
		tables[si] = append(tables[si], it)
	}
	var blob bytes.Buffer
	if err := segment.Write(&blob, v1.meta, dict, v1.g, tables, nil); err != nil {
		t.Fatal(err)
	}
	meta, items, _, _, _, err := segment.Read(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatalf("Read of the re-encoding: %v", err)
	}
	slices.SortFunc(items, func(a, b ned.Item) int { return int(a.Node - b.Node) })
	segment.SameItems(t, "NEDSEG01 golden vs its NEDSEG04 re-encoding", items, v1.items)
	t.Logf("meta %+v: NEDSEG04 %d bytes", meta, blob.Len())
}

// The NEDSEG02 golden converts through internal/legacy into the corpus
// of the NEDSEG03 golden: its items, dictionary and graph.
func TestSegmentV2GoldenMatchesV3(t *testing.T) {
	sameCorpus(t, "converted NEDSEG02 golden vs the converted NEDSEG03 golden",
		readGolden(t, "golden-v2.nedseg", "NEDSEG02"), readGolden(t, "golden-v3.nedseg", "NEDSEG03"))
}

// The NEDSEG03 golden converts into the NEDSEG04 golden byte for byte:
// the conversion re-codes the dictionary and the graph under the same
// shape IDs and passes the item tables on as they are.
func TestSegmentV3GoldenMatchesV4(t *testing.T) {
	v4, err := os.ReadFile(filepath.Join("testdata", "golden.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	sameCorpus(t, "converted NEDSEG03 golden vs the NEDSEG04 golden",
		readGolden(t, "golden-v3.nedseg", "NEDSEG03"), readGolden(t, "golden.nedseg", segment.Magic))
	v3, err := os.ReadFile(filepath.Join("testdata", "golden-v3.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := upgrade(v3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v4) {
		t.Fatalf("the NEDSEG03 golden converts to %d bytes that are not the %d-byte NEDSEG04 golden", len(got), len(v4))
	}
	if len(v4) >= len(v3) {
		t.Errorf("NEDSEG04 golden %d bytes, NEDSEG03 %d: the re-coding saves nothing", len(v4), len(v3))
	}
}

// The conversion rejects the NEDSEG01 columns NEDSEG03 cannot express
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

// A NEDSEG02 table that checksums but disagrees with its dictionary
// converts to one NEDSEG04's decoder rejects with ErrInconsistent: the
// checks NEDSEG02's reader ran still run on its bytes.
func TestSegmentV2RejectsInconsistentTables(t *testing.T) {
	for _, c := range segment.V2Cases(t) {
		_, err := upgrade(c.Blob)
		if !errors.Is(err, segment.ErrInconsistent) || !strings.Contains(err.Error(), c.Want) {
			t.Errorf("%s: got %v, want segment.ErrInconsistent mentioning %q", c.What, err, c.Want)
		}
	}
}
