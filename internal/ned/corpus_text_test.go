// The text corpus goldens sit in testdata here, beside the signature
// format they extend; their reader is internal/legacy's, which the
// offline converter alone uses.
package ned_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ned/internal/graph"
	"ned/internal/legacy"
	"ned/internal/tree"
)

// goldenItem is one item line of a checked-in text snapshot: its node
// and its trees in the parent-vector encoding ("" is the single node).
type goldenItem struct {
	node    graph.NodeID
	out, in string
}

// checkGolden parses one checked-in text snapshot and compares header
// and items. No build writes a text format any more: these files, byte
// for byte what earlier builds wrote, pin the reader that converts the
// ones still on disk (nedstats -upgrade). Never edit them.
func checkGolden(t *testing.T, path string, want legacy.CorpusMeta, wantItems []goldenItem) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, items, err := legacy.ReadCorpusItems(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if meta.Version != want.Version || meta.Backend != want.Backend || meta.K != want.K ||
		meta.Directed != want.Directed || meta.Shards != want.Shards {
		t.Fatalf("%s: meta %+v, want %+v", path, meta, want)
	}
	if len(items) != len(wantItems) {
		t.Fatalf("%s: %d items, want %d", path, len(items), len(wantItems))
	}
	for i, it := range items {
		w := wantItems[i]
		if it.Node != w.node || it.K != want.K || tree.Encode(it.Out) != w.out {
			t.Errorf("%s item %d: node %d k %d out %q, want node %d k %d out %q",
				path, i, it.Node, it.K, tree.Encode(it.Out), w.node, want.K, w.out)
		}
		if want.Directed != (it.In != nil) {
			t.Errorf("%s item %d: incoming tree present = %v", path, i, it.In != nil)
		} else if it.In != nil && tree.Encode(it.In) != w.in {
			t.Errorf("%s item %d: in %q, want %q", path, i, tree.Encode(it.In), w.in)
		}
	}
}

// goldenFlat is the item set of the undirected goldens.
var goldenFlat = []goldenItem{{node: 0, out: "0,0,1"}, {node: 3}, {node: 7, out: "0,1,1"}}

// TestCorpusSnapshotGolden pins the reader on the v1 snapshots.
func TestCorpusSnapshotGolden(t *testing.T) {
	checkGolden(t, "testdata/corpus_v1.golden", legacy.CorpusMeta{Version: 1, Backend: "bk", K: 2}, goldenFlat)
	checkGolden(t, "testdata/corpus_v1_directed.golden", legacy.CorpusMeta{Version: 1, Backend: "vp", K: 2, Directed: true},
		[]goldenItem{{node: 1, out: "0", in: "0,0"}, {node: 4, in: "0"}})
}

// TestCorpusSnapshotGoldenV2 pins the reader on the v2 sharded manifest
// (empty shard section included); items come back in file order.
func TestCorpusSnapshotGoldenV2(t *testing.T) {
	checkGolden(t, "testdata/corpus_v2.golden", legacy.CorpusMeta{Version: 2, Backend: "bk", K: 2, Shards: 2}, goldenFlat)
}

// TestReadCorpusItemsLegacy: input without a snapshot header parses as
// a version-0 snapshot with the plain-signature semantics.
func TestReadCorpusItemsLegacy(t *testing.T) {
	in := "# ned signatures v1: node k parentvector\n3 2 0,0\n5 2\n"
	meta, items, err := legacy.ReadCorpusItems(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 0 {
		t.Fatalf("legacy input reported version %d", meta.Version)
	}
	if len(items) != 2 || items[0].Node != 3 || items[1].Node != 5 {
		t.Fatalf("legacy items: %+v", items)
	}
	if items[1].Out.Size() != 1 {
		t.Errorf("legacy empty encoding: tree size %d, want 1", items[1].Out.Size())
	}
}

// TestReadCorpusItemsErrors walks the corrupted-input error paths; each
// must fail with an error naming the offending line or field.
func TestReadCorpusItemsErrors(t *testing.T) {
	header := "# ned corpus v1 backend=vp k=2 directed=0 nodes=1\n"
	cases := []struct {
		name, in, want string
	}{
		{"future version", "# ned corpus v4 backend=vp k=2 directed=0 shards=1 base=1 nodes=0\n", "version 4 not supported"},
		{"v2 missing shards", "# ned corpus v2 backend=vp k=2 directed=0 nodes=0\n", "missing shards="},
		{"v2 bad shard count", "# ned corpus v2 backend=vp k=2 directed=0 shards=0 nodes=0\n", "bad snapshot shard count"},
		{"v2 item outside section", "# ned corpus v2 backend=vp k=2 directed=0 shards=1 nodes=1\n0 2 0\n", "before any shard section"},
		{"v2 section out of order", "# ned corpus v2 backend=vp k=2 directed=0 shards=2 nodes=1\n# shard 1 nodes=1\n0 2 0\n", "out of order"},
		{"v2 short section", "# ned corpus v2 backend=vp k=2 directed=0 shards=2 nodes=2\n# shard 0 nodes=2\n0 2 0\n# shard 1 nodes=1\n1 2 0\n", "declares 2 nodes, found 1"},
		{"v2 missing section", "# ned corpus v2 backend=vp k=2 directed=0 shards=2 nodes=1\n# shard 0 nodes=1\n0 2 0\n", "declares 2 shards, found 1 sections"},
		{"v2 malformed section", "# ned corpus v2 backend=vp k=2 directed=0 shards=1 nodes=1\n# shard zero nodes=1\n0 2 0\n", "bad shard index"},
		{"v3 missing base", "# ned corpus v3 backend=vp k=2 directed=0 shards=1 nodes=0\n", "missing base="},
		{"v3 redirect disagrees with base", "# ned corpus v3 backend=vp k=2 directed=0 shards=2 base=2 nodes=0\n# redirect 0,1,1\n# shard 0 nodes=0\n# shard 1 nodes=0\n", "3 buckets, header declares base=2"},
		{"v3 redirect out of range", "# ned corpus v3 backend=vp k=2 directed=0 shards=2 base=2 nodes=0\n# redirect 0,2\n# shard 0 nodes=0\n# shard 1 nodes=0\n", "bad redirect bucket"},
		{"v3 no redirect", "# ned corpus v3 backend=vp k=2 directed=0 shards=1 base=1 nodes=0\n# shard 0 nodes=0\n", "no redirect table"},
		{"v3 duplicate redirect", "# ned corpus v3 backend=vp k=2 directed=0 shards=1 base=1 nodes=0\n# redirect 0\n# redirect 0\n# shard 0 nodes=0\n", "duplicate redirect table"},
		{"v3 redirect after sections", "# ned corpus v3 backend=vp k=2 directed=0 shards=1 base=1 nodes=0\n# shard 0 nodes=0\n# redirect 0\n", "redirect table after shard sections"},
		{"bad version", "# ned corpus vx backend=vp k=2 directed=0 nodes=0\n", "malformed snapshot version"},
		{"missing field", "# ned corpus v1 backend=vp k=2 directed=0\n", "missing nodes="},
		{"bad k", "# ned corpus v1 backend=vp k=zero directed=0 nodes=0\n", "bad snapshot k"},
		{"bad directed", "# ned corpus v1 backend=vp k=2 directed=yes nodes=0\n", "bad snapshot directed"},
		{"bad node count", "# ned corpus v1 backend=vp k=2 directed=0 nodes=-4\n", "bad snapshot node count"},
		{"field count", header + "0 2\n", "has 2 fields, want 3"},
		{"bad node id", header + "x 2 0\n", "bad node id"},
		{"bad item k", header + "0 2x 0\n", "bad k"},
		{"k disagrees", header + "0 3 0\n", "disagrees with header"},
		{"bad tree", header + "0 2 0,?\n", "decoding"},
		{"duplicate", "# ned corpus v1 backend=vp k=2 directed=0 nodes=2\n4 2 0\n4 2 0\n", "already appeared on line 2"},
		{"truncated", "# ned corpus v1 backend=vp k=2 directed=0 nodes=2\n4 2 0\n", "declares 2 nodes, found 1"},
		{"padded", "# ned corpus v1 backend=vp k=2 directed=0 nodes=0\n4 2 0\n", "declares 0 nodes, found 1"},
		{"directed missing in-tree", "# ned corpus v1 backend=vp k=2 directed=1 nodes=1\n0 2 0\n", "want 4"},
		{"directed bad in-tree", "# ned corpus v1 backend=vp k=2 directed=1 nodes=1\n0 2 0 0,?\n", "incoming tree"},
		{"second header after items", header + "0 2 0\n" + header, "second snapshot header"},
		{"two consecutive headers", header + header + "0 2 0\n", "second snapshot header"},
		{"header after legacy items", "3 2 0,0\n" + header, "second snapshot header"},
	}
	for _, tc := range cases {
		_, _, err := legacy.ReadCorpusItems(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
