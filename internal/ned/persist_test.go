package ned

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"ned/internal/graph"
	"ned/internal/tree"
)

// TestSignaturesRoundTripLarge serializes a signature whose encoded line
// is far past the old 1 MiB scanner cap (which used to fail the whole
// read) and checks it survives a round trip bit-for-bit.
func TestSignaturesRoundTripLarge(t *testing.T) {
	// A 600k-node star encodes as ~1.2 MB of "0," repetitions.
	const n = 600_000
	parent := make([]int32, n)
	parent[0] = -1
	big := tree.MustNew(parent)
	sigs := []Signature{
		{Node: 7, K: 3, Tree: big},
		{Node: 8, K: 3, Tree: tree.Path(5)},
	}
	var buf bytes.Buffer
	if err := WriteSignatures(&buf, sigs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1<<20 {
		t.Fatalf("test line only %d bytes; expected to exceed the old 1 MiB cap", buf.Len())
	}
	got, err := ReadSignatures(&buf)
	if err != nil {
		t.Fatalf("ReadSignatures: %v", err)
	}
	if len(got) != len(sigs) {
		t.Fatalf("got %d signatures, want %d", len(got), len(sigs))
	}
	for i, g := range got {
		if g.Node != sigs[i].Node || g.K != sigs[i].K {
			t.Errorf("signature %d header mismatch: %+v", i, g)
		}
		if !tree.Isomorphic(g.Tree, sigs[i].Tree) || g.Tree.Size() != sigs[i].Tree.Size() {
			t.Errorf("signature %d tree did not round-trip", i)
		}
	}
}

// TestReadSignaturesTooLongNamesLine: a line exceeding the cap must
// produce an error naming the offending line, not a silent truncation.
func TestReadSignaturesTooLongNamesLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# header\n")
	sb.WriteString("1 2 0\n")
	sb.WriteString("2 2 ")
	sb.WriteString(strings.Repeat("0,", maxSignatureLine/2+8))
	sb.WriteString("\n")
	_, err := ReadSignatures(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("expected an error for an over-long line")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name the offending line: %v", err)
	}
	if !strings.Contains(err.Error(), "too long") && !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error does not explain the length cap: %v", err)
	}
}

func TestReadSignaturesMalformedNamesLine(t *testing.T) {
	in := "# header\n1 2 0\nnot-a-number 2 0\n"
	_, err := ReadSignatures(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("malformed line not named: %v", err)
	}
}

// goldenItem is one item line of a checked-in text snapshot: its node
// and its trees in the parent-vector encoding ("" is the single node).
type goldenItem struct {
	node    graph.NodeID
	out, in string
}

// checkGolden parses one checked-in text snapshot and compares header
// and items. This build writes no text format: these files, byte for
// byte what earlier builds wrote, are how the ones already on disk keep
// loading. Never edit them.
func checkGolden(t *testing.T, path string, want CorpusMeta, wantItems []goldenItem) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	meta, items, err := ReadCorpusItems(bytes.NewReader(raw))
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
	checkGolden(t, "testdata/corpus_v1.golden", CorpusMeta{Version: 1, Backend: "bk", K: 2}, goldenFlat)
	checkGolden(t, "testdata/corpus_v1_directed.golden", CorpusMeta{Version: 1, Backend: "vp", K: 2, Directed: true},
		[]goldenItem{{node: 1, out: "0", in: "0,0"}, {node: 4, in: "0"}})
}

// TestCorpusSnapshotGoldenV2 pins the reader on the v2 sharded manifest
// (empty shard section included); items come back in file order.
func TestCorpusSnapshotGoldenV2(t *testing.T) {
	checkGolden(t, "testdata/corpus_v2.golden", CorpusMeta{Version: 2, Backend: "bk", K: 2, Shards: 2}, goldenFlat)
}

// FuzzReadCorpusItems: the text reader is the import path for files this
// build can no longer produce, so arbitrary bytes must come back as an
// error or as a consistent item list, never a panic. Seeds: every
// checked-in text snapshot, v3 included.
func FuzzReadCorpusItems(f *testing.F) {
	for _, path := range []string{
		"testdata/corpus_v1.golden", "testdata/corpus_v1_directed.golden", "testdata/corpus_v2.golden",
		"../../testdata/corpus_v3_rebalanced.nedcorpus",
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, items, err := ReadCorpusItems(bytes.NewReader(data))
		if err != nil {
			if items != nil {
				t.Fatalf("error %v came with %d items", err, len(items))
			}
			return
		}
		seen := make(map[graph.NodeID]bool, len(items))
		for _, it := range items {
			if seen[it.Node] {
				t.Fatalf("accepted input yields node %d twice", it.Node)
			}
			seen[it.Node] = true
			if it.Out == nil || meta.Directed != (it.In != nil) {
				t.Fatalf("node %d: out=%v in=%v on a directed=%v snapshot", it.Node, it.Out != nil, it.In != nil, meta.Directed)
			}
			if meta.Version >= 1 && it.K != meta.K {
				t.Fatalf("node %d: k=%d under header k=%d", it.Node, it.K, meta.K)
			}
		}
	})
}

// TestSnapshotParsesAsSignatureFile: undirected corpus snapshots are
// valid signature files — including the "-" placeholder a single-node
// tree serializes as, which ReadSignatures must accept too.
func TestSnapshotParsesAsSignatureFile(t *testing.T) {
	snap := "# ned corpus v1 backend=vp k=2 directed=0 nodes=3\n0 2 0,0,1\n3 2 -\n7 2 0,1\n"
	sigs, err := ReadSignatures(strings.NewReader(snap))
	if err != nil {
		t.Fatalf("ReadSignatures(snapshot): %v", err)
	}
	if len(sigs) != 3 {
		t.Fatalf("got %d signatures, want 3", len(sigs))
	}
	if sigs[1].Node != 3 || sigs[1].Tree.Size() != 1 {
		t.Errorf("placeholder line parsed as node %d size %d, want node 3 size 1",
			sigs[1].Node, sigs[1].Tree.Size())
	}
}

// TestReadCorpusItemsLegacy: input without a snapshot header parses as
// a version-0 snapshot with the plain-signature semantics.
func TestReadCorpusItemsLegacy(t *testing.T) {
	in := "# ned signatures v1: node k parentvector\n3 2 0,0\n5 2\n"
	meta, items, err := ReadCorpusItems(strings.NewReader(in))
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
		_, _, err := ReadCorpusItems(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSaveSignaturesFileAtomic: a save failure (here: the target path
// is a directory, so the final rename fails) must leave no tmp residue,
// and a successful save over an existing file replaces it wholesale.
func TestSaveSignaturesFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sigs.txt"
	sigs := []Signature{{Node: 1, K: 2, Tree: tree.Path(3)}}
	if err := SaveSignaturesFile(path, sigs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	// Target is an existing directory: the rename must fail, the tmp
	// file must be cleaned up, and the directory must survive.
	sub := dir + "/taken"
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveSignaturesFile(sub, sigs); err == nil {
		t.Fatal("saving over a directory succeeded")
	}
	if _, err := os.Stat(sub + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind after failure: %v", err)
	}
	if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
		t.Fatalf("target directory damaged: %v", err)
	}
}

func TestSignaturesFileRoundTrip(t *testing.T) {
	g := randomTestGraph(40, 90, 21)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	sigs := Signatures(g, nodes, 2)
	path := t.TempDir() + "/sigs.txt"
	if err := SaveSignaturesFile(path, sigs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSignaturesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sigs) {
		t.Fatalf("got %d signatures, want %d", len(got), len(sigs))
	}
	for i := range got {
		if fmt.Sprint(got[i].Node, got[i].K, tree.Encode(got[i].Tree)) !=
			fmt.Sprint(sigs[i].Node, sigs[i].K, tree.Encode(sigs[i].Tree)) {
			t.Fatalf("signature %d did not round-trip", i)
		}
	}
}
