package segment

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/tree"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureGraph builds a small deterministic graph.
func fixtureGraph(n, m int, directed bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, directed)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// fixture extracts, profiles, and shards every node of a deterministic
// graph — the exact inputs Write consumes.
func fixture(t testing.TB, directed bool, shards int) (Meta, *tree.Interner, *graph.Graph, [][]ned.Item) {
	t.Helper()
	g := fixtureGraph(40, 90, directed, 42)
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	items := ned.BuildItems(g, nodes, 2, directed, 2)
	dict := tree.NewInterner()
	// Profile serially: parallel interning assigns dictionary labels in
	// scheduling order, and the golden test needs identical bytes on
	// every run.
	ned.ProfileItems(items, dict, 1)
	shardItems := make([][]ned.Item, shards)
	for _, it := range items {
		si := ned.ShardOf(it.Node, shards)
		shardItems[si] = append(shardItems[si], it)
	}
	meta := Meta{Backend: "vp", K: 2, Directed: directed}
	return meta, dict, g, shardItems
}

func encode(t testing.TB, meta Meta, dict *tree.Interner, g *graph.Graph, shardItems [][]ned.Item) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, meta, dict, g, shardItems, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func sameTree(a, b *tree.Tree) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	av, bv := a.ParentVector(), b.ParentVector()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

func sameProfile(a, b *tree.Profile) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	eq := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(a.Labels, b.Labels) && eq(a.Perm, b.Perm) && eq(a.Kids, b.Kids) &&
		eq(a.Levels, b.Levels) && eq(a.Degs, b.Degs) && a.Canon == b.Canon &&
		a.LeafLabel == b.LeafLabel && a.Size == b.Size
}

func checkRoundTrip(t *testing.T, directed bool) {
	t.Helper()
	meta, dict, g, shardItems := fixture(t, directed, 4)
	blob := encode(t, meta, dict, g, shardItems)

	gotMeta, gotItems, gotDict, gotGraph, _, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if gotMeta.Backend != "vp" || gotMeta.K != 2 || gotMeta.Directed != directed ||
		gotMeta.Shards != 4 {
		t.Fatalf("meta round-trip: %+v", gotMeta)
	}
	var want []ned.Item
	for _, sh := range shardItems {
		want = append(want, sh...)
	}
	if len(gotItems) != len(want) || gotMeta.Items != len(want) {
		t.Fatalf("got %d items, want %d", len(gotItems), len(want))
	}
	for i := range want {
		w, gItem := &want[i], &gotItems[i]
		if w.Node != gItem.Node || w.K != gItem.K {
			t.Fatalf("item %d identity: got (%d,%d) want (%d,%d)", i, gItem.Node, gItem.K, w.Node, w.K)
		}
		if !sameTree(w.Out, gItem.Out) || !sameTree(w.In, gItem.In) {
			t.Fatalf("item %d trees differ", i)
		}
		if !sameProfile(w.OutP, gItem.OutP) || !sameProfile(w.InP, gItem.InP) {
			t.Fatalf("item %d profiles differ", i)
		}
		if !gItem.OutP.Resolved() {
			t.Fatalf("item %d profile unresolved after load", i)
		}
	}
	if gotDict.Len() != dict.Len() {
		t.Fatalf("dictionary round-trip: %d shapes, want %d", gotDict.Len(), dict.Len())
	}
	if gotGraph == nil {
		t.Fatal("graph lost in round-trip")
	}
	wantEdges, gotEdges := g.Edges(), gotGraph.Edges()
	if gotGraph.NumNodes() != g.NumNodes() || gotGraph.Directed() != g.Directed() ||
		len(gotEdges) != len(wantEdges) {
		t.Fatalf("graph shape changed: %d nodes %d edges, want %d nodes %d edges",
			gotGraph.NumNodes(), len(gotEdges), g.NumNodes(), len(wantEdges))
	}
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			t.Fatalf("edge %d: got %v want %v", i, gotEdges[i], wantEdges[i])
		}
	}
}

func TestSegmentRoundTripUndirected(t *testing.T) { checkRoundTrip(t, false) }
func TestSegmentRoundTripDirected(t *testing.T)   { checkRoundTrip(t, true) }

func TestSegmentWithoutGraph(t *testing.T) {
	meta, dict, _, shardItems := fixture(t, false, 2)
	blob := encode(t, meta, dict, nil, shardItems)
	_, _, _, g, _, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g != nil {
		t.Fatal("graph materialized from a graphless segment")
	}
}

func TestSegmentEmptyCorpus(t *testing.T) {
	dict := tree.NewInterner()
	blob := encode(t, Meta{Backend: "linear", K: 3}, dict, nil, make([][]ned.Item, 3))
	meta, items, gotDict, _, _, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(items) != 0 || meta.Items != 0 || gotDict.Len() != 0 || meta.Shards != 3 {
		t.Fatalf("empty corpus round-trip: %+v, %d items, %d shapes", meta, len(items), gotDict.Len())
	}
}

// Equal corpora must produce byte-identical segments — the property the
// golden-file test depends on.
func TestSegmentDeterministic(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, true, 4)
	if !bytes.Equal(encode(t, meta, dict, g, shardItems), encode(t, meta, dict, g, shardItems)) {
		t.Fatal("two writes of one corpus differ")
	}
}

// Every truncation point must fail loudly: segments are written
// atomically, so a short segment is corruption, never an in-progress
// write.
func TestSegmentTruncationFailsLoudly(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)
	blob := encode(t, meta, dict, g, shardItems)
	for cut := 0; cut < len(blob); cut++ {
		if _, _, _, _, _, err := Read(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("segment truncated to %d of %d bytes loaded without error", cut, len(blob))
		}
	}
}

// Every single-bit corruption must fail loudly: each section's payload
// is checksummed and the framing fields are structurally validated.
func TestSegmentCorruptionFailsLoudly(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)
	blob := encode(t, meta, dict, g, shardItems)
	for off := 0; off < len(blob); off++ {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, _, _, _, _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("segment with byte %d flipped loaded without error", off)
		}
	}
}

func TestSegmentTrailingDataFailsLoudly(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)
	blob := encode(t, meta, dict, g, shardItems)
	if _, _, _, _, _, err := Read(bytes.NewReader(append(blob, 0))); err == nil {
		t.Fatal("segment with trailing byte loaded without error")
	}
}

// An item filed under the wrong shard is an internal inconsistency the
// reader must reject, since corpus recovery re-derives shard placement
// by hash.
func TestSegmentMisfiledItemRejected(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 4)
	var mis [][]ned.Item
	mis = append(mis, nil, nil, nil, nil)
	for si, sh := range shardItems {
		mis[(si+1)%4] = append(mis[(si+1)%4], sh...)
	}
	blob := encode(t, meta, dict, g, mis)
	if _, _, _, _, _, err := Read(bytes.NewReader(blob)); err == nil {
		t.Fatal("segment with misfiled items loaded without error")
	}
}

func TestSegmentRejectsUnprofiledItems(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)
	shardItems[0][0].OutP = nil
	var buf bytes.Buffer
	if err := Write(&buf, meta, dict, g, shardItems, nil); err == nil {
		t.Fatal("Write accepted an item without a compiled profile")
	}
}

func TestIsSegment(t *testing.T) {
	if !IsSegment([]byte(Magic + "anything")) {
		t.Fatal("magic not recognized")
	}
	for _, p := range [][]byte{nil, []byte("# ned corpus v2"), []byte("NEDSEG0"), []byte("0 2 0,0")} {
		if IsSegment(p) {
			t.Fatalf("IsSegment(%q) = true", p)
		}
	}
}

// The golden segment locks the format in both directions: today's
// writer must reproduce the committed bytes, and today's reader must
// load the committed bytes. Regenerate with: go test ./internal/segment
// -run TestSegmentGolden -update
func TestSegmentGolden(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, true, 4)
	blob := encode(t, meta, dict, g, shardItems)
	path := filepath.Join("testdata", "golden.nedseg")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("writer output diverged from golden segment (%d vs %d bytes); if the format change is intentional, bump the magic and regenerate with -update", len(blob), len(want))
	}
	gotMeta, items, _, gotGraph, _, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("reader rejects golden segment: %v", err)
	}
	if gotMeta.Items != len(items) || gotMeta.K != 2 || !gotMeta.Directed || gotGraph == nil {
		t.Fatalf("golden segment loaded oddly: %+v, %d items", gotMeta, len(items))
	}
}

// fixtureIndexes fabricates one VPIndex per shard covering exactly the
// shard's items: the first half as preorder tree nodes with synthetic
// radii, the rest as the linear tail. The segment layer persists
// structure, it does not interpret it — preorder validity is the
// corpus layer's contract.
func fixtureIndexes(shardItems [][]ned.Item) []VPIndex {
	indexes := make([]VPIndex, len(shardItems))
	for si, items := range shardItems {
		ix := &indexes[si]
		half := len(items) / 2
		for i, it := range items {
			if i < half {
				ix.Nodes = append(ix.Nodes, VPNode{
					Node:   it.Node,
					Radius: float64(i) * 1.5,
					Inside: i%2 == 0,
					Beyond: i%3 == 0,
				})
			} else {
				ix.Tail = append(ix.Tail, it.Node)
			}
		}
	}
	return indexes
}

func TestSegmentIndexRoundTrip(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 3)
	indexes := fixtureIndexes(shardItems)
	// One shard persists no index: empty dumps must round-trip as empty.
	indexes[1] = VPIndex{}

	var buf bytes.Buffer
	if err := Write(&buf, meta, dict, g, shardItems, indexes); err != nil {
		t.Fatalf("Write with indexes: %v", err)
	}
	_, _, _, _, got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(indexes) {
		t.Fatalf("Read returned %d indexes, want %d", len(got), len(indexes))
	}
	for si := range indexes {
		w, r := indexes[si], got[si]
		if len(w.Nodes) != len(r.Nodes) || len(w.Tail) != len(r.Tail) {
			t.Fatalf("shard %d: got %d/%d nodes/tail, want %d/%d",
				si, len(r.Nodes), len(r.Tail), len(w.Nodes), len(w.Tail))
		}
		for i := range w.Nodes {
			if w.Nodes[i] != r.Nodes[i] {
				t.Fatalf("shard %d node %d: got %+v, want %+v", si, i, r.Nodes[i], w.Nodes[i])
			}
		}
		for i := range w.Tail {
			if w.Tail[i] != r.Tail[i] {
				t.Fatalf("shard %d tail %d: got %d, want %d", si, i, r.Tail[i], w.Tail[i])
			}
		}
	}
}

func TestSegmentWithoutIndexReturnsNil(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)
	blob := encode(t, meta, dict, g, shardItems)
	_, _, _, _, indexes, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if indexes != nil {
		t.Fatalf("segment written without indexes read back %d index dumps", len(indexes))
	}
}

func TestSegmentIndexWriteValidation(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)

	short := fixtureIndexes(shardItems)[:1]
	if err := Write(&bytes.Buffer{}, meta, dict, g, shardItems, short); err == nil {
		t.Error("Write accepted an index slice shorter than the shard count")
	}

	mismatched := fixtureIndexes(shardItems)
	mismatched[0].Tail = mismatched[0].Tail[:len(mismatched[0].Tail)-1]
	if err := Write(&bytes.Buffer{}, meta, dict, g, shardItems, mismatched); err == nil {
		t.Error("Write accepted an index not covering its shard's items")
	}
}

func TestSegmentIndexCorruptionFailsLoudly(t *testing.T) {
	meta, dict, g, shardItems := fixture(t, false, 2)
	var buf bytes.Buffer
	if err := Write(&buf, meta, dict, g, shardItems, fixtureIndexes(shardItems)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	blob := buf.Bytes()
	for off := 0; off < len(blob); off++ {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, _, _, _, _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("segment with byte %d flipped loaded without error", off)
		}
	}
}

func TestDecodeIndexRejectsBadPayloads(t *testing.T) {
	enc := func(si, nNodes, nTail uint32, body []byte) []byte {
		b := appendU32(nil, si)
		b = appendU32(b, nNodes)
		b = appendU32(b, nTail)
		return append(b, body...)
	}
	node := func(id uint32, radius float64, flags byte) []byte {
		b := appendU32(nil, id)
		b = appendU64(b, math.Float64bits(radius))
		return append(b, flags)
	}

	cases := []struct {
		name    string
		payload []byte
	}{
		{"wrong shard order", enc(5, 0, 0, nil)},
		{"short payload", enc(0, 2, 0, node(1, 1.0, 0))},
		{"trailing bytes", enc(0, 1, 0, append(node(1, 1.0, 0), 0xff))},
		{"negative node id", enc(0, 1, 0, node(0x80000001, 1.0, 0))},
		{"unknown flags", enc(0, 1, 0, node(1, 1.0, 9))},
		{"negative tail id", enc(0, 0, 1, appendU32(nil, 0x80000001))},
	}
	for _, tc := range cases {
		if _, err := decodeIndex(tc.payload, 0); err == nil {
			t.Errorf("%s: decodeIndex accepted the payload", tc.name)
		}
	}
}

// goldenSections returns the golden segment and the byte offset of
// every section header in it, in order.
func goldenSections(t *testing.T) ([]byte, []int) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	for off := len(Magic); off < len(blob); {
		starts = append(starts, off)
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		off += 9 + n + 4
	}
	if len(starts) < 5 {
		t.Fatalf("golden segment has only %d sections", len(starts))
	}
	return blob, starts
}

// Verify streams each section through its checksum instead of reading
// it whole, and must still refuse every damaged file: truncation at and
// inside every section, one flipped payload byte per section, a
// trailing byte, and a declared length past the cap.
func TestVerifyFailsLoudly(t *testing.T) {
	blob, starts := goldenSections(t)
	if err := Verify(bytes.NewReader(blob)); err != nil {
		t.Fatalf("Verify rejects the golden segment: %v", err)
	}
	expectFail := func(what string, b []byte) {
		t.Helper()
		if err := Verify(bytes.NewReader(b)); err == nil {
			t.Fatalf("Verify accepted %s", what)
		}
	}
	expectFail("an empty file", nil)
	expectFail("the magic alone", blob[:len(Magic)])
	for i, off := range starts {
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		expectFail(fmt.Sprintf("a cut at section %d's start", i), blob[:off])
		expectFail(fmt.Sprintf("a cut inside section %d's header", i), blob[:off+5])
		expectFail(fmt.Sprintf("a cut after section %d's header", i), blob[:off+9])
		expectFail(fmt.Sprintf("a cut mid-payload of section %d", i), blob[:off+9+n/2])
		expectFail(fmt.Sprintf("a cut inside section %d's checksum", i), blob[:off+9+n+2])
		mut := bytes.Clone(blob)
		mut[off+9+n/2] ^= 0x40
		expectFail(fmt.Sprintf("a flipped payload byte in section %d", i), mut)
		mut = bytes.Clone(blob)
		mut[off+9+n+1] ^= 0x01
		expectFail(fmt.Sprintf("a flipped checksum byte in section %d", i), mut)
	}
	expectFail("a trailing byte", append(bytes.Clone(blob), 0))
	mut := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(mut[starts[0]+1:], maxSectionLen+1)
	expectFail("a declared length past maxSectionLen", mut)
}

// A section whose payload disagrees with the length its header
// declared is a writer bug; the section writer reports it instead of
// framing it.
func TestSectionWriterLengthMismatch(t *testing.T) {
	for _, c := range []struct {
		declared int
		payload  []byte
	}{{4, []byte{1, 2}}, {2, []byte{1, 2, 3, 4}}, {0, []byte{1}}} {
		sw := newSectionWriter(io.Discard)
		sw.begin(secEnd, c.declared)
		sw.raw(c.payload)
		if err := sw.end(); err == nil {
			t.Fatalf("declared %d bytes, wrote %d: no error", c.declared, len(c.payload))
		}
	}
	var buf bytes.Buffer
	sw := newSectionWriter(&buf)
	big := make([]int32, 3*sectionChunk/4+5)
	for i := range big {
		big[i] = int32(i)
	}
	if err := sw.writeSection(secEnd, nil); err != nil {
		t.Fatal(err)
	}
	sw.begin(secShard, 4*len(big))
	sw.i32s(big)
	if err := sw.end(); err != nil {
		t.Fatalf("multi-chunk section: %v", err)
	}
	r := bytes.NewReader(buf.Bytes())
	if typ, payload, err := readSection(r); err != nil || typ != secEnd || len(payload) != 0 {
		t.Fatalf("empty section read back as %d, %d bytes, %v", typ, len(payload), err)
	}
	typ, payload, err := readSection(r)
	if err != nil || typ != secShard || len(payload) != 4*len(big) {
		t.Fatalf("multi-chunk section read back as %d, %d bytes, %v", typ, len(payload), err)
	}
	for i := range big {
		if got := int32(binary.LittleEndian.Uint32(payload[4*i:])); got != big[i] {
			t.Fatalf("word %d = %d, want %d", i, got, big[i])
		}
	}
}
