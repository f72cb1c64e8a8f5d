package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ned/internal/datasets"
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
	return eq(a.Labels, b.Labels) && eq(a.Perm, b.Perm) && eq(a.Kids, b.Kids) && eq(a.KidOff, b.KidOff) &&
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
	if gotMeta.Items != len(want) {
		t.Fatalf("meta counts %d items, want %d", gotMeta.Items, len(want))
	}
	sameItems(t, "round trip", gotItems, want)
	for i := range gotItems {
		if !gotItems[i].OutP.Resolved() {
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
		raw(sw, c.payload)
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
	if err := sw.flush(); err != nil {
		t.Fatal(err)
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

// sameItems requires two item lists to agree node for node: trees by
// parent vector, profiles column for column.
func sameItems(t *testing.T, label string, got, want []ned.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		if w.Node != g.Node || w.K != g.K {
			t.Fatalf("%s: item %d is (%d, k=%d), want (%d, k=%d)", label, i, g.Node, g.K, w.Node, w.K)
		}
		if !sameTree(w.Out, g.Out) || !sameTree(w.In, g.In) {
			t.Fatalf("%s: node %d: trees differ", label, w.Node)
		}
		if !sameProfile(w.OutP, g.OutP) || !sameProfile(w.InP, g.InP) {
			t.Fatalf("%s: node %d: profile columns differ", label, w.Node)
		}
	}
}

// flatten concatenates item tables.
func flatten(tables [][]ned.Item) []ned.Item {
	var all []ned.Item
	for _, items := range tables {
		all = append(all, items...)
	}
	return all
}

// The NEDSEG01 golden, which stores every profile column, stays
// readable: it decodes to exactly the columns its NEDSEG02 re-encoding
// derives.
func TestSegmentV1GoldenMatchesV2(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "golden-v1.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(old[:len(Magic)]) != magicV1 {
		t.Fatalf("golden-v1.nedseg starts %q", old[:len(Magic)])
	}
	if err := Verify(bytes.NewReader(old)); err != nil {
		t.Fatalf("Verify rejects the NEDSEG01 golden: %v", err)
	}
	meta, items, dict, g, _, err := Read(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("Read rejects the NEDSEG01 golden: %v", err)
	}
	tables := make([][]ned.Item, meta.Shards)
	for _, it := range items {
		si := ned.ShardOf(it.Node, meta.Shards)
		tables[si] = append(tables[si], it)
	}
	blob := encode(t, meta, dict, g, tables)
	if string(blob[:len(Magic)]) != Magic {
		t.Fatalf("re-encoding starts %q, want %q", blob[:len(Magic)], Magic)
	}
	meta2, items2, dict2, g2, _, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Read of the re-encoding: %v", err)
	}
	if meta2 != meta || dict2.Len() != dict.Len() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("re-encoding: meta %+v, %d shapes, %d edges; want %+v, %d, %d",
			meta2, dict2.Len(), g2.NumEdges(), meta, dict.Len(), g.NumEdges())
	}
	sameItems(t, "NEDSEG01 golden vs its NEDSEG02 re-encoding", items2, items)
	t.Logf("NEDSEG01 %d bytes, NEDSEG02 %d bytes", len(old), len(blob))
}

// What a reader derives is what the writer held: over a 500-node sample
// of each dataset analog at k = 2 and 3, and a directed corpus, Write
// then Read returns every tree's parents and every profile column
// (Levels, Labels, Perm, Kids, KidOff, Degs, LeafLabel) unchanged.
func TestSegmentDerivesWrittenColumns(t *testing.T) {
	type corpus struct {
		name     string
		g        *graph.Graph
		directed bool
	}
	var corpora []corpus
	for _, name := range datasets.All {
		corpora = append(corpora, corpus{string(name), datasets.MustGenerate(name, datasets.Options{Seed: 5}), false})
	}
	// A directed corpus: the GNU analog with every edge oriented at random.
	gnu := datasets.MustGenerate(datasets.GNU, datasets.Options{Seed: 5})
	rng := rand.New(rand.NewSource(6))
	b := graph.NewBuilder(gnu.NumNodes(), true)
	for _, e := range gnu.Edges() {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		b.AddEdge(e.U, e.V)
	}
	corpora = append(corpora, corpus{"GNU directed", b.Build(), true})
	for _, c := range corpora {
		for _, k := range []int{2, 3} {
			if c.directed && k == 2 {
				continue
			}
			nodes := make([]graph.NodeID, 0, 500)
			for _, v := range rand.New(rand.NewSource(int64(k))).Perm(c.g.NumNodes())[:500] {
				nodes = append(nodes, graph.NodeID(v))
			}
			slices.Sort(nodes)
			items := ned.BuildItems(c.g, nodes, k, c.directed, 2)
			dict := tree.NewInterner()
			ned.ProfileItems(items, dict, 2)
			tables := itemTables(items)
			blob := encode(t, Meta{Backend: "pruned", K: k, Directed: c.directed}, dict, c.g, tables)
			_, got, _, _, _, err := Read(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("%s k=%d: Read: %v", c.name, k, err)
			}
			sameItems(t, fmt.Sprintf("%s k=%d", c.name, k), got, flatten(tables))
		}
	}
}

// nonBFSItem is a one-node corpus item whose tree is in level order but
// not BFS order — node 3 hangs under node 2, node 4 under node 1 — so
// its table entry carries the parent vector.
func nonBFSItem(dict *tree.Interner) ned.Item {
	tr := tree.MustNew([]int32{-1, 0, 0, 2, 1})
	return ned.Item{Node: 7, K: 2, Out: tr, OutP: dict.Profile(tr)}
}

// A tree not in BFS order round-trips with its own parent vector.
func TestSegmentNonBFSTreeRoundTrip(t *testing.T) {
	dict := tree.NewInterner()
	items := []ned.Item{nonBFSItem(dict)}
	blob := encode(t, Meta{Backend: "pruned", K: 2}, dict, nil, [][]ned.Item{items})
	_, got, _, _, _, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "non-BFS tree", got, items)
}

// itemTable locates the first item table of a segment: the offset of
// its payload and the payload's words.
func itemTable(t *testing.T, blob []byte) (at int, words []uint32) {
	t.Helper()
	for off := len(Magic); off < len(blob); {
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		if blob[off] == secShard {
			words = make([]uint32, n/4)
			for i := range words {
				words[i] = binary.LittleEndian.Uint32(blob[off+9+4*i:])
			}
			return off + 9, words
		}
		off += 9 + n + 4
	}
	t.Fatal("segment holds no item table")
	return 0, nil
}

// rewrite returns blob with the item table's word i set to v and the
// table's checksum recomputed: faithful bytes of an inconsistent table.
func rewrite(blob []byte, at, nWords, i int, v uint32) []byte {
	out := bytes.Clone(blob)
	binary.LittleEndian.PutUint32(out[at+4*i:], v)
	end := at + 4*nWords
	binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[at:end], castagnoli))
	return out
}

// The reader checks every stored label against the shapes around it: a
// table that checksums but disagrees with its dictionary fails with
// ErrInconsistent, never a panic or a wrong corpus.
func TestSegmentV2RejectsInconsistentTables(t *testing.T) {
	meta, dict, g, _ := fixture(t, false, 1)
	items := ned.BuildItems(g, []graph.NodeID{0, 1, 2, 3, 4, 5, 6}, 2, false, 1)
	ned.ProfileItems(items, dict, 1)
	items = append(items, nonBFSItem(dict))
	blob := encode(t, meta, dict, g, [][]ned.Item{items})
	at, words := itemTable(t, blob)
	shapes := dict.Shapes()

	// Walk the table: per item, where its tree's header word sits.
	type treeAt struct{ hdr, m int }
	var trees []treeAt
	for pos, i := 2, 0; i < int(words[1]); i++ {
		pos += 3
		hdr := words[pos]
		m := int(hdr &^ parentsFlag)
		trees = append(trees, treeAt{pos, m})
		pos += 1 + m
		if hdr&parentsFlag != 0 {
			pos += 5 // nonBFSItem's five parents
		}
	}
	// A tree of height 2: at k = 2 one storing more than its root.
	var tall treeAt
	for _, tr := range trees[:len(trees)-1] {
		if tr.m > 1 {
			tall = tr
			break
		}
	}
	if tall.m != 1+len(shapes[words[tall.hdr+1]])/4 {
		t.Fatalf("fixture holds no tree of height 2 (found %+v)", tall)
	}
	root := tall.hdr + 1
	first1 := root + 1 // the first level-1 label
	// Shapes to swap in: one with a non-leaf kid, and an all-leaf one
	// (a node with leaf children only) other than first1's own.
	nonLeaf, star := -1, -1
	for id, key := range shapes {
		if key == "" {
			continue
		}
		if binary.LittleEndian.Uint32([]byte(key[len(key)-4:])) != 0 {
			nonLeaf = max(nonLeaf, id)
		} else if uint32(id) != words[first1] && star < 0 {
			star = id
		}
	}
	if nonLeaf < 0 || star < 0 {
		t.Fatalf("dictionary lacks the shapes to swap in (non-leaf %d, star %d)", nonLeaf, star)
	}
	nb := trees[len(trees)-1] // the non-BFS tree: labels of nodes 0..2, then parents -1,0,0,2,1
	parent4 := nb.hdr + 1 + nb.m + 4

	cases := []struct {
		what, want string
		word       int
		v          uint32
	}{
		{"a label outside the dictionary", "outside the dictionary", root, uint32(len(shapes))},
		{"child counts overrunning the stored labels", "overrun", tall.hdr, uint32(tall.m - 1)},
		{"a stored level with no children", "has no children", root, 0},
		{"a level h-1 node with a non-leaf kid", "non-leaf kid", first1, uint32(nonLeaf)},
		{"a parent vector disagreeing with the shapes", "parent vector", parent4, 2},
		{"children differing from their parent's shape", "do not carry", first1, uint32(star)},
	}
	for _, c := range cases {
		_, _, _, _, _, err := Read(bytes.NewReader(rewrite(blob, at, len(words), c.word, c.v)))
		if !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrInconsistent mentioning %q", c.what, err, c.want)
		}
	}

	// A dictionary without the leaf shape cannot hold even a one-node
	// tree.
	lone := tree.MustNew([]int32{-1})
	empty := encode(t, meta, tree.NewInterner(), nil,
		[][]ned.Item{{{Node: 0, K: meta.K, Out: lone, OutP: dict.Profile(lone)}}})
	if _, _, _, _, _, err := Read(bytes.NewReader(empty)); !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), "leaf shape") {
		t.Errorf("a missing leaf shape: got %v, want ErrInconsistent mentioning %q", err, "leaf shape")
	}
}

// itemTables splits node-ascending items into the item tables Write
// takes, as Tables splits rows.
func itemTables(items []ned.Item) [][]ned.Item {
	n := min(runtime.GOMAXPROCS(0), maxTables)
	tables := make([][]ned.Item, n)
	for _, it := range items {
		ti := ned.ShardOf(it.Node, n)
		tables[ti] = append(tables[ti], it)
	}
	return tables
}

// A load sizes its arenas from what its first pass reads, never from
// what a header declares: an item table whose header declares more rows,
// or whose first tree declares more stored labels, than its payload
// holds fails with the error it always did, and decoding that table
// allocates no more than the payload's length.
func TestSegmentPresizingTrustsOnlyPayload(t *testing.T) {
	meta, dict, g, tables := fixture(t, false, 1)
	blob := encode(t, meta, dict, g, tables)
	at, words := itemTable(t, blob)
	var off, kids []int32
	off = append(off, 0)
	for _, key := range dict.Shapes() {
		for j := 0; j < len(key); j += 4 {
			kids = append(kids, int32(binary.LittleEndian.Uint32([]byte(key[j:j+4]))))
		}
		off = append(off, int32(len(kids)))
	}
	sh := newShapeTable(off, kids)
	meta.Shards = 1
	cases := []struct {
		what, want string
		word       int
		v          uint32
	}{
		{"more rows", "declares 268435456 items", 1, 1 << 28},
		{"more stored labels", "tree declares 1073741824 stored labels", 5, 1 << 30},
	}
	for _, c := range cases {
		mut := rewrite(blob, at, len(words), c.word, c.v)
		if _, _, _, _, _, err := Read(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Read got %v, want an error mentioning %q", c.what, err, c.want)
		}
		payload := bytes.Clone(mut[at : at+4*len(words)]) // word-aligned, as a section's payload is
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeTables([][]byte{payload}, meta, nil, dict, sh)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decoding the table got %v, want an error mentioning %q", c.what, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(payload)) {
			t.Errorf("%s: decoding a %d-byte table allocated %d bytes", c.what, len(payload), got)
		}
	}
}
