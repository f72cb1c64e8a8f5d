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
	for _, p := range [][]byte{nil, []byte("# ned corpus v2"), []byte("NEDSEG0"), []byte("NEDSEG01"), []byte("0 2 0,0")} {
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
		sw.begin(SecEnd, c.declared)
		raw(sw, c.payload)
		if err := sw.end(); err == nil {
			t.Fatalf("declared %d bytes, wrote %d: no error", c.declared, len(c.payload))
		}
	}
	var buf bytes.Buffer
	sw := newSectionWriter(&buf)
	big := make([]byte, 3*sectionChunk+20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := sw.writeSection(SecEnd, nil); err != nil {
		t.Fatal(err)
	}
	sw.begin(SecShard, len(big))
	raw(sw, big)
	if err := sw.end(); err != nil {
		t.Fatalf("multi-chunk section: %v", err)
	}
	if err := sw.flush(); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	if typ, payload, err := ReadSection(r); err != nil || typ != SecEnd || len(payload) != 0 {
		t.Fatalf("empty section read back as %d, %d bytes, %v", typ, len(payload), err)
	}
	typ, payload, err := ReadSection(r)
	if err != nil || typ != SecShard || !bytes.Equal(payload, big) {
		t.Fatalf("multi-chunk section read back as %d, %d bytes (want %d), %v", typ, len(payload), len(big), err)
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

// sections splits a segment into its sections' types and payloads.
func sections(blob []byte) (types []byte, payloads [][]byte) {
	for off := len(Magic); off+9 <= len(blob); {
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		types, payloads = append(types, blob[off]), append(payloads, blob[off+9:off+9+n])
		off += 9 + n + 4
	}
	return types, payloads
}

// assemble frames sections into a segment, each under its own checksum,
// with meta's table lengths set to the item tables' payloads: faithful
// bytes of whatever the payloads hold.
func assemble(types []byte, payloads [][]byte) []byte {
	h, err := DecodeHeader(payloads[0])
	if err != nil {
		panic(err)
	}
	si := 0
	for i, typ := range types {
		if typ == SecShard && si < len(h.TableLens) {
			h.TableLens[si], si = uint64(len(payloads[i])), si+1
		}
	}
	if payloads[0], err = h.Append(nil); err != nil {
		panic(err)
	}
	b := []byte(Magic)
	for i, typ := range types {
		b = AppendSection(b, typ, payloads[i])
	}
	return b
}

// uvarints decodes a payload of uvarints.
func uvarints(p []byte) []uint32 {
	var ws []uint32
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			panic("malformed uvarint")
		}
		ws, p = append(ws, uint32(x)), p[n:]
	}
	return ws
}

// withTable returns blob with item table ti's payload replaced by
// edit's result.
func withTable(blob []byte, ti int, edit func([]byte) []byte) []byte {
	types, payloads := sections(blob)
	for i, typ := range types {
		if typ == SecShard {
			if ti == 0 {
				payloads[i] = edit(bytes.Clone(payloads[i]))
				return assemble(types, payloads)
			}
			ti--
		}
	}
	panic("segment holds too few item tables")
}

// rewrite returns blob with uvarint i of item table ti set to v, re-framed
// and re-checksummed: faithful bytes of an inconsistent table.
func rewrite(blob []byte, ti, i int, v uint32) []byte {
	return withTable(blob, ti, func(p []byte) []byte {
		ws := uvarints(p)
		ws[i] = v
		out := []byte{}
		for _, w := range ws {
			out = binary.AppendUvarint(out, uint64(w))
		}
		return out
	})
}

// tableWords is item table ti of blob as its uvarints.
func tableWords(blob []byte, ti int) []uint32 {
	var ws []uint32
	withTable(blob, ti, func(p []byte) []byte { ws = uvarints(p); return p })
	return ws
}

// withSection returns blob with the payload of its section of type typ
// replaced by edit's result, re-framed and re-checksummed.
func withSection(blob []byte, typ byte, edit func([]byte) []byte) []byte {
	types, payloads := sections(blob)
	i := bytes.IndexByte(types, typ)
	payloads[i] = edit(bytes.Clone(payloads[i]))
	return assemble(types, payloads)
}

// appendUvarints appends ws to b as uvarints.
func appendUvarints(b []byte, ws []uint32) []byte {
	for _, w := range ws {
		b = binary.AppendUvarint(b, uint64(w))
	}
	return b
}

// badDicts is the golden segment with its dict or graph section
// rewritten under recomputed checksums into one the reader must reject
// with ErrInconsistent, and what the error must mention: a shared count
// longer than the previous shape, a child label that reaches its own
// shape's ID, a shape that repeats the one before it, a count that runs
// past the payload, a gap that runs past the graph's nodes and a
// neighbour count that runs past the payload.
func badDicts(tb testing.TB) []V1Case {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.nedseg"))
	if err != nil {
		tb.Fatal(err)
	}
	// shapes[id] is shape id's words: shared, rest, then rest deltas.
	types, payloads := sections(golden)
	words := uvarints(payloads[bytes.IndexByte(types, SecDict)])
	var shapes [][]uint32
	for at := 1; at < len(words); at += 2 + int(words[at+1]) {
		shapes = append(shapes, words[at:at+2+int(words[at+1])])
	}
	deg := func(sh [][]uint32, id int) uint32 { // shape id's label count
		if id < 0 {
			return 0
		}
		return sh[id][0] + sh[id][1]
	}
	dict := func(edit func(sh [][]uint32)) []byte {
		cp := make([][]uint32, len(shapes))
		for id, w := range shapes {
			cp[id] = slices.Clone(w)
		}
		edit(cp)
		return withSection(golden, SecDict, func([]byte) []byte {
			p := binary.AppendUvarint(nil, uint64(len(cp)))
			for _, w := range cp {
				p = appendUvarints(p, w)
			}
			return p
		})
	}
	// The first shape past the leaf's run of one that codes its one label
	// afresh: "0 1 d".
	lone := slices.IndexFunc(shapes[2:], func(w []uint32) bool { return w[0] == 0 && w[1] == 1 }) + 2
	last := len(shapes) - 1
	if lone < 2 {
		tb.Fatal("the golden dictionary lacks the shapes to rewrite")
	}
	// The graph's words past its header: per node a count, then gaps.
	gp := payloads[bytes.IndexByte(types, SecGraph)]
	nodes, gw := binary.LittleEndian.Uint32(gp), uvarints(gp[13:])
	graphWith := func(edit func(ws []uint32)) []byte {
		ws := slices.Clone(gw)
		edit(ws)
		return withSection(golden, SecGraph, func(p []byte) []byte { return appendUvarints(p[:13:13], ws) })
	}
	firstGap := slices.IndexFunc(gw, func(c uint32) bool { return c > 0 }) + 1
	if firstGap < 1 {
		tb.Fatal("the golden graph has no edge")
	}
	return []V1Case{
		{"a shared count longer than the previous shape", "shares",
			dict(func(sh [][]uint32) { sh[last][0] = deg(sh, last-1) + 1 })},
		{"a child as high as its shape", "child label", dict(func(sh [][]uint32) { sh[lone][2] = uint32(lone) })},
		{"a repeated shape", "duplicates", dict(func(sh [][]uint32) { sh[last] = []uint32{deg(sh, last-1), 0} })},
		{"a count that runs past the payload", "more child labels", dict(func(sh [][]uint32) { sh[last][1] = 1 << 20 })},
		{"a gap that runs past the nodes", "past its", graphWith(func(ws []uint32) { ws[firstGap] = nodes + 1 })},
		{"a neighbour count that runs past the payload", "neighbours with",
			graphWith(func(ws []uint32) { ws[0] = 1 << 20 })},
	}
}

// The reader rejects a dictionary or graph that checksums but could not
// have been written with ErrInconsistent: one whose shapes share more
// labels than the previous one has, whose child labels do not come
// before their shape, that repeats a shape or whose counts outrun the
// section, or a graph whose gaps outrun its nodes or whose counts
// outrun the section.
func TestSegmentRejectsBadDictionaries(t *testing.T) {
	for _, c := range badDicts(t) {
		_, _, _, _, _, err := Read(bytes.NewReader(c.Blob))
		if !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), c.Want) {
			t.Errorf("%s: got %v, want ErrInconsistent mentioning %q", c.What, err, c.Want)
		}
	}
}

// A dictionary whose front coding would expand past maxExpansion times
// its bytes — stars of every degree, each one leaf more than the last —
// is written sharing fewer labels and reads back whole; the same
// dictionary front-coded in full fails with ErrInconsistent before the
// reader allocates its expansion.
func TestSegmentDictionaryExpansionIsBounded(t *testing.T) {
	const stars = 600
	off, kids := []int32{0, 0}, []int32(nil)
	for d := 1; d <= stars; d++ {
		kids = append(kids, make([]int32, d)...)
		off = append(off, int32(len(kids)))
	}
	dict, err := tree.NewInternerFromKids(off, kids)
	if err != nil {
		t.Fatal(err)
	}
	blob := encode(t, Meta{Backend: "pruned", K: 2}, dict, nil, [][]ned.Item{nil})
	_, _, got, _, _, err := Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want, _ := dict.Coded()
	if keys, _ := got.Coded(); !bytes.Equal(keys, want) {
		t.Fatal("the dictionary does not read back whole")
	}
	types, payloads := sections(blob)
	if p := payloads[bytes.IndexByte(types, SecDict)]; len(want) > maxExpansion*len(p) || len(want) < maxExpansion*len(p)/2 {
		t.Errorf("%d key bytes in a %d-byte section: the writer should share labels up to %d times the section", len(want), len(p), maxExpansion)
	}
	full := withSection(blob, SecDict, func([]byte) []byte {
		p := binary.AppendUvarint(nil, stars+1)
		p = append(p, 0, 0, 0, 1, 0) // the leaf; one leaf, coded afresh
		for d := 2; d <= stars; d++ {
			p = binary.AppendUvarint(binary.AppendUvarint(p, uint64(d-1)), 1)
			p = append(p, 0)
		}
		return p
	})
	if _, _, _, _, _, err := Read(bytes.NewReader(full)); !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), "expand to") {
		t.Errorf("the dictionary front-coded in full: got %v, want ErrInconsistent mentioning %q", err, "expand to")
	}
}

// sharedPrefix counts what a byte-by-byte walk counts: the whole
// uvarints two runs begin with, and their bytes.
func TestSharedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 20000 {
		a := make([]byte, rng.Intn(40))
		for i := range a {
			a[i] = byte(rng.Intn(4)) | byte(rng.Intn(2))<<7
		}
		b := append(slices.Clone(a[:rng.Intn(len(a)+1)]), make([]byte, rng.Intn(20))...)
		for i := len(b) - rng.Intn(len(b)+1); i < len(b); i++ {
			b[i] = byte(rng.Intn(4)) | byte(rng.Intn(2))<<7
		}
		wantCount, wantLen := 0, 0
		for c := 0; c < len(a) && c < len(b) && a[c] == b[c]; c++ {
			if a[c] < 0x80 {
				wantCount, wantLen = wantCount+1, c+1
			}
		}
		if count, length := sharedPrefix(a, b); count != wantCount || length != wantLen {
			t.Fatalf("sharedPrefix(%x, %x) = %d, %d; want %d, %d", a, b, count, length, wantCount, wantLen)
		}
	}
}

// kidRuns is each shape's sorted child labels, in ID order.
func kidRuns(dict *tree.Interner) [][]int32 {
	runs := make([][]int32, dict.Len())
	for id := range runs {
		runs[id] = dict.Kids(int32(id), nil)
	}
	return runs
}

// The reader checks every stored label against the shapes around it: a
// table that checksums but disagrees with its dictionary fails with
// ErrInconsistent, never a panic or a wrong corpus.
func TestSegmentV3RejectsInconsistentTables(t *testing.T) {
	meta, dict, g, _ := fixture(t, false, 1)
	items := ned.BuildItems(g, []graph.NodeID{0, 1, 2, 3, 4, 5, 6}, 2, false, 1)
	ned.ProfileItems(items, dict, 1)
	items = append(items, nonBFSItem(dict))
	blob := encode(t, meta, dict, g, [][]ned.Item{items})
	words := tableWords(blob, 0)
	shapes := kidRuns(dict)

	// Walk the table: per item, where its tree's header word sits.
	type treeAt struct{ hdr, m int }
	var trees []treeAt
	for pos, i := 1, 0; i < int(words[0]); i++ {
		pos++ // the node's delta
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
	if tall.m != 1+len(shapes[words[tall.hdr+1]]) {
		t.Fatalf("fixture holds no tree of height 2 (found %+v)", tall)
	}
	root := tall.hdr + 1
	first1 := root + 1 // the first level-1 label
	// Shapes to swap in: one with a non-leaf kid, and an all-leaf one
	// (a node with leaf children only) other than first1's own.
	nonLeaf, star := -1, -1
	for id, kids := range shapes {
		if len(kids) == 0 {
			continue
		}
		if kids[len(kids)-1] != 0 {
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
		_, _, _, _, _, err := Read(bytes.NewReader(rewrite(blob, 0, c.word, c.v)))
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

// HostileUvarints are the golden segment with one uvarint of its first
// item table, its dictionary or its graph made malformed — longer than 5 bytes,
// not minimal, past int32 or 32 bits, or running past its section —
// under recomputed checksums, and what Read's error must mention.
func HostileUvarints(t testing.TB) []V1Case {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	// The first table's item count is its first byte; its first item's
	// node delta and out-row header follow.
	if types, payloads := sections(blob); types[3] != SecShard || payloads[3][0] >= 0x80 {
		t.Fatal("the golden's first item table does not start with a one-byte count")
	}
	table := func(edit func([]byte) []byte) []byte { return withTable(blob, 0, edit) }
	dict := func(edit func([]byte) []byte) []byte { return withSection(blob, SecDict, edit) }
	// The golden's first node has neighbours: its count is the graph's
	// first byte past the header, its first gap the second.
	adj := func(edit func([]byte) []byte) []byte { return withSection(blob, SecGraph, edit) }
	if _, payloads := sections(blob); payloads[2][13] == 0 || payloads[2][13] >= 0x80 || payloads[2][14] >= 0x80 {
		t.Fatal("the golden's graph does not start with a one-byte count and gap")
	}
	return []V1Case{
		{"an item count longer than 5 bytes", "longer than 5 bytes",
			table(func(p []byte) []byte { return append([]byte{p[0] | 0x80, 0x80, 0x80, 0x80, 0x80, 0}, p[1:]...) })},
		{"a non-minimal item count", "not minimal",
			table(func(p []byte) []byte { return append([]byte{p[0] | 0x80, 0}, p[1:]...) })},
		{"an item count past int32", "past int32",
			table(func(p []byte) []byte { return append(binary.AppendUvarint(nil, 1<<31), p[1:]...) })},
		{"a node past int32", "past int32",
			table(func(p []byte) []byte { return append(binary.AppendUvarint(p[:1:1], math.MaxUint32), p[2:]...) })},
		{"a header word past 32 bits", "exceeds 32 bits",
			table(func(p []byte) []byte { return append(append(p[:2:2], 0xff, 0xff, 0xff, 0xff, 0x1f), p[3:]...) })},
		{"a label running past its section", "runs past the end",
			table(func(p []byte) []byte { p[len(p)-1] |= 0x80; return p })},
		{"a dictionary shared count past int32", "past int32",
			dict(func(p []byte) []byte { return append(append(p[:1:1], 0x80, 0x80, 0x80, 0x80, 0x08), p[2:]...) })},
		{"a non-minimal dictionary shared count", "not minimal",
			dict(func(p []byte) []byte { return append(append(p[:1:1], p[1]|0x80, 0), p[2:]...) })},
		{"a graph gap past int32", "past int32",
			adj(func(p []byte) []byte { return append(append(p[:14:14], 0x80, 0x80, 0x80, 0x80, 0x08), p[15:]...) })},
		{"a non-minimal graph count", "not minimal",
			adj(func(p []byte) []byte { return append(append(p[:13:13], p[13]|0x80, 0), p[14:]...) })},
		// 200 nodes, the last listing two neighbours in the two bytes
		// left, the first of them a two-byte gap.
		{"a graph gap running past its section", "runs past the end",
			adj(func([]byte) []byte {
				p := binary.LittleEndian.AppendUint64(append(binary.LittleEndian.AppendUint32(nil, 200), 1), 2)
				return append(append(p, make([]byte, 199)...), 2, 0x81, 0x01)
			})},
	}
}

// The reader rejects every malformed uvarint with ErrInconsistent,
// reading nothing past the payload.
func TestSegmentRejectsHostileUvarints(t *testing.T) {
	for _, c := range HostileUvarints(t) {
		_, _, _, _, _, err := Read(bytes.NewReader(c.Blob))
		if !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), c.Want) {
			t.Errorf("%s: got %v, want ErrInconsistent mentioning %q", c.What, err, c.Want)
		}
	}
}

// V2Cases rewrites one word of the NEDSEG02 golden's first item table,
// under a recomputed checksum, in the first tree that stores more than
// its root: each case checksums, and its words convert, but its labels
// disagree with the dictionary. Read rejects them all by their magic;
// internal/legacy's conversion by their labels, with ErrInconsistent.
func V2Cases(t testing.TB) []V1Case {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden-v2.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	var off, kids []uint32 // the dictionary, as its CSR words
	for at := len(Magic); at < len(blob); {
		n := int(binary.LittleEndian.Uint64(blob[at+1:]))
		words := make([]uint32, n/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(blob[at+9+4*i:])
		}
		if blob[at] == SecDict {
			off, kids = words[1:words[0]+2], words[words[0]+2:]
		}
		if blob[at] != SecShard {
			at += 9 + n + 4
			continue
		}
		set := func(i int, v uint32) []byte {
			out := bytes.Clone(blob)
			binary.LittleEndian.PutUint32(out[at+9+4*i:], v)
			binary.LittleEndian.PutUint32(out[at+9+n:], crc32.Checksum(out[at+9:at+9+n], castagnoli))
			return out
		}
		shapes := uint32(len(off) - 1)
		// Shapes to swap in: one with a non-leaf kid, and an all-leaf one.
		nonLeaf, star := uint32(0), uint32(0)
		for id := range shapes {
			if run := kids[off[id]:off[id+1]]; len(run) > 0 && run[len(run)-1] != 0 {
				nonLeaf = id
			} else if len(run) > 0 && star == 0 {
				star = id
			}
		}
		for pos, i := 2, 0; i < int(words[1]); i++ {
			pos += 3
			for range 1 + int(words[pos-1]&1) {
				m := int(words[pos])
				if m < 2 || words[pos+2] == star {
					pos += 1 + m
					continue
				}
				root, first1 := pos+1, pos+2
				return []V1Case{
					{"a label outside the dictionary", "outside the dictionary", set(root, shapes)},
					{"a stored level with no children", "has no children", set(root, 0)},
					{"a level h-1 node with a non-leaf kid", "non-leaf kid", set(first1, nonLeaf)},
					{"children differing from their parent's shape", "do not carry", set(first1, star)},
				}
			}
		}
		break
	}
	t.Fatal("the NEDSEG02 golden's first item table holds no tree to rewrite")
	return nil
}

// V1Case is the NEDSEG01 golden with one word of a tree's columns
// rewritten under a recomputed checksum, and what the error of its
// conversion must mention.
type V1Case struct {
	What, Want string
	Blob       []byte
}

// V1Cases rewrites the first tree of the NEDSEG01 golden whose height is
// 2 or more and whose level 1 holds two distinct labels: each case
// checksums, but its columns are ones NEDSEG02 cannot express. The last
// two the loader of the NEDSEG01 columns accepted. Read rejects them
// all by their magic; internal/legacy's conversion by their columns.
func V1Cases(t testing.TB) []V1Case {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "golden-v1.nedseg"))
	if err != nil {
		t.Fatal(err)
	}
	var shapes uint32 // the dictionary section's shape count
	for off := len(Magic); off < len(blob); {
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		if blob[off] == SecDict {
			shapes = binary.LittleEndian.Uint32(blob[off+9:])
		}
		if blob[off] != SecShard {
			off += 9 + n + 4
			continue
		}
		at, words := off+9, make([]uint32, n/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(blob[at+4*i:])
		}
		for pos, i := 2, 0; i < int(words[1]); i++ {
			trees := 1 + int(words[pos+2]&1)
			pos += 3
			for range trees {
				size := int(words[pos])
				parents := make([]int32, size)
				for v := range parents {
					parents[v] = int32(words[pos+1+v])
				}
				tr := tree.MustNew(parents)
				// The word indices of the columns of tree tr.
				labels, perm, kids := pos+1+size, pos+1+2*size, pos+1+3*size
				lo, _ := tr.LevelRange(1)
				l1 := labels + int(lo)
				if tr.Height() < 2 || tr.LevelSize(1) < 2 || words[l1] == words[l1+1] {
					pos += 4 * size
					continue
				}
				// Word i set to v under a recomputed checksum.
				set := func(blob []byte, i int, v uint32) []byte {
					out := bytes.Clone(blob)
					binary.LittleEndian.PutUint32(out[at+4*i:], v)
					binary.LittleEndian.PutUint32(out[at+n:], crc32.Checksum(out[at:at+n], castagnoli))
					return out
				}
				root := words[labels]
				lastRootKid := kids + tr.NumChildren(0) - 1
				return []V1Case{
					{"a label outside the dictionary", "outside the dictionary", set(blob, labels, shapes)},
					{"a negative label", "outside the dictionary", set(blob, labels, math.MaxUint32)},
					{"a perm entry outside its level", "perm of level 1 is not a permutation", set(blob, perm+int(lo), uint32(tr.LevelSize(1)))},
					{"labels unsorted within a level", "labels of level 1 not sorted",
						set(set(blob, l1, words[l1+1]), l1+1, words[l1])},
					{"a non-leaf label on the deepest level", "deepest level", set(blob, labels+size-1, root)},
					{"a non-leaf kid on level h-1", "kid run", set(blob, kids+size-2, root)},
					{"a perm that repeats a node", "perm of level 1 is not a permutation", set(blob, perm+int(lo)+1, words[perm+int(lo)])},
					// Still sorted and in the dictionary: the root's largest kid
					// becomes the largest shape, which is not the root's kid.
					{"a kid run that is not its label's shape", "kid run", set(blob, lastRootKid, shapes-1)},
				}
			}
		}
		break
	}
	t.Fatal("the NEDSEG01 golden's first item table holds no tree to rewrite")
	return nil
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
// allocates no more than the payload's length; so does decoding a dict
// or graph section that declares more labels, neighbours or nodes than
// it holds. The table holds 400 nodes, so the payload (~3 KB) outweighs
// a failed decode's fixed cost (its error, its worker: ~0.9 KB, ~1.3 KB
// under the race detector).
func TestSegmentPresizingTrustsOnlyPayload(t *testing.T) {
	g := fixtureGraph(400, 900, false, 42)
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	items := ned.BuildItems(g, nodes, 2, false, 2)
	dict := tree.NewInterner()
	ned.ProfileItems(items, dict, 1)
	meta := Meta{Backend: "pruned", K: 2}
	blob := encode(t, meta, dict, g, [][]ned.Item{items})
	var off, kids []int32
	off = append(off, 0)
	for id := range int32(dict.Len()) {
		kids = dict.Kids(id, kids)
		off = append(off, int32(len(kids)))
	}
	sh := newShapeTable(off, kids)
	meta.Shards = 1
	cases := []struct {
		what, want string
		word       int
		v          uint32
	}{
		{"more rows", "declares 268435456 items", 0, 1 << 28},
		{"more stored labels", "tree declares 1073741824 stored labels", 2, 1 << 30},
	}
	for _, c := range cases {
		mut := rewrite(blob, 0, c.word, c.v)
		if _, _, _, _, _, err := Read(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Read got %v, want an error mentioning %q", c.what, err, c.want)
		}
		_, payloads := sections(mut)
		payload := bytes.Clone(payloads[3])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeTables([][]byte{payload}, meta, dict, sh)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decoding the table got %v, want an error mentioning %q", c.what, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(payload)) {
			t.Errorf("%s: decoding a %d-byte table allocated %d bytes", c.what, len(payload), got)
		}
	}

	// The dictionary and the graph size what they allocate by a first
	// pass too: a count that runs past the payload fails it.
	types, payloads := sections(blob)
	dictP, graphP := payloads[bytes.IndexByte(types, SecDict)], payloads[bytes.IndexByte(types, SecGraph)]
	shapes, _, _ := uvCount(dictP, 0)
	dictWords := uvarints(dictP)
	for at := 1; at < len(dictWords); at += 2 + int(dictWords[at+1]) {
		if at+2+int(dictWords[at+1]) >= len(dictWords) {
			dictWords[at+1] = 1 << 28 // the last shape's rest count
		}
	}
	graphWords := uvarints(graphP[13:])
	graphWords[0] = 1 << 28 // the first node's neighbour count
	decodeD := func(p []byte) error { _, _, _, _, err := decodeDict(p, shapes); return err }
	decodeG := func(p []byte) error { _, err := decodeGraph(p); return err }
	for _, c := range []struct {
		what, want string
		decode     func([]byte) error
		payload    []byte
	}{
		{"more child labels", "declares 268435456 more child labels", decodeD, appendUvarints(nil, dictWords)},
		{"more neighbours", "declares 268435456 neighbours", decodeG, appendUvarints(bytes.Clone(graphP[:13]), graphWords)},
		{"more nodes", "graph declares 1073741824 nodes", decodeG,
			append(binary.LittleEndian.AppendUint32(nil, 1<<30), graphP[4:]...)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrInconsistent) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrInconsistent mentioning %q", c.what, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(c.payload)) {
			t.Errorf("%s: decoding a %d-byte section allocated %d bytes", c.what, len(c.payload), got)
		}
	}
}
