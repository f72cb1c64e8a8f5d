package ned

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"strings"
	"testing"

	"ned/internal/legacy"
	"ned/internal/ned"
	"ned/internal/segment"
)

// Old bytes keep loading. Builds before the scan-only engine wrote a
// backend name into every snapshot header and, on a VP-backed corpus,
// one vantage-point-tree dump per shard into every segment and
// checkpoint. The engine writes neither any more ("pruned", no dumps)
// and reads both in NEDSEG04: names parse and are ignored, dump sections
// are framed and checksummed like any section and then dropped.
//
// Builds before hash-only placement could also move nodes off their hash
// shard and recorded where in a v3 text manifest (base= and a redirect
// line) or a placement section of a NEDSEG01 segment. Nothing writes
// either any more, and LoadCorpus and OpenDurable reject text, NEDSEG01,
// NEDSEG02 and NEDSEG03 with ErrLegacyFormat: the offline converter
// (internal/legacy, nedstats -upgrade) validates them, drops the
// placement and writes NEDSEG04, whose items land in the one scan. The suites below convert
// first and then assert what they asserted when LoadCorpus still read
// these formats. testdata holds three files such a build wrote (commit
// ae70028: `Snapshot`, `SnapshotSegment`, `MakeDurable`+`Checkpoint`): a
// 4-shard corpus over rebalancedGraph at k = 2, shard 0 split into a
// fifth slot, shard 1 folded into it and left an empty husk — redirect
// 0,4,2,3 and nodes 9, 20, 28, 33 moved to slot 4. testdata/v2_durable
// is the durable directory of the NEDSEG02 build (MakeDurable over
// rebalancedGraph at k = 2, then Remove 2, 9, 4 and Insert 4, logged),
// and testdata/v3_durable the same history the NEDSEG03 build (commit
// 0cd1c76) wrote.

const rebalancedK = 2

func rebalancedGraph() *Graph { return randomGraph(40, 80, 2801) }

// sectionsOf walks a segment stream's framing ([type u8][len u64]
// [payload][crc u32] after the 8-byte magic) and returns each section's
// type and the offset of its payload.
func sectionsOf(t *testing.T, blob []byte) (types []byte, payloadAt []int) {
	t.Helper()
	for pos := len(segment.Magic); pos < len(blob); {
		n := int(binary.LittleEndian.Uint64(blob[pos+1:]))
		types, payloadAt = append(types, blob[pos]), append(payloadAt, pos+9)
		pos += 9 + n + 4
	}
	return types, payloadAt
}

// secPlace is the section type of a placement directory.
const secPlace = 7

// upgradeBytes converts a corpus an earlier build wrote as
// `nedstats -upgrade SRC DST` does.
func upgradeBytes(raw []byte) ([]byte, error) {
	var out bytes.Buffer
	_, err := legacy.Upgrade(&out, raw)
	return out.Bytes(), err
}

// loadUpgraded converts raw (upgradeBytes) and loads the result: a
// conversion failure comes back as the converter reports it, a load
// failure as LoadCorpus does.
func loadUpgraded(raw []byte, opts ...CorpusOption) (*Corpus, error) {
	seg, err := upgradeBytes(raw)
	if err != nil {
		return nil, err
	}
	return LoadCorpus(bytes.NewReader(seg), opts...)
}

// upgradedDir copies the durable directory src and converts its
// checkpoints as `nedstats -upgrade DIR` does.
func upgradedDir(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := legacy.UpgradeDir(dir); err != nil {
		t.Fatalf("converting %s: %v", src, err)
	}
	return dir
}

// withSegmentMagic is a legacy segment with the NEDSEG04 magic:
// segment.Verify walks the framing and checksums, which all share.
func withSegmentMagic(b []byte) []byte {
	return append([]byte(segment.Magic), b[len(segment.Magic):]...)
}

// assertLoaded requires c to hold the oracle's nodes in its one scan
// and to answer as the oracle.
func assertLoaded(t *testing.T, label string, c *Corpus, o corpusOracle, seed int64) {
	t.Helper()
	if s := c.Stats(); s.Shards != 1 || s.Nodes != len(o) || fmt.Sprint(s.ShardNodes) != fmt.Sprint([]int{len(o)}) {
		t.Errorf("%s: %d shards holding %v, want one holding %d", label, s.Shards, s.ShardNodes, len(o))
	}
	assertMatchesOracle(t, label, c, o, randomGraph(30, 60, seed), rebalancedK, 5, seed+1)
}

// assertSnapshotsWithoutPlacement requires what c writes back to carry
// no placement section.
func assertSnapshotsWithoutPlacement(t *testing.T, label string, c *Corpus) {
	t.Helper()
	var again bytes.Buffer
	if err := c.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if types, _ := sectionsOf(t, again.Bytes()); bytes.IndexByte(types, secPlace) >= 0 {
		t.Errorf("%s: re-snapshot carries a placement section (sections %v)", label, types)
	}
}

// rebalancedLoads are the ways every placement fixture is loaded: with
// no option, and with the ignored WithShards at 1, 2 and 4.
var rebalancedLoads = []struct {
	opts   []CorpusOption
	shards int
}{
	{nil, 0},
	{[]CorpusOption{WithShards(1)}, 1},
	{[]CorpusOption{WithShards(2)}, 2},
	{[]CorpusOption{WithShards(4)}, 4},
}

// TestTextV3ManifestStillLoads: a v3 manifest with a non-identity
// redirect and moved nodes converts and loads into the one scan; a
// redirect line that disagrees with the header still fails.
func TestTextV3ManifestStillLoads(t *testing.T) {
	raw, err := os.ReadFile("testdata/corpus_v3_rebalanced.nedcorpus")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	const header, redirect = "# ned corpus v3 backend=pruned k=2 directed=0 shards=5 base=4 nodes=40\n", "# redirect 0,4,2,3\n"
	if !strings.HasPrefix(text, header+redirect) {
		t.Fatalf("fixture starts %q", text[:len(header)+len(redirect)])
	}
	g := rebalancedGraph()
	o := oracleOver(g, rebalancedK, allNodes(g))
	for _, ld := range rebalancedLoads {
		c, err := loadUpgraded([]byte(text), ld.opts...)
		if err != nil {
			t.Fatalf("shards=%d: %v", ld.shards, err)
		}
		label := fmt.Sprintf("v3 text, shards=%d", ld.shards)
		assertLoaded(t, label, c, o, 2810)
		assertSnapshotsWithoutPlacement(t, label, c)
	}
	for _, bad := range []string{"# redirect 0,4,2\n", "# redirect 0,4,2,3,1\n", "# redirect 0,5,2,3\n", ""} {
		in := strings.Replace(text, redirect, bad, 1)
		if _, err := upgradeBytes([]byte(in)); err == nil {
			t.Errorf("redirect line %q under base=4 shards=5 converted", bad)
		}
	}
}

// TestSegmentWithPlacementStillLoads: a NEDSEG01 segment carrying a
// placement section converts, loads into the one scan and re-snapshots
// without the section; the section is still framed, checksummed,
// validated and used for the filing check.
func TestSegmentWithPlacementStillLoads(t *testing.T) {
	old, err := os.ReadFile("testdata/rebalanced.nedseg")
	if err != nil {
		t.Fatal(err)
	}
	types, payloadAt := sectionsOf(t, old)
	pi := bytes.IndexByte(types, secPlace)
	if pi < 0 {
		t.Fatalf("fixture carries no placement section (sections %v)", types)
	}
	g := rebalancedGraph()
	o := oracleOver(g, rebalancedK, allNodes(g))
	for _, ld := range rebalancedLoads {
		c, err := loadUpgraded(old, ld.opts...)
		if err != nil {
			t.Fatalf("shards=%d: %v", ld.shards, err)
		}
		label := fmt.Sprintf("segment with placement, shards=%d", ld.shards)
		assertLoaded(t, label, c, o, 2820)
		assertSnapshotsWithoutPlacement(t, label, c)
		if !c.HasGraph() {
			t.Errorf("%s: embedded graph lost", label)
		}
	}

	// Payload: base u32, shards u32, redirect 4×u32, moves u64, then
	// (node, shard) pairs. A flipped bit anywhere fails the checksum.
	bad := append([]byte(nil), old...)
	bad[payloadAt[pi]+8] ^= 0x01
	if err := segment.Verify(bytes.NewReader(withSegmentMagic(bad))); err == nil {
		t.Error("Verify accepted a corrupted placement section")
	}
	if _, err := upgradeBytes(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("converting a corrupted placement section: got %v, want a checksum mismatch", err)
	}

	// The same edits re-checksummed are faithful bytes of an inconsistent
	// file: a bucket routed out of range, and node 9's move sent to shard
	// 2 while its item still sits in shard 4's table.
	reframed := func(at int, v uint32) []byte {
		out := append([]byte(nil), old...)
		binary.LittleEndian.PutUint32(out[payloadAt[pi]+at:], v)
		end := payloadAt[pi+1] - 9 - 4
		sum := crc32.Checksum(out[payloadAt[pi]:end], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(out[end:], sum)
		return out
	}
	if first := binary.LittleEndian.Uint32(old[payloadAt[pi]+32:]); first != 9 {
		t.Fatalf("fixture's first move is node %d, want 9", first)
	}
	for what, in := range map[string][]byte{
		"routes to shard":    reframed(8, 5),
		"filed under shard":  reframed(36, 2),
		"moves node 9 to sh": reframed(36, 5),
	} {
		if err := segment.Verify(bytes.NewReader(withSegmentMagic(in))); err != nil {
			t.Fatalf("%s: re-checksummed edit no longer verifies: %v", what, err)
		}
		if _, err := upgradeBytes(in); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("converting: got %v, want an error mentioning %q", err, what)
		}
	}
}

// TestDurableOpensCheckpointWithPlacement: a durable directory whose
// NEDSEG01 checkpoint carries a placement section converts, opens,
// replays its WAL tail (Remove 2, 9, 4; Insert 4 — node 9 one of the
// moved), and cuts its next checkpoint without the section.
func TestDurableOpensCheckpointWithPlacement(t *testing.T) {
	const src = "testdata/rebalanced_durable"
	g := rebalancedGraph()
	var live []NodeID
	for _, v := range allNodes(g) {
		if v != 2 && v != 9 {
			live = append(live, v)
		}
	}
	o := oracleOver(g, rebalancedK, live)
	_, path, ok, err := segment.LatestCheckpoint(src)
	if err != nil || !ok {
		t.Fatalf("fixture has no checkpoint: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if types, _ := sectionsOf(t, raw); bytes.IndexByte(types, secPlace) < 0 {
		t.Fatalf("fixture checkpoint carries no placement section (sections %v)", types)
	}
	for _, ld := range rebalancedLoads {
		// OpenDurable appends to the log and retires generations: work on a
		// converted copy.
		dir := upgradedDir(t, src)
		re, err := OpenDurable(dir, FsyncNone, ld.opts...)
		if err != nil {
			t.Fatalf("shards=%d: OpenDurable: %v", ld.shards, err)
		}
		label := fmt.Sprintf("durable with placement, shards=%d", ld.shards)
		assertLoaded(t, label, re, o, 2830)
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_, path, _, _ := segment.LatestCheckpoint(dir)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if types, _ := sectionsOf(t, raw); bytes.IndexByte(types, secPlace) >= 0 {
			t.Errorf("%s: new checkpoint carries a placement section (sections %v)", label, types)
		}
		if err := re.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyVPDumps fabricates the per-shard index sections an older build
// wrote: one preorder chain over each shard's items. The codec checks
// that a dump covers its shard; the radii and topology were only ever
// read by the tree restore this engine no longer has.
func legacyVPDumps(shardItems [][]ned.Item) []segment.VPIndex {
	dumps := make([]segment.VPIndex, len(shardItems))
	for si, items := range shardItems {
		for i, it := range items {
			dumps[si].Nodes = append(dumps[si].Nodes,
				segment.VPNode{Node: it.Node, Radius: float64(i) * 1.5, Inside: i+1 < len(items)})
		}
	}
	return dumps
}

// legacySegment serializes one view of c the way a VP-backed corpus of
// an older build did: Meta.Backend "vp" and a dump per shard.
func legacySegment(t *testing.T, c *Corpus, v *corpusView) []byte {
	t.Helper()
	meta := segment.Meta{Backend: "vp", K: c.k, Directed: c.cfg.directed}
	items := itemTables(v.items())
	var buf bytes.Buffer
	if err := segment.Write(&buf, meta, c.dict, v.g, items, legacyVPDumps(items)); err != nil {
		t.Fatalf("segment.Write with VP dumps: %v", err)
	}
	return buf.Bytes()
}

// TestSegmentWithVPDumpsStillLoads: a segment stream carrying
// Meta.Backend "vp" and per-shard VP dumps loads, serves from the scan
// with answers equal to the oracle, and re-snapshots without dumps; a
// flipped byte inside a dump section still fails Verify and LoadCorpus.
func TestSegmentWithVPDumpsStillLoads(t *testing.T) {
	const k = 2
	g := randomGraph(80, 170, 930)
	gq := randomGraph(50, 100, 931)
	c, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	old := legacySegment(t, c, c.view.Load())
	if _, _, _, _, dumps, err := segment.Read(bytes.NewReader(old)); err != nil || len(dumps) == 0 || len(dumps[0].Nodes) == 0 {
		t.Fatalf("fixture carries no dumps: %d sections, err %v", len(dumps), err)
	}

	loaded, err := LoadCorpus(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("LoadCorpus of a segment with VP dumps: %v", err)
	}
	if s := loaded.Stats(); s.Backend.String() != "pruned" || s.Shards != 1 || s.Nodes != g.NumNodes() || !s.Built {
		t.Fatalf("restored stats %+v, want a built pruned corpus of %d nodes", s, g.NumNodes())
	}
	assertMatchesOracle(t, "loaded", loaded, oracleOver(g, k, allNodes(g)), gq, k, 8, 932)

	// What the engine writes back carries no index sections.
	var again bytes.Buffer
	if err := loaded.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	meta, _, _, _, dumps, err := segment.Read(bytes.NewReader(again.Bytes()))
	if err != nil || dumps != nil || meta.Backend != "pruned" {
		t.Errorf("re-snapshot: backend %q, %d dump sections, err %v; want \"pruned\", none", meta.Backend, len(dumps), err)
	}

	// The dump sections sit between the shard sections and the end
	// marker, which the dump-free re-snapshot of the same items shares:
	// the last byte before the common suffix is inside the last dump.
	suffix := 0
	for suffix < len(old) && old[len(old)-1-suffix] == again.Bytes()[again.Len()-1-suffix] {
		suffix++
	}
	bad := append([]byte(nil), old...)
	bad[len(bad)-1-suffix] ^= 0x40
	if err := segment.Verify(bytes.NewReader(bad)); err == nil {
		t.Error("Verify accepted a corrupted dump section")
	}
	if _, err := LoadCorpus(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("LoadCorpus of a corrupted dump section: got %v, want ErrBadSnapshot", err)
	}
}

// TestDurableOpensCheckpointWithVPDumps: a durable directory whose
// checkpoint an older VP-backed build wrote opens, replays its WAL tail
// onto the checkpoint's items, and answers as the oracle does; the next
// checkpoint it cuts is dump-free.
func TestDurableOpensCheckpointWithVPDumps(t *testing.T) {
	const k = 2
	g := randomGraph(80, 170, 960)
	gq := randomGraph(50, 100, 961)
	dir := t.TempDir()

	c, err := NewCorpus(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	old := legacySegment(t, c, c.view.Load())
	if err := c.Remove(2, 4); err != nil { // the WAL tail
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segment.CheckpointPath(dir, 0), old, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatalf("OpenDurable over a checkpoint with VP dumps: %v", err)
	}
	defer re.CloseDurable()
	var live []NodeID
	for _, v := range allNodes(g) {
		if v != 2 && v != 4 {
			live = append(live, v)
		}
	}
	assertMatchesOracle(t, "reopened", re, oracleOver(g, k, live), gq, k, 6, 962)

	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, path, ok, err := segment.LatestCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after Checkpoint: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, dumps, err := segment.Read(bytes.NewReader(raw)); err != nil || dumps != nil {
		t.Errorf("new checkpoint: %d dump sections, err %v; want none", len(dumps), err)
	}
}

// TestTextHeadersNamingRetiredBackendsLoad: text v1 and v2 snapshots
// whose header names a tree or the wide scan convert, load and serve
// from the scan; an unknown name is still a bad snapshot.
func TestTextHeadersNamingRetiredBackendsLoad(t *testing.T) {
	raw, err := os.ReadFile("testdata/corpus_v3_rebalanced.nedcorpus")
	if err != nil {
		t.Fatal(err)
	}
	// The v2 dialect is the v3 fixture without base= and the redirect
	// line; the v1 dialect is one header and no shard sections.
	lines := strings.Split(string(raw), "\n")
	v2 := strings.Replace(lines[0], "v3", "v2", 1)
	v2 = strings.Replace(v2, " base=4", "", 1) + "\n" + strings.Join(lines[2:], "\n")
	var v1 strings.Builder
	fmt.Fprintf(&v1, "# ned corpus v1 backend=pruned k=%d directed=0 nodes=40\n", rebalancedK)
	for _, line := range lines[2:] {
		if line != "" && !strings.HasPrefix(line, "#") {
			v1.WriteString(line + "\n")
		}
	}
	g := rebalancedGraph()
	gq := randomGraph(30, 60, 971)
	o := oracleOver(g, rebalancedK, allNodes(g))
	for _, text := range []string{v2, v1.String()} {
		for _, name := range []string{"vp", "bk", "linear"} {
			in := strings.Replace(text, "backend=pruned", "backend="+name, 1)
			loaded, err := loadUpgraded([]byte(in))
			if err != nil {
				t.Fatalf("%s: %v", in[:strings.IndexByte(in, '\n')], err)
			}
			if got := loaded.Stats().Backend.String(); got != "pruned" {
				t.Errorf("backend=%s header: Stats().Backend = %q, want \"pruned\"", name, got)
			}
			assertMatchesOracle(t, "backend="+name, loaded, o, gq, rebalancedK, 3, 972)
		}
		in := strings.Replace(text, "backend=pruned", "backend=zorp", 1)
		if _, err := loadUpgraded([]byte(in)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("backend=zorp header: got %v, want ErrBadSnapshot", err)
		}
	}
}

// Builds before named-node records logged every Insert as a version-1
// frame carrying the whole tree. testdata/v1wal_durable holds two
// durable directories such a build wrote (commit 725ac61: NewCorpus over
// the first 30 nodes at k = 2, MakeDurable, then Removes and Inserts,
// closed without a checkpoint), one undirected over
// randomGraph(40, 80, 3901), one directed over
// randomDirectedGraph(40, 90, 3902). Their logs must replay — trees and
// all — to answers node-identical to the oracle, and keep replaying once
// this build appends version-2 frames behind them. Their checkpoints are
// NEDSEG01, so each directory is converted (nedstats -upgrade DIR)
// first; the logs are not touched.
func TestDurableOpensV1WALWithTrees(t *testing.T) {
	const k = 2
	live := map[NodeID]bool{30: true, 32: true, 35: true}
	for v := 0; v < 30; v++ {
		live[NodeID(v)] = true
	}
	for _, v := range []NodeID{3, 5, 11, 29} {
		delete(live, v)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		opts []CorpusOption
	}{
		{"undirected", randomGraph(40, 80, 3901), nil},
		{"directed", randomDirectedGraph(40, 90, 3902), []CorpusOption{WithDirected()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "testdata/v1wal_durable/" + tc.name
			raw, err := os.ReadFile(segment.WALPath(src, 0))
			if err != nil {
				t.Fatal(err)
			}
			recs, _, err := segment.DecodeWAL(raw)
			if err != nil {
				t.Fatal(err)
			}
			var trees, deletes int
			for off := 0; off < len(raw); off += 8 + int(binary.LittleEndian.Uint32(raw[off:])) {
				if raw[off+8] != 1 {
					t.Fatalf("fixture frame at %d is version %d, want 1", off, raw[off+8])
				}
			}
			for _, rec := range recs {
				trees += len(rec.Upserts)
				deletes += len(rec.Deletes)
			}
			if trees == 0 || deletes == 0 {
				t.Fatalf("fixture log holds %d upserted trees and %d deletes, want both", trees, deletes)
			}

			dir := upgradedDir(t, src)
			check := func(label string, live map[NodeID]bool) {
				t.Helper()
				c, err := OpenDurable(dir, FsyncNone)
				if err != nil {
					t.Fatalf("%s: OpenDurable: %v", label, err)
				}
				defer c.CloseDurable()
				if got, want := corpusState(c), freshState(t, tc.g, live, k, tc.opts...); got != want {
					t.Fatalf("%s: recovered state differs from a fresh build:\n got %s\nwant %s", label, got, want)
				}
				if tc.opts == nil {
					assertMatchesOracle(t, label, c, oracleOver(tc.g, k, sortedNodes(live)), randomGraph(30, 60, 3903), k, 6, 3904)
					return
				}
				for _, v := range sortedNodes(live)[:6] {
					got, err := c.KNN(context.Background(), v, 5)
					if err != nil {
						t.Fatal(err)
					}
					var want []Neighbor
					for _, nb := range directedRanking(tc.g, v, k) {
						if live[nb.Node] && len(want) < 5 {
							want = append(want, nb)
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: KNN(%d) %v, oracle %v", label, v, got, want)
					}
				}
			}
			check("version-1 log", live)

			// A version-2 frame appended behind the version-1 tail.
			c, err := OpenDurable(dir, FsyncNone)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Insert(36); err != nil {
				t.Fatal(err)
			}
			if err := c.CloseDurable(); err != nil {
				t.Fatal(err)
			}
			live36 := maps.Clone(live)
			live36[36] = true
			check("version-1 log plus a version-2 frame", live36)
		})
	}
}

// A log an older build wrote keeps its frames and takes this build's
// behind them: testdata/v2_durable's wal-00000000.log holds a version-1
// frame (Remove 2, 9, 4) and a version-2 one (Insert 4). Reopened
// (checkpoint converted, log untouched), the corpus removes nodes given
// unsorted, inserts, and moves to a graph with four more nodes; those
// version-3 frames land behind the old ones in the same file, and the
// reopened directory answers as the oracle over the last graph does.
func TestDurableMixedVersionLog(t *testing.T) {
	g := rebalancedGraph()
	dir := upgradedDir(t, "testdata/v2_durable")
	path := segment.WALPath(dir, 0)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(17, 5, 17); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(2, 9); err != nil {
		t.Fatal(err)
	}
	g2 := editedGraph(g, 44, 4401)
	if _, err := c.UpdateGraph(g2); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(42); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, old) {
		t.Fatal("the older build's frames did not survive the appends")
	}
	if got := walFrameVersions(t, path); string(got) != "\x01\x02\x03\x03\x03\x03" {
		t.Fatalf("frame versions %v, want [1 2 3 3 3 3]", got)
	}
	live := map[NodeID]bool{42: true}
	for _, v := range allNodes(g) {
		if v != 5 && v != 17 {
			live[v] = true
		}
	}
	re, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseDurable()
	if got, want := corpusState(re), freshState(t, g2, live, rebalancedK); got != want {
		t.Fatalf("reopened state differs from a fresh build:\n got %s\nwant %s", got, want)
	}
	assertLoaded(t, "mixed-version log", re, oracleOver(g2, rebalancedK, sortedNodes(live)), 2870)
}

// reopenFromCheckpoint checkpoints c (making it durable in a fresh
// directory first if it is not), closes it, requires the newest
// checkpoint to be a NEDSEG04 segment, and reopens the directory.
func reopenFromCheckpoint(t *testing.T, label string, c *Corpus, dir string) *Corpus {
	t.Helper()
	if _, _, durable := c.DurableStats(); durable {
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("%s: Checkpoint: %v", label, err)
		}
	} else if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatalf("%s: MakeDurable: %v", label, err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	_, path, _, err := segment.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(segment.Magic)) || segment.Magic != "NEDSEG04" {
		t.Fatalf("%s: checkpoint starts %q, want NEDSEG04", label, raw[:8])
	}
	re, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatalf("%s: OpenDurable from the NEDSEG04 checkpoint: %v", label, err)
	}
	return re
}

// TestOldBytesReopenFromNEDSEG04: every old-bytes fixture converts and
// loads, and after one checkpoint — which writes NEDSEG04, each tree as
// its row's bytes — reopens from it with answers equal to the oracle's.
func TestOldBytesReopenFromNEDSEG04(t *testing.T) {
	g := rebalancedGraph()
	o := oracleOver(g, rebalancedK, allNodes(g))
	for _, path := range []string{"testdata/corpus_v3_rebalanced.nedcorpus", "testdata/rebalanced.nedseg"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := loadUpgraded(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		re := reopenFromCheckpoint(t, path, c, t.TempDir())
		assertLoaded(t, path+" reopened", re, o, 2850)
		re.CloseDurable()
	}

	open := func(dir string) *Corpus {
		c, err := OpenDurable(dir, FsyncNone)
		if err != nil {
			t.Fatalf("%s: OpenDurable: %v", dir, err)
		}
		return c
	}

	// The durable directory with a placement section: Remove 2, 9, 4 and
	// Insert 4 in its log.
	live := map[NodeID]bool{}
	for _, v := range allNodes(g) {
		if v != 2 && v != 9 {
			live[v] = true
		}
	}
	for _, src := range []string{"rebalanced_durable", "v2_durable", "v3_durable"} {
		dir := upgradedDir(t, "testdata/"+src)
		re := reopenFromCheckpoint(t, src, open(dir), dir)
		assertLoaded(t, src+" reopened", re, oracleOver(g, rebalancedK, sortedNodes(live)), 2860)
		re.CloseDurable()
	}

	// The version-1 logs (see TestDurableOpensV1WALWithTrees).
	const k = 2
	live = map[NodeID]bool{30: true, 32: true, 35: true}
	for v := NodeID(0); v < 30; v++ {
		live[v] = true
	}
	for _, v := range []NodeID{3, 5, 11, 29} {
		delete(live, v)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		opts []CorpusOption
	}{
		{"undirected", randomGraph(40, 80, 3901), nil},
		{"directed", randomDirectedGraph(40, 90, 3902), []CorpusOption{WithDirected()}},
	} {
		dir := upgradedDir(t, "testdata/v1wal_durable/"+tc.name)
		label := "v1wal_durable/" + tc.name
		re := reopenFromCheckpoint(t, label, open(dir), dir)
		if got, want := corpusState(re), freshState(t, tc.g, live, k, tc.opts...); got != want {
			t.Errorf("%s: reopened state differs from a fresh build:\n got %s\nwant %s", label, got, want)
		}
		if tc.opts == nil {
			assertMatchesOracle(t, label, re, oracleOver(tc.g, k, sortedNodes(live)), randomGraph(30, 60, 3905), k, 6, 3906)
			re.CloseDurable()
			continue
		}
		for _, v := range sortedNodes(live)[:6] {
			got, err := re.KNN(context.Background(), v, 5)
			if err != nil {
				t.Fatal(err)
			}
			var want []Neighbor
			for _, nb := range directedRanking(tc.g, v, k) {
				if live[nb.Node] && len(want) < 5 {
					want = append(want, nb)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: KNN(%d) %v, oracle %v", label, v, got, want)
			}
		}
		re.CloseDurable()
	}
}

// TestLoadCorpusRejectsLegacyFormats: every fixture an earlier build
// wrote, unconverted, fails LoadCorpus with ErrBadSnapshot and an error
// naming the converter; a text manifest and a NEDSEG01, NEDSEG02 or NEDSEG03
// segment also match ErrLegacyFormat. A header-less signature file is no corpus
// format of its own: it is a bad snapshot that names the converter.
func TestLoadCorpusRejectsLegacyFormats(t *testing.T) {
	var sigs bytes.Buffer
	g := randomGraph(30, 60, 917)
	if err := ned.WriteSignatures(&sigs, Signatures(g, allNodes(g), 2)); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"signature file": sigs.Bytes()}
	for _, path := range []string{
		"testdata/corpus_v3_rebalanced.nedcorpus", "testdata/rebalanced.nedseg",
		"internal/segment/testdata/golden-v1.nedseg", "internal/segment/testdata/golden-v2.nedseg",
		"internal/segment/testdata/golden-v3.nedseg", "testdata/v3_durable/checkpoint-00000000.nedseg",
		"testdata/v2_durable/checkpoint-00000000.nedseg", "internal/ned/testdata/corpus_v1.golden",
		"internal/ned/testdata/corpus_v1_directed.golden", "internal/ned/testdata/corpus_v2.golden",
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[path] = raw
	}
	for label, raw := range inputs {
		_, err := LoadCorpus(bytes.NewReader(raw))
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "nedstats -upgrade") {
			t.Errorf("%s: got %v, want ErrBadSnapshot naming nedstats -upgrade", label, err)
		}
		if want := label != "signature file"; errors.Is(err, ErrLegacyFormat) != want {
			t.Errorf("%s: errors.Is(%v, ErrLegacyFormat) = %v, want %v", label, err, !want, want)
		}
		if _, err := loadUpgraded(raw); err != nil {
			t.Errorf("%s: converted: %v", label, err)
		}
	}
}

// TestDurableLeavesLegacyDirectoriesUntouched: OpenDurable over a
// durable directory whose checkpoint an earlier build wrote fails with
// ErrLegacyFormat before touching it — no quarantine rename, no swept or
// appended file — so the converter still finds every byte.
func TestDurableLeavesLegacyDirectoriesUntouched(t *testing.T) {
	for _, src := range []string{"testdata/rebalanced_durable", "testdata/v1wal_durable/undirected", "testdata/v1wal_durable/directed", "testdata/v2_durable", "testdata/v3_durable"} {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		if _, err := OpenDurable(dir, FsyncNone); !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("%s: OpenDurable got %v, want ErrLegacyFormat", src, err)
		}
		after := dirFiles(t, dir)
		for name := range maps.Keys(before) {
			if after[name] != before[name] {
				t.Errorf("%s: OpenDurable changed or removed %s", src, name)
			}
		}
		if len(after) != len(before) {
			t.Errorf("%s: %d files before OpenDurable, %d after", src, len(before), len(after))
		}
	}
}

// dirFiles maps each file in dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}
