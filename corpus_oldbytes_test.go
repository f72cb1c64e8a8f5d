package ned

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"ned/internal/ned"
	"ned/internal/segment"
)

// Old bytes keep loading. Builds before the scan-only engine wrote a
// backend name into every snapshot header and, on a VP-backed corpus,
// one vantage-point-tree dump per shard into every segment and
// checkpoint. The engine writes neither any more ("pruned", no dumps)
// and reads both: names parse and are ignored, dump sections are framed
// and checksummed like any section and then dropped.

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
	meta := segment.Meta{Backend: "vp", K: c.k, Directed: c.cfg.directed, Place: v.place}
	items := v.shardItems()
	var buf bytes.Buffer
	if err := segment.Write(&buf, meta, c.dict, v.g, items, legacyVPDumps(items)); err != nil {
		t.Fatalf("segment.Write with VP dumps: %v", err)
	}
	return buf.Bytes()
}

// TestSegmentWithVPDumpsStillLoads: a NEDSEG01 stream carrying
// Meta.Backend "vp" and per-shard VP dumps loads, serves from the scan
// with answers equal to the oracle, and re-snapshots without dumps; a
// flipped byte inside a dump section still fails Verify and LoadCorpus.
func TestSegmentWithVPDumpsStillLoads(t *testing.T) {
	const k = 2
	g := randomGraph(80, 170, 930)
	gq := randomGraph(50, 100, 931)
	c, err := NewCorpus(g, k, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	old := legacySegment(t, c, c.materializedView())
	if _, _, _, _, dumps, err := segment.Read(bytes.NewReader(old)); err != nil || len(dumps) != 4 || len(dumps[0].Nodes) == 0 {
		t.Fatalf("fixture carries no dumps: %d sections, err %v", len(dumps), err)
	}

	loaded, err := LoadCorpus(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("LoadCorpus of a segment with VP dumps: %v", err)
	}
	if s := loaded.Stats(); s.Backend.String() != "pruned" || s.Shards != 4 || s.Nodes != g.NumNodes() || s.Built {
		t.Fatalf("restored stats %+v, want an unbuilt 4-shard pruned corpus of %d nodes", s, g.NumNodes())
	}
	assertMatchesOracle(t, "loaded", loaded, oracleOver(g, k, allNodes(g)), gq, k, 8, 932)

	// What the engine writes back carries no index sections.
	var again bytes.Buffer
	if err := loaded.SnapshotSegment(&again); err != nil {
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

	c, err := NewCorpus(g, k, WithShards(4))
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
// whose header names a tree or the wide scan load and serve from the
// scan; an unknown name is still a bad snapshot.
func TestTextHeadersNamingRetiredBackendsLoad(t *testing.T) {
	const k = 2
	g := randomGraph(40, 80, 970)
	gq := randomGraph(30, 60, 971)
	c, err := NewCorpus(g, k, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.String()
	if !strings.HasPrefix(v2, "# ned corpus v2 backend=pruned ") {
		t.Fatalf("v2 header = %q", v2[:strings.IndexByte(v2, '\n')])
	}
	// The v1 dialect: one header, no shard sections.
	var v1 strings.Builder
	fmt.Fprintf(&v1, "# ned corpus v1 backend=pruned k=%d directed=0 nodes=%d\n", k, g.NumNodes())
	for _, line := range strings.Split(v2, "\n")[1:] {
		if line != "" && !strings.HasPrefix(line, "#") {
			v1.WriteString(line + "\n")
		}
	}
	o := oracleOver(g, k, allNodes(g))
	for _, text := range []string{v2, v1.String()} {
		for _, name := range []string{"vp", "bk", "linear"} {
			in := strings.Replace(text, "backend=pruned", "backend="+name, 1)
			loaded, err := LoadCorpus(strings.NewReader(in))
			if err != nil {
				t.Fatalf("%s: %v", in[:strings.IndexByte(in, '\n')], err)
			}
			if got := loaded.Stats().Backend.String(); got != "pruned" {
				t.Errorf("backend=%s header: Stats().Backend = %q, want \"pruned\"", name, got)
			}
			assertMatchesOracle(t, "backend="+name, loaded, o, gq, k, 3, 972)
		}
		in := strings.Replace(text, "backend=pruned", "backend=zorp", 1)
		if _, err := LoadCorpus(strings.NewReader(in)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("backend=zorp header: got %v, want ErrBadSnapshot", err)
		}
	}
}
