package ned

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ned/internal/ned"
	"ned/internal/segment"
)

// restoredShards counts shards whose epoch already holds an index —
// the direct signature of a persisted-index restore, visible before
// any query triggers a lazy build.
func restoredShards(c *Corpus) int {
	n := 0
	for _, ep := range c.view.Load().eps {
		if ep.ix != nil {
			n++
		}
	}
	return n
}

// TestSegmentSnapshotRestoresVPIndex is the index-persistence
// contract: a binary segment cut from a built VP corpus carries each
// shard's vantage-point tree, and LoadCorpus restores those trees
// structurally — before any query, with no metric evaluations — while
// a segment cut before the build carries none and restores none.
func TestSegmentSnapshotRestoresVPIndex(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g := randomGraph(80, 170, 930)
	gq := randomGraph(50, 100, 931)

	c, err := NewCorpus(g, k, WithBackend(BackendVP), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}

	// A segment cut before the indexes exist has nothing to persist.
	var cold bytes.Buffer
	if err := c.SnapshotSegment(&cold); err != nil {
		t.Fatal(err)
	}
	coldLoaded, err := LoadCorpus(bytes.NewReader(cold.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := restoredShards(coldLoaded); n != 0 {
		t.Fatalf("cold segment restored %d shard indexes, want 0", n)
	}

	if _, err := c.KNN(ctx, 0, 3); err != nil { // build the VP trees
		t.Fatal(err)
	}
	var warm bytes.Buffer
	if err := c.SnapshotSegment(&warm); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(bytes.NewReader(warm.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := restoredShards(loaded); n != len(loaded.view.Load().eps) {
		t.Fatalf("warm segment restored %d of %d shard indexes", n, len(loaded.view.Load().eps))
	}

	// The restored trees are the originals, structurally: same preorder
	// dump, node for node, radius for radius.
	for si, ep := range c.view.Load().eps {
		wantNodes, wantTail, ok := ned.ExportVPBackend(ep.ix)
		if !ok {
			t.Fatalf("shard %d: original backend not exportable", si)
		}
		gotNodes, gotTail, ok := ned.ExportVPBackend(loaded.view.Load().eps[si].ix)
		if !ok {
			t.Fatalf("shard %d: restored backend not exportable", si)
		}
		if len(gotNodes) != len(wantNodes) || len(gotTail) != len(wantTail) {
			t.Fatalf("shard %d: restored %d/%d nodes/tail, want %d/%d",
				si, len(gotNodes), len(gotTail), len(wantNodes), len(wantTail))
		}
		for i := range wantNodes {
			w, r := wantNodes[i], gotNodes[i]
			if w.Item.Node != r.Item.Node || w.Radius != r.Radius ||
				w.Dead != r.Dead || w.Inside != r.Inside || w.Beyond != r.Beyond {
				t.Fatalf("shard %d node %d: restored {node %d r %v %v/%v/%v}, want {node %d r %v %v/%v/%v}",
					si, i, r.Item.Node, r.Radius, r.Dead, r.Inside, r.Beyond,
					w.Item.Node, w.Radius, w.Dead, w.Inside, w.Beyond)
			}
		}
		for i := range wantTail {
			if wantTail[i].Node != gotTail[i].Node {
				t.Fatalf("shard %d tail %d: restored node %d, want %d", si, i, gotTail[i].Node, wantTail[i].Node)
			}
		}
	}

	// And they serve: answers identical to the in-memory corpus.
	rng := rand.New(rand.NewSource(932))
	for q := 0; q < 8; q++ {
		sig := NewSignature(gq, NodeID(rng.Intn(gq.NumNodes())), k)
		want, err := c.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: restored KNN %v, in-memory %v", q, got, want)
		}
	}

	// Overrides that invalidate the per-shard dumps drop them: a
	// different backend or shard count loads cleanly, builds lazily,
	// and still answers identically.
	for _, opt := range []CorpusOption{WithBackend(BackendLinear), WithShards(2)} {
		over, err := LoadCorpus(bytes.NewReader(warm.Bytes()), opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := restoredShards(over); n != 0 {
			t.Fatalf("override load restored %d shard indexes, want 0", n)
		}
		sig := NewSignature(gq, 3, k)
		want, err := c.KNNSignature(ctx, sig, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := over.KNNSignature(ctx, sig, 5)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("override load KNN %v, want %v", got, want)
		}
	}
}

// TestSegmentIndexSkipsTombstonedShards: a shard whose VP tree holds
// tombstones dangles references to removed items, so its dump is
// withheld — the snapshot still loads and answers correctly, the
// tombstoned shards just rebuild lazily.
func TestSegmentIndexSkipsTombstonedShards(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g := randomGraph(80, 170, 940)

	c, err := NewCorpus(g, k, WithBackend(BackendVP), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(2, 4, 6); err != nil { // tombstones some shards
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.SnapshotSegment(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n := restoredShards(loaded); n == 0 || n == len(loaded.view.Load().eps) {
		// At least one shard is tombstone-free (restored) and at least
		// one is tombstoned (withheld) with this node set.
		t.Fatalf("restored %d of %d shard indexes, want a strict subset", n, len(loaded.view.Load().eps))
	}

	gq := randomGraph(50, 100, 941)
	rng := rand.New(rand.NewSource(942))
	for q := 0; q < 8; q++ {
		sig := NewSignature(gq, NodeID(rng.Intn(gq.NumNodes())), k)
		want, err := c.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: restored KNN %v, in-memory %v", q, got, want)
		}
	}
}

// TestSegmentIndexInconsistentDumpRejected: an index dump that
// disagrees with the item sections it rides alongside — referencing a
// node the shard does not hold, or the same node twice — is
// corruption, and LoadCorpus fails loudly rather than serving from a
// tree that dangles.
func TestSegmentIndexInconsistentDumpRejected(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g := randomGraph(80, 170, 950)

	c, err := NewCorpus(g, k, WithBackend(BackendVP), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 3); err != nil {
		t.Fatal(err)
	}

	view := c.materializedView()
	eps, shardItems := view.eps, view.shardItems()
	meta := segment.Meta{Backend: "vp", K: k, Directed: false}

	write := func(mutate func(dumps []segment.VPIndex)) error {
		dumps := shardIndexDumps(eps)
		if len(dumps) != len(eps) {
			t.Fatalf("expected a dump per shard, got %d", len(dumps))
		}
		mutate(dumps)
		var buf bytes.Buffer
		if err := segment.Write(&buf, meta, c.dict, view.g, shardItems, dumps); err != nil {
			t.Fatalf("Write: %v", err)
		}
		_, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
		return err
	}

	// Swapping one node reference between two shards keeps every count
	// right while making both dumps dangle.
	if err := write(func(d []segment.VPIndex) {
		d[0].Nodes[0].Node, d[1].Nodes[0].Node = d[1].Nodes[0].Node, d[0].Nodes[0].Node
	}); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("cross-shard reference: got %v, want ErrBadSnapshot", err)
	}

	// A duplicated reference within one shard.
	if err := write(func(d []segment.VPIndex) {
		d[0].Nodes[1].Node = d[0].Nodes[0].Node
	}); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("duplicate reference: got %v, want ErrBadSnapshot", err)
	}

	// The unmutated dumps load fine — the harness itself is sound.
	if err := write(func([]segment.VPIndex) {}); err != nil {
		t.Errorf("unmutated dumps: %v", err)
	}
}

// TestDurableCheckpointCarriesVPIndex: checkpoints persist the built
// VP trees too, so OpenDurable comes back with every shard's index
// already in place — even after replaying a WAL tail, whose mutations
// land in the item tables while the affected shards rebuild lazily.
func TestDurableCheckpointCarriesVPIndex(t *testing.T) {
	ctx := context.Background()
	const k = 2
	g := randomGraph(80, 170, 960)
	dir := t.TempDir()

	c, err := NewCorpus(g, k, WithBackend(BackendVP), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 0, 3); err != nil { // build before attaching
		t.Fatal(err)
	}
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseDurable(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if n := restoredShards(re); n != len(re.view.Load().eps) {
		t.Fatalf("checkpoint restored %d of %d shard indexes", n, len(re.view.Load().eps))
	}

	gq := randomGraph(50, 100, 961)
	rng := rand.New(rand.NewSource(962))
	for q := 0; q < 6; q++ {
		sig := NewSignature(gq, NodeID(rng.Intn(gq.NumNodes())), k)
		want, err := c.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("query %d: recovered KNN %v, in-memory %v", q, got, want)
		}
	}

	// Mutate through the WAL, reopen without checkpointing: recovery
	// replays the tail onto the checkpoint's restored indexes and the
	// corpus still answers as the live one does.
	if err := re.Remove(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := re.CloseDurable(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 6; q++ {
		sig := NewSignature(gq, NodeID(rng.Intn(gq.NumNodes())), k)
		want, err := re.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re2.KNNSignature(ctx, sig, 7)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("post-WAL query %d: recovered KNN %v, live %v", q, got, want)
		}
	}
}
