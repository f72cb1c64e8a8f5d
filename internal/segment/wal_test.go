package segment

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"ned/internal/faultfs"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/tree"
)

// walFixtureRecords builds a deterministic mutation sequence.
func walFixtureRecords(t testing.TB) []Record {
	t.Helper()
	mk := func(parents ...int32) *tree.Tree {
		tr, err := tree.New(parents)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	return []Record{
		{Upserts: []ned.Item{
			{Node: 3, K: 2, Out: mk(-1, 0, 0, 1)},
			{Node: 9, K: 2, Out: mk(-1, 0), In: mk(-1, 0, 1)},
		}},
		{Deletes: []graph.NodeID{3}},
		{Upserts: []ned.Item{{Node: 12, K: 2, Out: mk(-1)}},
			Deletes: []graph.NodeID{9, 44}},
		{}, // an empty batch must still frame and replay
	}
}

// walV2FixtureRecords are records that name what changed: an Insert's
// nodes, an UpdateGraph's edit (with and without refreshed and removed
// nodes), and an edit that only grows the node count.
func walV2FixtureRecords() []Record {
	return []Record{
		{Extract: []graph.NodeID{4, 17, 2}},
		{Extract: []graph.NodeID{5, 6}, Deletes: []graph.NodeID{40, 41},
			Graph: &GraphEdit{NumNodes: 40,
				Removed: []graph.Edge{{U: 0, V: 5}, {U: 6, V: 39}},
				Added:   []graph.Edge{{U: 1, V: 5}}}},
		{Graph: &GraphEdit{NumNodes: 44}},
	}
}

// walLogRecords is every fixture record: the version-1 fixtures, the
// version-2 ones, and records whose IDs take wider uvarints, whose edit
// repeats an edge's u, and whose node and edge lists arrive unsorted
// and repeated, as the version-3 writer must take them.
func walLogRecords(t testing.TB) []Record {
	recs := append(walFixtureRecords(t), walV2FixtureRecords()...)
	return append(recs,
		Record{Extract: []graph.NodeID{300, 16383, 16384, math.MaxInt32}},
		Record{Extract: []graph.NodeID{9, 8, 9}, Deletes: []graph.NodeID{1 << 20, 3, 1},
			Graph: &GraphEdit{NumNodes: 1 << 21,
				Removed: []graph.Edge{{U: 5, V: 700}, {U: 5, V: 1}, {U: 6, V: 2}, {U: 5, V: 9}},
				Added:   []graph.Edge{{U: 1000, V: 4}, {U: 1000, V: 3}, {U: 1000, V: 4}, {U: 1 << 20, V: 0}}}},
	)
}

// canonical is rec as a version-3 frame decodes it: its node and edge
// lists sorted and without repeats.
func canonical(rec Record) Record {
	set := func(nodes []graph.NodeID) []graph.NodeID {
		return slices.Compact(slices.Sorted(slices.Values(nodes)))
	}
	rec.Extract, rec.Deletes = set(rec.Extract), set(rec.Deletes)
	if e := rec.Graph; e != nil {
		rec.Graph = &GraphEdit{NumNodes: e.NumNodes,
			Removed: slices.Compact(slices.SortedFunc(slices.Values(e.Removed), graph.CompareEdges)),
			Added:   slices.Compact(slices.SortedFunc(slices.Values(e.Added), graph.CompareEdges))}
	}
	return rec
}

func sameRecord(a, b Record) bool {
	if len(a.Upserts) != len(b.Upserts) || len(a.Deletes) != len(b.Deletes) ||
		!slices.Equal(a.Extract, b.Extract) || (a.Graph == nil) != (b.Graph == nil) {
		return false
	}
	if a.Graph != nil && (a.Graph.NumNodes != b.Graph.NumNodes ||
		!slices.Equal(a.Graph.Removed, b.Graph.Removed) || !slices.Equal(a.Graph.Added, b.Graph.Added)) {
		return false
	}
	for i := range a.Upserts {
		x, y := a.Upserts[i], b.Upserts[i]
		if x.Node != y.Node || x.K != y.K || !sameTree(x.Out, y.Out) || !sameTree(x.In, y.In) {
			return false
		}
	}
	for i := range a.Deletes {
		if a.Deletes[i] != b.Deletes[i] {
			return false
		}
	}
	return true
}

// writeFixtureWAL commits the fixture records into a fresh log, and
// returns the path along with each frame's end offset.
func writeFixtureWAL(t *testing.T, dir string, policy FsyncPolicy) (string, []int64) {
	t.Helper()
	path := filepath.Join(dir, "wal-00000000.log")
	w, err := CreateWAL(path, policy)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	published := 0
	for _, rec := range walLogRecords(t) {
		if err := w.Commit(rec, func() { published++ }); err != nil {
			t.Fatal(err)
		}
		_, b := w.Stats()
		bounds = append(bounds, b)
	}
	if published != len(walLogRecords(t)) {
		t.Fatalf("published %d of %d commits", published, len(walLogRecords(t)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, bounds
}

func TestWALRoundTrip(t *testing.T) {
	path, bounds := writeFixtureWAL(t, t.TempDir(), FsyncAlways)
	recs, valid, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	want := walLogRecords(t)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !sameRecord(recs[i], canonical(want[i])) {
			t.Fatalf("record %d did not round-trip", i)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if valid != st.Size() || valid != bounds[len(bounds)-1] {
		t.Fatalf("valid prefix %d, file %d, last frame end %d", valid, st.Size(), bounds[len(bounds)-1])
	}
}

// Truncating the log at every byte must recover exactly the fully
// framed prefix — no error, no partial record, valid marking the cut.
func TestWALTornTailEveryByte(t *testing.T) {
	path, bounds := writeFixtureWAL(t, t.TempDir(), FsyncNone)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(blob); cut++ {
		recs, valid, err := DecodeWAL(blob[:cut])
		if err != nil {
			t.Fatalf("cut %d: torn tail reported as error: %v", cut, err)
		}
		wantN, wantValid := 0, int64(0)
		for _, b := range bounds {
			if int64(cut) >= b {
				wantN++
				wantValid = b
			}
		}
		if len(recs) != wantN || valid != wantValid {
			t.Fatalf("cut %d: recovered %d records to byte %d, want %d records to byte %d",
				cut, len(recs), valid, wantN, wantValid)
		}
	}
}

// Corruption strictly inside the log — bytes follow the broken frame —
// can never be a torn append and must fail loudly.
func TestWALMidFileCorruptionFailsLoudly(t *testing.T) {
	path, bounds := writeFixtureWAL(t, t.TempDir(), FsyncNone)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := int(bounds[0])
	// Flip each payload and checksum byte of the first frame; later
	// frames follow, so replay must refuse rather than truncate.
	for off := 4; off < firstEnd; off++ {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, _, err := DecodeWAL(mut); err == nil {
			t.Fatalf("byte %d flipped mid-file, replay reported no error", off)
		}
	}
}

// A checksum-valid frame whose payload is malformed is faithful
// persistence of garbage — loud, even at the tail, and never a panic.
// Each case names a fragment of the error the check that must catch it
// reports, so a payload that fails some other way does not pass; every
// version-3 case fails with ErrInconsistent.
func TestWALMalformedPayloadFailsLoudly(t *testing.T) {
	u32s := func(xs ...uint32) []byte {
		var b []byte
		for _, x := range xs {
			b = appendU32(b, x)
		}
		return b
	}
	v2 := func(flags byte, body ...uint32) []byte { return append([]byte{2, flags}, u32s(body...)...) }
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"unknown version", "version 77", []byte{77, 0, 0, 0, 0}},
		// Version 2: flags, [edit], extract, upserts, deletes.
		{"v2 unknown flag bits", "flags 0x2", v2(2, 1, 1, 0, 0)},
		{"v2 negative extract node", "negative id", v2(0, 1, 1<<32-3, 0, 0)},
		{"v2 negative node count", "declares -1 nodes", v2(1, 1<<32-1, 0, 0, 0, 0, 0)},
		{"v2 added edge endpoint at node count", "outside the edit", v2(1, 8, 0, 1, 2, 8, 0, 0, 0)},
		{"v2 removed edge endpoint beyond node count", "outside the edit", v2(1, 8, 1, 9, 1, 0, 0, 0, 0)},
		{"v2 negative edge endpoint", "outside the edit", v2(1, 8, 0, 1, 1<<32-1, 1, 0, 0, 0)},
		{"v2 negative delete", "negative id", v2(0, 1, 1, 0, 1, 1<<32-2)},
		// Version 3: flags, [edit], extract, deletes, [upserts].
		{"v3 no flags byte", "no flags", []byte{3}},
		{"v3 unknown flag bits", "flags 0x4", []byte{3, 4, 0, 0}},
		{"v3 duplicate node", "repeats", []byte{3, 0, 2, 5, 0, 0}},
		{"v3 descending node (a gap of -1)", "past int32", []byte{3, 0, 0, 2, 5, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"v3 non-minimal uvarint", "not minimal", []byte{3, 0, 1, 0x85, 0x00, 0}},
		{"v3 6-byte uvarint", "longer than 5 bytes", []byte{3, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0}},
		{"v3 uvarint past the payload", "runs past the end", []byte{3, 0, 1, 0x85}},
		{"v3 count past the payload", "5 extract nodes with 2 bytes left", []byte{3, 0, 5, 1, 0}},
		{"v3 node past int32", "past int32", []byte{3, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x08, 0}},
		{"v3 gaps past int32", "past int32", []byte{3, 0, 2, 0xff, 0xff, 0xff, 0xff, 0x07, 1, 0}},
		{"v3 node count past int32", "past int32", []byte{3, 1, 0x80, 0x80, 0x80, 0x80, 0x08, 0, 0, 0, 0}},
		{"v3 added edge endpoint at node count", "outside the edit", []byte{3, 1, 8, 0, 1, 2, 8, 0, 0}},
		{"v3 removed edge endpoint past node count", "outside the edit", []byte{3, 1, 8, 1, 9, 1, 0, 0, 0}},
		{"v3 duplicate edge", "repeats", []byte{3, 1, 8, 0, 2, 2, 3, 0, 0, 0, 0}},
		{"v3 edge count past the payload", "3 added edges", []byte{3, 1, 8, 0, 3, 2, 3, 0, 0}},
		{"v3 trailing bytes", "1 trailing bytes", []byte{3, 0, 0, 0, 7}},
		{"v3 upserts flagged, none follow", "none follow", []byte{3, 2, 0, 0, 0}},
		{"v3 upsert of k 0", "malformed", []byte{3, 2, 0, 0, 1, 5, 0, 0, 1}},
		{"v3 upsert tree past the payload", "tree of 9 nodes", []byte{3, 2, 0, 0, 1, 5, 2, 0, 9, 0}},
		{"v3 upsert tree not a tree", "invalid parent", []byte{3, 2, 0, 0, 1, 5, 2, 0, 2, 1}},
	} {
		b := appendU32(appendU32(nil, uint32(len(tc.payload))), crc32.Checksum(tc.payload, castagnoli))
		_, _, err := DecodeWAL(append(b, tc.payload...))
		switch {
		case err == nil:
			t.Errorf("%s: malformed checksummed payload replayed without error", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		case tc.payload[0] == 3 && !errors.Is(err, ErrInconsistent):
			t.Errorf("%s: error %q is not ErrInconsistent", tc.name, err)
		}
	}
}

func TestOpenWALAtDropsTornTailAndResumesAppending(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeFixtureWAL(t, dir, FsyncAlways)
	// Simulate a crash mid-append: garbage tail past the last frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, valid, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("ReplayWAL over torn tail: %v", err)
	}
	st, _ := os.Stat(path)
	if valid >= st.Size() {
		t.Fatalf("valid prefix %d should exclude the torn tail (file %d)", valid, st.Size())
	}
	w, err := OpenWALAt(path, valid, int64(len(recs)), FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	extra := Record{Deletes: []graph.NodeID{7}}
	if err := w.Commit(extra, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, valid2, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("ReplayWAL after resume: %v", err)
	}
	if len(recs2) != len(recs)+1 || !sameRecord(recs2[len(recs2)-1], extra) {
		t.Fatalf("resume produced %d records, want %d", len(recs2), len(recs)+1)
	}
	st2, _ := os.Stat(path)
	if valid2 != st2.Size() {
		t.Fatalf("resumed log has invalid tail: valid %d, size %d", valid2, st2.Size())
	}
}

func TestOpenWALAtRejectsShorterFile(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeFixtureWAL(t, dir, FsyncNone)
	st, _ := os.Stat(path)
	if _, err := OpenWALAt(path, st.Size()+10, 4, FsyncNone); err == nil {
		t.Fatal("OpenWALAt accepted a validated prefix longer than the file")
	}
}

func TestCreateWALRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeFixtureWAL(t, dir, FsyncNone)
	if _, err := CreateWAL(path, FsyncNone); err == nil {
		t.Fatal("CreateWAL overwrote an existing log")
	}
}

func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(WALPath(dir, 0), FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	recs := walFixtureRecords(t)
	if err := w.Commit(recs[0], nil); err != nil {
		t.Fatal(err)
	}
	captured := false
	if err := w.Rotate(WALPath(dir, 1), func() { captured = true }); err != nil {
		t.Fatal(err)
	}
	if !captured {
		t.Fatal("capture hook did not run")
	}
	if w.Path() != WALPath(dir, 1) {
		t.Fatalf("active wal is %s", w.Path())
	}
	if n, b := w.Stats(); n != 0 || b != 0 {
		t.Fatalf("rotated wal reports %d records %d bytes", n, b)
	}
	if err := w.Commit(recs[1], nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old, _, err := ReplayWAL(WALPath(dir, 0))
	if err != nil || len(old) != 1 || !sameRecord(old[0], recs[0]) {
		t.Fatalf("old wal: %d records, err %v", len(old), err)
	}
	cur, _, err := ReplayWAL(WALPath(dir, 1))
	if err != nil || len(cur) != 1 || !sameRecord(cur[0], recs[1]) {
		t.Fatalf("rotated wal: %d records, err %v", len(cur), err)
	}
}

func TestWALClosedCommitFails(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "w.log"), FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Record{}, nil); err == nil {
		t.Fatal("commit on closed wal succeeded")
	}
}

func TestReplayMissingWAL(t *testing.T) {
	recs, valid, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || len(recs) != 0 || valid != 0 {
		t.Fatalf("missing wal: %d records, %d valid, %v", len(recs), valid, err)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	if p, err := ParseFsyncPolicy("always"); err != nil || p != FsyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseFsyncPolicy("none"); err != nil || p != FsyncNone {
		t.Fatalf("none: %v %v", p, err)
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if FsyncAlways.String() != "always" || FsyncNone.String() != "none" {
		t.Fatal("policy String round-trip broken")
	}
}

// The golden logs lock the WAL frame format: golden-wal-v3.log pins the
// writer (every fixture record as a version-3 frame; regenerate with
// -update), and golden-wal.log (version-1 frames: full items and
// deletes) and golden-wal-v2.log (version-2 frames: named nodes and
// graph edits), which no build writes any more, must still decode to
// their records.
func TestWALGolden(t *testing.T) {
	var v3 []byte
	for _, rec := range walLogRecords(t) {
		v3 = appendRecord(v3, rec)
	}
	path := filepath.Join("testdata", "golden-wal-v3.log")
	if *update {
		if err := os.WriteFile(path, v3, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(v3, want) {
		t.Fatal("wal encoder diverged from golden-wal-v3.log")
	}
	var v3recs []Record
	for _, rec := range walLogRecords(t) {
		v3recs = append(v3recs, canonical(rec))
	}
	for _, tc := range []struct {
		file    string
		version byte
		recs    []Record
	}{
		{"golden-wal.log", 1, walFixtureRecords(t)},
		{"golden-wal-v2.log", 2, walV2FixtureRecords()},
		{"golden-wal-v3.log", 3, v3recs},
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		start := int64(0)
		for _, end := range walFrameBounds(blob) {
			if blob[start+8] != tc.version && (tc.version != 2 || blob[start+8] != 1) {
				t.Fatalf("%s: frame at %d is version %d", tc.file, start, blob[start+8])
			}
			start = end
		}
		recs, valid, err := DecodeWAL(blob)
		if err != nil || len(recs) != len(tc.recs) || valid != int64(len(blob)) {
			t.Fatalf("%s replay: %d records, %d valid, %v", tc.file, len(recs), valid, err)
		}
		for i := range recs {
			if !sameRecord(recs[i], tc.recs[i]) {
				t.Fatalf("%s record %d did not decode to its fixture", tc.file, i)
			}
		}
	}
}

// A one-node Insert or Remove below node 16 384 is a 14-byte frame: the
// 8-byte header, the version and flags bytes, the two list counts and
// the node's 2-byte uvarint (version 2 wrote 26 bytes for the insert,
// version 1 21 for the remove).
func TestWALNamedNodeFrameSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
	}{
		{"insert", Record{Extract: []graph.NodeID{16383}}},
		{"remove", Record{Deletes: []graph.NodeID{16383}}},
	} {
		if b := appendRecord(nil, tc.rec); len(b) != 14 || b[8] != 3 {
			t.Errorf("one-node %s frame is %d bytes at version %d, want 14 at 3", tc.name, len(b), b[8])
		}
	}
	if n := len(appendRecord(nil, Record{Deletes: []graph.NodeID{127}})); n != 13 {
		t.Errorf("one-node remove below node 128 is %d bytes, want 13", n)
	}
}

// --- fault-injection regressions(the torn-frame-after-failed-Commit
// bug): a short write must wedge the log so no later append can land
// behind torn bytes, and the on-disk file must replay to exactly the
// acknowledged prefix. The injector is installed before CreateWAL —
// file handles capture the filesystem at open time, exactly as the
// durable stack opens its WAL under whatever seam is current. ---

func TestWALShortWriteWedgesAndPreservesPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-00000000.log")
	// The third frame write tears mid-frame with ENOSPC.
	inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{
		Op: faultfs.OpWrite, Path: "wal-", Nth: 3, Fault: faultfs.FaultShortWrite, Err: syscall.ENOSPC,
	})
	defer inj.Install()()

	w, err := CreateWAL(path, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	recs := walFixtureRecords(t)
	if err := w.Commit(recs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(recs[1], nil); err != nil {
		t.Fatal(err)
	}
	published := false
	if err := w.Commit(recs[2], func() { published = true }); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short-write commit: err = %v, want ENOSPC", err)
	}
	if published {
		t.Fatal("failed commit ran its publish hook")
	}
	if w.Wedged() == nil {
		t.Fatal("short write did not wedge the log")
	}

	// The regression: this commit would have succeeded and buried the
	// torn frame mid-file, losing itself AND confusing replay. It must
	// refuse instead.
	if err := w.Commit(recs[2], nil); !errors.Is(err, ErrWALWedged) {
		t.Fatalf("commit after wedge: err = %v, want ErrWALWedged", err)
	}
	if err := w.Rotate(filepath.Join(dir, "wal-00000001.log"), nil); !errors.Is(err, ErrWALWedged) {
		t.Fatalf("rotate after wedge: err = %v, want ErrWALWedged", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, valid, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("replaying wedged log: %v", err)
	}
	if len(got) != 2 || !sameRecord(got[0], recs[0]) || !sameRecord(got[1], recs[1]) {
		t.Fatalf("replayed %d records, want the 2 acknowledged ones", len(got))
	}
	// The wedge truncated the torn bytes: valid covers the whole file.
	st, _ := os.Stat(path)
	if valid != st.Size() {
		t.Fatalf("valid prefix %d, file %d — torn bytes were not truncated", valid, st.Size())
	}

	// Recovery path: reopen at the validated prefix and resume.
	w2, err := OpenWALAt(path, valid, int64(len(got)), FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(recs[2], nil); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _, err := ReplayWAL(path)
	if err != nil || len(got2) != 3 {
		t.Fatalf("after resume: %d records, %v", len(got2), err)
	}
}

// A sync failure is as fatal as a write failure: the kernel may have
// dropped the dirty pages, so the frame's durability is unknowable.
func TestWALSyncFailureWedges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-00000000.log")
	inj := faultfs.NewInjector(dir).AddRule(faultfs.Rule{
		Op: faultfs.OpSync, Path: "wal-", Nth: 2, Fault: faultfs.FaultErr,
	})
	defer inj.Install()()

	w, err := CreateWAL(path, FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	recs := walFixtureRecords(t)
	if err := w.Commit(recs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(recs[1], nil); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync-failed commit: err = %v, want EIO", err)
	}
	if err := w.Commit(recs[1], nil); !errors.Is(err, ErrWALWedged) {
		t.Fatalf("commit after sync wedge: err = %v, want ErrWALWedged", err)
	}
	w.Close()

	got, _, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 1 || !sameRecord(got[0], recs[0]) {
		t.Fatalf("replayed %d records, want the 1 acknowledged one", len(got))
	}
}

// Even when the wedge's repair truncate ALSO fails, the torn bytes stay
// at the tail — where the torn-tail contract already drops them — and
// the refusal to append keeps them there.
func TestWALWedgeTruncateFailureStillReplayable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-00000000.log")
	inj := faultfs.NewInjector(dir).
		AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal-", Nth: 2, Fault: faultfs.FaultShortWrite}).
		AddRule(faultfs.Rule{Op: faultfs.OpTruncate, Fault: faultfs.FaultErr})
	defer inj.Install()()

	w, err := CreateWAL(path, FsyncNone)
	if err != nil {
		t.Fatal(err)
	}
	recs := walFixtureRecords(t)
	if err := w.Commit(recs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(recs[1], nil); err == nil {
		t.Fatal("short write did not surface")
	}
	if err := w.Commit(recs[2], nil); !errors.Is(err, ErrWALWedged) {
		t.Fatalf("commit after wedge: err = %v, want ErrWALWedged", err)
	}
	w.Close()

	got, valid, err := ReplayWAL(path)
	if err != nil {
		t.Fatalf("replay over un-truncatable torn tail: %v", err)
	}
	if len(got) != 1 || !sameRecord(got[0], recs[0]) {
		t.Fatalf("replayed %d records, want the 1 acknowledged one", len(got))
	}
	st, _ := os.Stat(path)
	if valid >= st.Size() {
		t.Fatalf("expected torn residue past the valid prefix (valid %d, file %d)", valid, st.Size())
	}
}
