package segment

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"ned/internal/faultfs"
	"ned/internal/fsx"
	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/tree"
)

// The mutation write-ahead log. Every committed mutation call — an
// Insert, a Remove, or an UpdateGraph — appends one checksummed frame
// BEFORE the corpus view publishes, so a crash after the append replays
// the mutation and a crash before it never exposed the mutation to a
// query. A frame records what the call changed, and replay derives the
// rest: an Insert names its nodes, whose signatures T(v, k) are a pure
// function of the graph and re-extract from the log's own graph (the
// checkpoint's embedded graph plus every logged graph edit, in log
// order); an UpdateGraph carries its edge diff, split into removed and
// added edges, and the nodes it refreshed and removed; a Remove names
// the nodes it deleted. Every part is absolute — a node set, a set
// difference of edges — so replay is idempotent: re-applying a suffix
// that partially survived a crash converges to the same corpus.
//
// Log format: a sequence of frames
//
//	[payloadLen u32][crc32c(payload) u32][payload]
//
// with payload version 1
//
//	version u8 (=1)
//	upserts u32, then per upsert: node u32, k u32, flags u8
//	  (bit0 = has incoming tree), then per tree n u32 + parents (n-1)×u32
//	deletes u32, then node u32 each
//
// or version 2, which prefixes the version-1 body with a graph edit and
// the nodes replay extracts:
//
//	version u8 (=2)
//	flags u8 (bit0 = graph edit follows; other bits must be zero)
//	[edit: nodes u32, removed u32 + (u u32, v u32) each,
//	       added u32 + (u u32, v u32) each]
//	extract u32, then node u32 each
//	upserts and deletes as in version 1
//
// A record is written as version 2 only when it names nodes to extract
// or carries a graph edit; full-item upserts and delete-only records
// keep the version-1 bytes. Upserts carry trees only, not profiles:
// replay re-profiles against the recovering corpus's dictionary
// (growing it as needed) — the segment checkpoint is where profile
// bytes belong.
//
// Torn-tail semantics (the crash contract): a final frame cut short —
// header or payload extending past EOF, or a checksum mismatch on a
// frame that runs exactly to EOF — is the expected residue of a crash
// mid-append and is silently dropped; replay returns the committed
// prefix and its byte length so the log can be truncated before
// appending resumes. Corruption strictly inside the file (bytes
// follow the bad frame) cannot be a torn append and fails loudly.

// FsyncPolicy controls when the WAL forces its appends to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every committed batch: a crash loses
	// nothing that was acknowledged.
	FsyncAlways FsyncPolicy = iota
	// FsyncNone leaves flushing to the OS: faster commits, but a crash
	// may lose the most recent acknowledged batches (never corrupting
	// earlier ones — torn tails are dropped on replay).
	FsyncNone
)

// ParseFsyncPolicy parses the flag spellings "always" and "none".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("segment: unknown fsync policy %q (want always or none)", s)
}

func (p FsyncPolicy) String() string {
	if p == FsyncAlways {
		return "always"
	}
	return "none"
}

// Record is one committed mutation call. Replay applies its parts in
// field order below: Graph moves the log's graph to its next version,
// Extract names nodes whose items replay extracts from that graph,
// Upserts are full items (trees; profiles are recomputed on replay), and
// Deletes are the nodes the call removed. A node appears in at most one
// of Extract, Upserts and Deletes. The engine logs Graph, Extract and
// Deletes; Upserts remain for logs older builds wrote and for callers
// committing whole items.
type Record struct {
	Graph   *GraphEdit
	Extract []graph.NodeID
	Upserts []ned.Item
	Deletes []graph.NodeID
}

// GraphEdit is one graph version change: the new node count and the
// edge diff from the previous version. Removed lists only edges between
// surviving nodes (edges touching a node at or beyond NumNodes leave
// with it), so every endpoint lies in [0, NumNodes).
type GraphEdit struct {
	NumNodes       int
	Removed, Added []graph.Edge
}

// Empty reports whether rec changes nothing.
func (rec *Record) Empty() bool {
	return len(rec.Upserts)+len(rec.Deletes)+len(rec.Extract) == 0 && rec.Graph == nil
}

// maxWALPayload bounds a frame's declared payload length; a larger
// declaration is either a torn tail (if the file ends first) or loud
// corruption.
const maxWALPayload = 1 << 30

// WAL is an open, append-only mutation log. The commit mutex orders
// append-then-publish pairs, which is what Rotate relies on to cut a
// consistent checkpoint: state captured under the same mutex reflects
// exactly the mutations already appended to the old file.
type WAL struct {
	mu      sync.Mutex
	f       faultfs.File
	path    string
	policy  FsyncPolicy
	records int64
	bytes   int64
	buf     []byte
	wedged  error // first append/sync failure; sticky, blocks commits
}

// ErrWALWedged marks a WAL refusing further appends after an earlier
// append or sync failure left its durable tail uncertain. Callers see
// it wrapped with the original cause.
var ErrWALWedged = fmt.Errorf("segment: wal wedged by earlier i/o failure")

// CreateWAL creates a new, empty log at path (which must not exist)
// and makes its directory entry durable.
func CreateWAL(path string, policy FsyncPolicy) (*WAL, error) {
	fs := faultfs.Default()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: creating wal: %w", err)
	}
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		fs.Remove(path)
		return nil, err
	}
	return &WAL{f: f, path: path, policy: policy}, nil
}

// OpenWALAt reopens an existing log for appending at a replay-validated
// prefix: the file is truncated to size — discarding a torn tail the
// replay already refused — and appends resume from there.
func OpenWALAt(path string, size int64, records int64, policy FsyncPolicy) (*WAL, error) {
	f, err := faultfs.Default().OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: reopening wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: reopening wal: %w", err)
	}
	if st.Size() < size {
		f.Close()
		return nil, fmt.Errorf("segment: wal %s is %d bytes, shorter than its validated prefix %d", path, st.Size(), size)
	}
	if st.Size() > size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("segment: truncating wal torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("segment: syncing truncated wal: %w", err)
		}
	}
	return &WAL{f: f, path: path, policy: policy, records: records, bytes: size}, nil
}

// wedge records the first append/sync failure and tries to restore the
// on-disk file to its last known-durable prefix so the log stays
// replayable even if the process keeps running. The repair is best
// effort: if the truncate itself fails, the torn bytes stay — but the
// wedged flag guarantees no later append lands behind them, so replay
// still recovers the committed prefix via torn-tail dropping.
func (w *WAL) wedge(cause error) {
	if w.wedged == nil {
		w.wedged = cause
	}
	if w.f != nil {
		if w.f.Truncate(w.bytes) == nil {
			w.f.Sync()
		}
	}
}

// Wedged reports the sticky failure blocking this WAL, nil if healthy.
func (w *WAL) Wedged() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wedged
}

// Commit appends rec as one frame, forces it to disk per the fsync
// policy, and only then runs publish (the view store that makes the
// mutation visible). The append and the publish happen under
// one mutex so Rotate can cut the log at a point consistent with the
// published state.
//
// A failed append or sync wedges the WAL: the partial frame is
// truncated away if possible, and every subsequent Commit or Rotate
// refuses with ErrWALWedged. Without the wedge, a short write followed
// by a successful append would bury torn bytes mid-file, making the
// entire tail — including the later, acknowledged frame — unreplayable.
func (w *WAL) Commit(rec Record, publish func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("segment: wal is closed")
	}
	if w.wedged != nil {
		return fmt.Errorf("%w: %w", ErrWALWedged, w.wedged)
	}
	w.buf = appendRecord(w.buf[:0], rec)
	if _, err := w.f.Write(w.buf); err != nil {
		w.wedge(err)
		return fmt.Errorf("segment: wal append: %w", err)
	}
	if w.policy == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			// The kernel may have dropped the dirty pages (the fsync-gate
			// lesson): the frame's durability is unknowable. Wedge.
			w.wedge(err)
			return fmt.Errorf("segment: wal sync: %w", err)
		}
	}
	w.records++
	w.bytes += int64(len(w.buf))
	if publish != nil {
		publish()
	}
	return nil
}

// Rotate atomically cuts the log: capture runs under the commit mutex
// (load the corpus view there — every mutation committed to the old
// file is visible to it, and none from the new file are), the old
// file is synced and closed, and appends continue in a fresh log at
// path. On error the WAL keeps its current file and capture must be
// discarded. A wedged WAL refuses to rotate: its tail is suspect, and
// the caller's recovery path rebuilds from a verified checkpoint
// instead.
func (w *WAL) Rotate(path string, capture func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("segment: wal is closed")
	}
	if w.wedged != nil {
		return fmt.Errorf("%w: %w", ErrWALWedged, w.wedged)
	}
	if err := w.f.Sync(); err != nil {
		w.wedge(err)
		return fmt.Errorf("segment: syncing wal before rotation: %w", err)
	}
	fs := faultfs.Default()
	nf, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("segment: creating rotated wal: %w", err)
	}
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		nf.Close()
		fs.Remove(path)
		return err
	}
	if capture != nil {
		capture()
	}
	old := w.f
	w.f, w.path = nf, path
	w.records, w.bytes = 0, 0
	old.Close()
	return nil
}

// Sync forces appended frames to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.wedged != nil {
		return fmt.Errorf("%w: %w", ErrWALWedged, w.wedged)
	}
	if err := w.f.Sync(); err != nil {
		w.wedge(err)
		return err
	}
	return nil
}

// Close syncs (under FsyncAlways the data already is) and closes the
// log. Further commits fail. Closing a wedged WAL skips the sync — its
// durable prefix is already as good as it will get.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var serr error
	if w.wedged == nil {
		serr = w.f.Sync()
	}
	cerr := w.f.Close()
	w.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// Stats reports the records and bytes appended to the current file.
func (w *WAL) Stats() (records, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.bytes
}

// Policy returns the log's fsync policy.
func (w *WAL) Policy() FsyncPolicy {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.policy
}

// Path returns the current log file path.
func (w *WAL) Path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.path
}

// appendRecord encodes rec as one framed record appended to b: version
// 2 when it names nodes to extract or carries a graph edit, version 1
// otherwise.
func appendRecord(b []byte, rec Record) []byte {
	start := len(b)
	// Reserve the frame header; patch once the payload is known.
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	if len(rec.Extract) == 0 && rec.Graph == nil {
		b = append(b, 1) // payload version
	} else {
		b = append(b, 2)
		if e := rec.Graph; e != nil {
			b = append(b, 1)
			b = appendU32(b, uint32(e.NumNodes))
			b = appendWALEdges(b, e.Removed)
			b = appendWALEdges(b, e.Added)
		} else {
			b = append(b, 0)
		}
		b = appendWALNodes(b, rec.Extract)
	}
	b = appendU32(b, uint32(len(rec.Upserts)))
	for i := range rec.Upserts {
		it := &rec.Upserts[i]
		b = appendU32(b, uint32(it.Node))
		b = appendU32(b, uint32(it.K))
		if it.In != nil {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendWALTree(b, it.Out)
		if it.In != nil {
			b = appendWALTree(b, it.In)
		}
	}
	b = appendWALNodes(b, rec.Deletes)
	payload := b[start+8:]
	n := uint32(len(payload))
	crc := crc32.Checksum(payload, castagnoli)
	h := b[start:]
	h[0], h[1], h[2], h[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	h[4], h[5], h[6], h[7] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	return b
}

func appendWALNodes(b []byte, nodes []graph.NodeID) []byte {
	b = appendU32(b, uint32(len(nodes)))
	for _, v := range nodes {
		b = appendU32(b, uint32(v))
	}
	return b
}

func appendWALEdges(b []byte, edges []graph.Edge) []byte {
	b = appendU32(b, uint32(len(edges)))
	for _, e := range edges {
		b = appendU32(b, uint32(e.U))
		b = appendU32(b, uint32(e.V))
	}
	return b
}

func appendWALTree(b []byte, t *tree.Tree) []byte {
	n := int32(t.Size())
	b = appendU32(b, uint32(n))
	for v := int32(1); v < n; v++ {
		b = appendU32(b, uint32(t.Parent(v)))
	}
	return b
}

// decodeRecord decodes one checksum-verified frame payload.
func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	d := &dec{b: payload}
	switch v := d.u8(); {
	case d.err != nil:
		return rec, d.err
	case v == 2:
		flags := d.u8()
		if d.err == nil && flags > 1 {
			return rec, fmt.Errorf("segment: wal record flags %#x unsupported", flags)
		}
		if flags&1 != 0 {
			e := &GraphEdit{NumNodes: int(int32(d.u32()))}
			if d.err == nil && e.NumNodes < 0 {
				return rec, fmt.Errorf("segment: wal graph edit declares %d nodes", e.NumNodes)
			}
			e.Removed = decodeWALEdges(d, e.NumNodes, "removed")
			e.Added = decodeWALEdges(d, e.NumNodes, "added")
			rec.Graph = e
		}
		rec.Extract = decodeWALNodes(d, "extract")
	case v != 1:
		return rec, fmt.Errorf("segment: wal record version %d unsupported", v)
	}
	nUp := int(d.u32())
	if d.err == nil && (nUp < 0 || len(d.b) < nUp*13) {
		d.fail("segment: wal record declares %d upserts with %d bytes", nUp, len(d.b))
	}
	if d.err != nil {
		return rec, d.err
	}
	rec.Upserts = make([]ned.Item, 0, nUp)
	for i := 0; i < nUp; i++ {
		node := int32(d.u32())
		k := int(d.u32())
		flags := d.u8()
		if d.err != nil {
			return rec, d.err
		}
		if node < 0 || k < 1 || flags > 1 {
			return rec, fmt.Errorf("segment: wal upsert %d malformed (node=%d k=%d flags=%d)", i, node, k, flags)
		}
		it := ned.Item{Node: graph.NodeID(node), K: k}
		var err error
		if it.Out, err = decodeWALTree(d); err != nil {
			return rec, err
		}
		if flags&1 != 0 {
			if it.In, err = decodeWALTree(d); err != nil {
				return rec, err
			}
		}
		rec.Upserts = append(rec.Upserts, it)
	}
	rec.Deletes = decodeWALNodes(d, "delete")
	if err := d.done(); err != nil {
		return rec, err
	}
	return rec, nil
}

// decodeWALNodes decodes a counted node list; every ID must be
// non-negative.
func decodeWALNodes(d *dec, what string) []graph.NodeID {
	n := int(d.u32())
	if d.err == nil && (n < 0 || len(d.b) < 4*n) {
		d.fail("segment: wal record declares %d %s nodes with %d bytes", n, what, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		v := int32(d.u32())
		if v < 0 {
			d.fail("segment: wal %s node %d has negative id %d", what, i, v)
			return nil
		}
		nodes[i] = graph.NodeID(v)
	}
	return nodes
}

// decodeWALEdges decodes a counted edge list of a graph edit; every
// endpoint must lie in [0, numNodes).
func decodeWALEdges(d *dec, numNodes int, what string) []graph.Edge {
	n := int(d.u32())
	if d.err == nil && (n < 0 || len(d.b) < 8*n) {
		d.fail("segment: wal graph edit declares %d %s edges with %d bytes", n, what, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		u, v := int32(d.u32()), int32(d.u32())
		if u < 0 || v < 0 || int(u) >= numNodes || int(v) >= numNodes {
			d.fail("segment: wal %s edge %d (%d, %d) outside the edit's [0, %d)", what, i, u, v, numNodes)
			return nil
		}
		edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)}
	}
	return edges
}

func decodeWALTree(d *dec) (*tree.Tree, error) {
	n := int(d.u32())
	if d.err == nil && (n < 1 || len(d.b) < 4*(n-1)) {
		d.fail("segment: wal tree declares %d nodes with %d bytes", n, len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	parents := make([]int32, n)
	parents[0] = -1
	for i := 1; i < n; i++ {
		parents[i] = int32(d.u32())
	}
	t, err := tree.New(parents)
	if err != nil {
		return nil, fmt.Errorf("segment: wal tree: %w", err)
	}
	return t, nil
}

// DecodeWAL replays a log image, returning the committed records and
// the byte length of the valid prefix. A torn tail (see the package
// comment for the exact contract) ends replay silently; corruption
// with further data behind it is a loud error.
func DecodeWAL(b []byte) ([]Record, int64, error) {
	var recs []Record
	off := 0
	for {
		rest := b[off:]
		if len(rest) < 8 {
			if len(rest) > 0 {
				// Torn frame header.
				return recs, int64(off), nil
			}
			return recs, int64(off), nil
		}
		plen := int(uint32(rest[0]) | uint32(rest[1])<<8 | uint32(rest[2])<<16 | uint32(rest[3])<<24)
		crc := uint32(rest[4]) | uint32(rest[5])<<8 | uint32(rest[6])<<16 | uint32(rest[7])<<24
		if plen > maxWALPayload {
			if len(rest)-8 < plen {
				// The declared frame runs past EOF: a torn length field.
				return recs, int64(off), nil
			}
			return nil, int64(off), fmt.Errorf("segment: wal frame at %d declares %d bytes (cap %d)", off, plen, maxWALPayload)
		}
		if len(rest)-8 < plen {
			// Torn payload.
			return recs, int64(off), nil
		}
		payload := rest[8 : 8+plen]
		if crc32.Checksum(payload, castagnoli) != crc {
			if 8+plen == len(rest) {
				// The final frame is checksum-broken: its bytes landed out
				// of order during the crash. Same torn tail, drop it.
				return recs, int64(off), nil
			}
			return nil, int64(off), fmt.Errorf("segment: wal frame at %d checksum mismatch with %d bytes following", off, len(rest)-8-plen)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The checksum passed, so these bytes are what was written —
			// and they are malformed. Never a torn append.
			return nil, int64(off), fmt.Errorf("segment: wal frame at %d: %w", off, err)
		}
		recs = append(recs, rec)
		off += 8 + plen
	}
}

// ReplayWAL reads and replays the log at path. A missing file is not
// an error: it replays to nothing, as an empty log would.
func ReplayWAL(path string) ([]Record, int64, error) {
	b, err := faultfs.Default().ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("segment: reading wal: %w", err)
	}
	recs, valid, err := DecodeWAL(b)
	if err != nil {
		return nil, valid, fmt.Errorf("segment: %s: %w", path, err)
	}
	return recs, valid, nil
}
