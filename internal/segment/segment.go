// Package segment is the durable persistence layer of the Corpus
// engine: a versioned binary segment format that round-trips a
// materialized corpus — its signature trees, the shape dictionary
// their compiled cascade profiles are expressed against, and the
// backing graph — without re-extracting or re-parsing anything on load,
// plus a mutation write-ahead log (wal.go) and the checkpoint/log file
// discipline (files.go) that together recover a crashed corpus to its
// last committed mutation.
//
// # Segment format
//
// A segment is a magic string followed by framed sections:
//
//	magic   "NEDSEG02" (8 bytes; "NEDSEG01" files still load)
//	section [type u8][payloadLen u64][payload][crc32c(payload) u32]
//
// in fixed order: meta (1), dict (2), an optional graph (3), one shard
// item table (4) per shard, optionally one VP-index dump (6) per shard,
// and end (5); a segment of an earlier build may also carry a placement
// directory (7) between the graph and the first shard table. All
// integers are little-endian. Every section is
// independently length-framed and checksummed, and the end section
// repeats the total item count, so a torn tail — truncation anywhere,
// even between sections — fails loudly instead of loading a silently
// smaller corpus. Segments are always written through
// fsx.WriteFileAtomic, so a torn segment on disk means external
// corruption, never a crashed writer.
//
//	meta:  backend string (u16 len + bytes), k u32, directed u8,
//	       shards u32, items u64, dictLen u32, hasGraph u8,
//	       hasIndex u8, then one u64 payload length per shard item
//	       table — the section offsets that let a reader slice or
//	       skip shards.
//	dict:  nShapes u32, kidOff (nShapes+1)×u32, kids kidOff[n]×u32 —
//	       the interner's shapes (tree.Interner.Shapes) as a CSR table:
//	       shape id's sorted child labels, each a smaller id. Shape 0
//	       is therefore the leaf.
//	graph: nodes u32, directed u8, edges u64, then u32 pairs — the
//	       backing graph, so a recovered corpus keeps Insert and
//	       UpdateGraph without a sidecar file.
//	place: base u32, shards u32 (must equal meta's), redirect base×u32
//	       (each < shards), moves u64, then (node u32, shard u32) pairs
//	       node-ascending — the placement directory of a build that
//	       could move nodes off their hash shard. Never written; read
//	       only to check that the segment's items are filed where its
//	       own layout says, after which callers re-file by hash.
//	shard: a pure u32 word stream (the payload length must be a
//	       multiple of 4): shardIndex, itemCount, then per item
//	       (strictly node-ascending — readers reject out-of-order or
//	       duplicate nodes): node, k, flags (bit0 = has incoming
//	       tree), and per tree a header word m — bit 31 set when the
//	       tree is not in BFS order — then the interned labels of its
//	       m nodes above the deepest level (levels 0…h−1) in node
//	       order, then, when bit 31 is set, its parent vector (n×u32,
//	       parents[0] the root's -1).
//	index: shardIndex u32, nNodes u32, nTail u32, then per VP-tree
//	       node in preorder: node u32, radius f64 (IEEE-754 bits as
//	       u64), flags u8 (bit0 = has inside child, bit1 = has beyond
//	       child), then nTail×u32 post-build tail nodes. nNodes ==
//	       nTail == 0 means the shard carries no persisted index and
//	       rebuilds lazily.
//	end:   items u64 (must equal meta's).
//
// # What a tree derives from its labels
//
// A label is an interned subtree shape, so it fixes its node's child
// count and its children's labels. A tree therefore stores only what
// the dictionary cannot derive — the labels of its inner levels, about
// an eighth of its nodes on the PGP analog at k = 3 — which is what a
// resident row stores too (tree.ProfileArena.Words). ReadRows reads
// the item tables twice: a first pass (scanTable) checks every header
// and derives each tree's size and height, the rows are ranked across
// the tables as a scan ranks them, and a second pass (fillRow) copies
// each row's words into its rank slot of arenas sized once and derives
// only the level widths, from the child counts, and the degree runs,
// the child counts sorted per level. In BFS order the child counts are
// the child offsets (every extracted tree is; only a hand-written text
// snapshot can hold another, which keeps its parent vector). The
// deepest level, all leaves, is its width alone in memory as on disk.
// Every stored label is checked against the shapes around it — in the
// dictionary, child counts that end exactly on a level boundary, no
// stored level without children, leaf kids only on level h−1, children
// that carry their parent's shape's kids — so a table that checksums
// but could not have been written fails with ErrInconsistent.
//
// NEDSEG01 item tables stored every tree whole instead: n, parents
// n×u32, then the compiled profile columns labels n×u32, perm n×u32,
// kids (n-1)×u32. That layout is word-only and word-aligned, so on a
// little-endian host its decoder (decodeTreeV1) aliases parent vectors
// and profile columns straight into the checksummed section payload
// and validates them (a tree not in BFS order keeps its aliased parent
// vector; the profile columns are copied); only a big-endian host pays
// a byte-swapping pass. A NEDSEG02 load retains no payload: every
// column is derived into fresh storage.
//
// The index sections persist what even the item tables cannot buy
// back: a vantage-point tree costs O(n log n) TED* evaluations to
// build, so a segment that carries the built structure (radii and
// split topology, restored without a single metric call) turns a
// multi-second re-index into a sub-millisecond restore. The Corpus no
// longer writes them; older segments that carry them still load.
package segment

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"math"
	"runtime"
	"slices"
	"unsafe"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/tree"
)

// hostLittleEndian gates the bulk int32 decode fast path: on a
// little-endian host the wire format IS the in-memory layout, so a
// column of persisted int32s loads with one memmove instead of a
// per-element shift-and-or loop.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Magic identifies (and versions) the binary segment format Write
// emits; sniff a stream's first len(Magic) bytes with IsSegment to route
// it here or to the text snapshot parsers.
const Magic = "NEDSEG02"

// magicV1 is the magic of the first layout, whose item tables store
// every profile column. Read and Verify still accept it; nothing writes
// it.
const magicV1 = "NEDSEG01"

// IsSegment reports whether a stream beginning with prefix is a binary
// segment of either layout. Text snapshots start with '#' or an item
// line, so the first byte alone separates the families; the full magic
// is still verified by Read.
func IsSegment(prefix []byte) bool {
	if len(prefix) < len(Magic) {
		return false
	}
	m := string(prefix[:len(Magic)])
	return m == Magic || m == magicV1
}

// Section types, in their required order (index sections, when
// present, sit between the shard tables and the end marker).
const (
	secMeta  = 1
	secDict  = 2
	secGraph = 3
	secShard = 4
	secEnd   = 5
	secIndex = 6
	secPlace = 7
)

// maxSectionLen bounds a section's declared payload length. Checked
// before any allocation, so a corrupt length field fails loudly
// instead of attempting an absurd allocation.
const maxSectionLen = 1 << 32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta is the corpus-level metadata a segment records.
type Meta struct {
	Backend  string // flag-style backend name recorded at snapshot time
	K        int    // neighborhood depth shared by every item
	Directed bool   // whether items carry incoming trees too
	Shards   int    // shard count the writer partitioned by
	Items    int    // total item count across shards
}

// VPNode is one persisted vantage-point-tree node, in preorder. The
// item itself lives in the shard's item table; the node references it
// by its graph node ID.
type VPNode struct {
	Node   graph.NodeID
	Radius float64
	Inside bool // has an inside child
	Beyond bool // has a beyond child
}

// VPIndex is one shard's persisted VP-tree index: the preorder
// structure dump plus the node IDs appended after the build (the
// backend's linear tail). A zero VPIndex means "no persisted index" —
// the shard rebuilds lazily on first query. Together Nodes and Tail
// must reference each of the shard's items exactly once.
type VPIndex struct {
	Nodes []VPNode
	Tail  []graph.NodeID
}

// empty reports whether this shard carries no persisted index.
func (ix *VPIndex) empty() bool { return len(ix.Nodes) == 0 && len(ix.Tail) == 0 }

// --- encoding helpers ---

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// dec is a bounds-checked little-endian cursor with a sticky error, so
// decoding corrupt (but checksum-passing, i.e. faithfully persisted
// yet inconsistent) bytes degrades to an error, never a panic or an
// unbounded allocation.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("segment: truncated payload")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("segment: truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("segment: truncated payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// i32s decodes n little-endian u32 values as int32s, checking the
// byte budget before allocating.
func (d *dec) i32s(n int) []int32 {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < 4*n {
		d.fail("segment: truncated payload (want %d int32s, have %d bytes)", n, len(d.b))
		return nil
	}
	out := make([]int32, n)
	d.i32sInto(out)
	return out
}

// i32sInto fills dst with little-endian u32 values read as int32s —
// the bulk-decode hot loop, kept tight (binary.LittleEndian.Uint32
// compiles to a single unaligned load).
func (d *dec) i32sInto(dst []int32) {
	if d.err != nil {
		return
	}
	n := len(dst)
	if len(d.b) < 4*n {
		d.fail("segment: truncated payload (want %d int32s, have %d bytes)", n, len(d.b))
		return
	}
	src := d.b[:4*n]
	if hostLittleEndian && n > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 4*n), src)
	} else {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
	d.b = d.b[4*n:]
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("segment: %d trailing bytes in section payload", len(d.b))
	}
	return nil
}

// --- section framing ---

// sectionChunk bounds the bytes a section writer holds before passing
// them on, and the buffer skipSection checks a payload through: neither
// side ever holds a whole section.
const sectionChunk = 64 << 10

// spareChunk holds one sectionChunk buffer between segment writes and
// verifies, so a checkpoint's write and its readback — and every later
// checkpoint — share one instead of allocating their own. Unlike a
// sync.Pool it survives garbage collections. A caller that finds it
// taken allocates.
var spareChunk = make(chan *[sectionChunk]byte, 1)

func getChunk() *[sectionChunk]byte {
	select {
	case c := <-spareChunk:
		return c
	default:
		return new([sectionChunk]byte)
	}
}

func putChunk(c *[sectionChunk]byte) {
	select {
	case spareChunk <- c:
	default:
	}
}

// sectionWriter streams framed sections through one sectionChunk
// buffer: a header carrying the payload length the caller computed up
// front, then the payload, each byte folded into a running CRC-32C
// before it leaves, then the checksum. Framing and payload share the
// buffer, so the underlying writer sees one call per full buffer. A
// payload that comes up short of or runs past its declared length is an
// error, so the framing can never disagree with the bytes. Errors are
// sticky: after the first, writes are dropped and end and flush report
// it.
type sectionWriter struct {
	w     io.Writer
	chunk *[sectionChunk]byte
	buf   []byte // pending bytes; the payload bytes from pay on are not yet checksummed
	pay   int
	crc   uint32
	left  uint64 // payload bytes the open section still owes
	err   error
}

func newSectionWriter(w io.Writer) *sectionWriter {
	c := getChunk()
	return &sectionWriter{w: w, chunk: c, buf: c[:0]}
}

// release hands the writer's buffer on; the writer is dead.
func (s *sectionWriter) release() {
	putChunk(s.chunk)
	s.chunk, s.buf = nil, nil
}

// fold checksums the pending payload bytes against the open section's
// declared length.
func (s *sectionWriter) fold() {
	p := s.buf[s.pay:]
	if s.err != nil || len(p) == 0 {
		return
	}
	if uint64(len(p)) > s.left {
		s.err = fmt.Errorf("segment: section payload runs past its declared length")
		return
	}
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.left -= uint64(len(p))
	s.pay = len(s.buf)
}

// flush passes every pending byte on.
func (s *sectionWriter) flush() error {
	s.fold()
	if s.err == nil && len(s.buf) > 0 {
		if _, err := s.w.Write(s.buf); err != nil {
			s.err = fmt.Errorf("segment: writing: %w", err)
		}
	}
	s.buf, s.pay = s.buf[:0], 0
	return s.err
}

// frame appends bytes outside every payload: the magic, a section
// header or a checksum.
func (s *sectionWriter) frame(b []byte) {
	s.fold()
	if cap(s.buf)-len(s.buf) < len(b) {
		s.flush()
	}
	s.buf = append(s.buf, b...)
	s.pay = len(s.buf)
}

// begin opens a section of type typ whose payload is n bytes.
func (s *sectionWriter) begin(typ byte, n int) {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint64(hdr[1:], uint64(n))
	s.frame(hdr[:])
	s.crc, s.left = 0, uint64(n)
}

// room makes space for an append of up to 8 bytes.
func (s *sectionWriter) room() {
	if cap(s.buf)-len(s.buf) < 8 {
		s.flush()
	}
}

func (s *sectionWriter) u8(v byte) {
	s.room()
	s.buf = append(s.buf, v)
}

func (s *sectionWriter) u32(v uint32) {
	s.room()
	s.buf = appendU32(s.buf, v)
}

func (s *sectionWriter) u64(v uint64) {
	s.room()
	s.buf = appendU64(s.buf, v)
}

// i32s appends a column of int32s as u32 words.
func (s *sectionWriter) i32s(col []int32) {
	for len(col) > 0 {
		s.room()
		m := min(len(col), (cap(s.buf)-len(s.buf))/4)
		for _, v := range col[:m] {
			s.buf = appendU32(s.buf, uint32(v))
		}
		col = col[m:]
	}
}

// raw appends payload bytes as they are.
func raw[B ~string | ~[]byte](s *sectionWriter, b B) {
	for len(b) > 0 {
		s.room()
		m := min(len(b), cap(s.buf)-len(s.buf))
		s.buf = append(s.buf, b[:m]...)
		b = b[m:]
	}
}

// end closes the open section with its checksum and reports the first
// error of the section's writes.
func (s *sectionWriter) end() error {
	s.fold()
	if s.err == nil && s.left != 0 {
		s.err = fmt.Errorf("segment: section payload %d bytes short of its declared length", s.left)
	}
	if s.err != nil {
		return s.err
	}
	s.frame(appendU32(make([]byte, 0, 4), s.crc))
	return s.err
}

// writeSection frames one section held whole in memory: the small ones
// (meta, index dumps, end).
func (s *sectionWriter) writeSection(typ byte, payload []byte) error {
	s.begin(typ, len(payload))
	raw(s, payload)
	return s.end()
}

// readSectionHeader reads one section header and bounds its declared
// payload length.
func readSectionHeader(r io.Reader) (typ byte, n uint64, err error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("segment: truncated section header: %w", err)
	}
	n = binary.LittleEndian.Uint64(hdr[1:])
	if n > maxSectionLen {
		return 0, 0, fmt.Errorf("segment: section declares %d bytes (cap %d)", n, uint64(maxSectionLen))
	}
	return hdr[0], n, nil
}

// readChecksum reads a section's stored checksum and compares it with
// the payload's.
func readChecksum(r io.Reader, typ byte, crc uint32) error {
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return fmt.Errorf("segment: truncated section checksum: %w", err)
	}
	if binary.LittleEndian.Uint32(crcb[:]) != crc {
		return fmt.Errorf("segment: section type %d checksum mismatch", typ)
	}
	return nil
}

// readSection reads and checksum-verifies one framed section. Any
// short read — a torn tail — is a loud error: segments are written
// atomically, so an incomplete one was corrupted after the fact.
func readSection(r io.Reader) (typ byte, payload []byte, err error) {
	typ, n, err := readSectionHeader(r)
	if err != nil {
		return 0, nil, err
	}
	// Exact-size read under a trust cap: ordinary sections get a single
	// allocation and one ReadFull. Beyond the cap, collect through a
	// buffer that grows with the bytes actually present, so a corrupt
	// length field on a short file cannot force a giant up-front
	// allocation.
	const trustedAlloc = 64 << 20
	if n <= trustedAlloc {
		payload = make([]byte, n)
		got, err := io.ReadFull(r, payload)
		if err != nil {
			return 0, nil, fmt.Errorf("segment: truncated section payload (%d of %d bytes): %w", got, n, io.ErrUnexpectedEOF)
		}
	} else {
		var buf bytes.Buffer
		got, err := io.CopyN(&buf, r, int64(n))
		if err != nil || uint64(got) != n {
			return 0, nil, fmt.Errorf("segment: truncated section payload (%d of %d bytes): %w", got, n, io.ErrUnexpectedEOF)
		}
		payload = buf.Bytes()
	}
	if err := readChecksum(r, typ, crc32.Checksum(payload, castagnoli)); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// skipSection is readSection for a reader that needs only the verdict:
// the payload passes through the checksum in buf-sized reads and is
// not kept.
func skipSection(r io.Reader, buf []byte) (typ byte, err error) {
	typ, n, err := readSectionHeader(r)
	if err != nil {
		return 0, err
	}
	var crc uint32
	for got := uint64(0); got < n; {
		m, err := io.ReadFull(r, buf[:min(uint64(len(buf)), n-got)])
		got += uint64(m)
		crc = crc32.Update(crc, castagnoli, buf[:m])
		if err != nil {
			return 0, fmt.Errorf("segment: truncated section payload (%d of %d bytes): %w", got, n, io.ErrUnexpectedEOF)
		}
	}
	return typ, readChecksum(r, typ, crc)
}

// expectSection reads one section and requires its type.
func expectSection(r io.Reader, want byte) ([]byte, error) {
	typ, payload, err := readSection(r)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("segment: section type %d where %d expected", typ, want)
	}
	return payload, nil
}

// --- sizes ---

// parentsFlag marks a tree header word whose tree is not in BFS order
// and so carries its parent vector after its labels.
const parentsFlag = tree.ParentsFlag

// maxTables caps the item tables Tables splits a corpus into: past a
// core per table, more tables only add framing.
const maxTables = 16

// Tables splits node-ascending rows into the item tables WriteRows
// takes: table i holds, still node-ascending, the rows ned.ShardOf files
// under i of min(GOMAXPROCS, 16) tables, so Read decodes them in
// parallel on the same cores. The count is layout, not content: Read
// returns the same items whatever it was. rows is walked twice, to size
// the tables once: they share one backing array.
func Tables(rows iter.Seq[ned.Row]) [][]ned.Row {
	n := min(runtime.GOMAXPROCS(0), maxTables)
	sizes := make([]int, n)
	total := 0
	for r := range rows {
		sizes[ned.ShardOf(r.Node, n)]++
		total++
	}
	all := make([]ned.Row, total)
	tables := make([][]ned.Row, n)
	for ti, size := range sizes {
		tables[ti], all = all[:0:size], all[size:]
	}
	for r := range rows {
		ti := ned.ShardOf(r.Node, n)
		tables[ti] = append(tables[ti], r)
	}
	return tables
}

// Write serializes a materialized corpus as a binary segment: meta,
// the shape dictionary, the optional backing graph, shardItems[i] as
// shard i's item table (callers MUST pass them node-ascending — the
// format requires it and readers enforce it — which also makes equal
// corpora produce byte-identical segments), optionally the built
// VP-tree index of every shard, and the end marker. Every item must
// carry compiled, fully resolved profiles against dict; meta.Shards
// and meta.Items are derived from shardItems. indexes is nil (no
// index sections) or one VPIndex per shard, each either empty or
// referencing exactly that shard's items.
//
// Write streams: the dictionary (straight from dict.Shapes), graph and
// item tables go out through one shared 64 KiB buffer and a running
// checksum, behind headers carrying lengths computed up front, so
// writing a segment never holds a copy of the corpus or its dictionary
// — only meta and the index dumps are framed in memory.
func Write(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, shardItems [][]ned.Item, indexes []VPIndex) error {
	tables := make([][]ned.Row, len(shardItems))
	for si, items := range shardItems {
		tables[si] = make([]ned.Row, len(items))
		for i := range items {
			it := &items[i]
			if it.Out == nil || it.OutP == nil || !it.OutP.Resolved() {
				return fmt.Errorf("segment: node %d has no compiled outgoing profile (segments require a materialized, profiled corpus)", it.Node)
			}
			if meta.Directed && (it.In == nil || it.InP == nil || !it.InP.Resolved()) {
				return fmt.Errorf("segment: node %d has no compiled incoming profile on a directed corpus", it.Node)
			}
			r := ned.Row{Node: it.Node, Out: tree.AppendStored(nil, it.OutP, it.Out)}
			if meta.Directed {
				r.In = tree.AppendStored(nil, it.InP, it.In)
			}
			tables[si][i] = r
		}
	}
	return write(w, meta, dict, g, tables, indexes)
}

// WriteRows is Write for rows as a scan stores them (ned.Row), which
// carry their trees' stored form already, with no index dumps.
func WriteRows(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, tables [][]ned.Row) error {
	return write(w, meta, dict, g, tables, nil)
}

// write is Write over item tables of rows.
func write(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, tables [][]ned.Row, indexes []VPIndex) error {
	meta.Shards = len(tables)
	meta.Items = 0
	for _, rows := range tables {
		meta.Items += len(rows)
	}
	if indexes != nil && len(indexes) != len(tables) {
		return fmt.Errorf("segment: %d index dumps for %d shards", len(indexes), len(tables))
	}
	shardLens := make([]int, len(tables))
	for si, rows := range tables {
		if indexes != nil {
			if ix := &indexes[si]; !ix.empty() && len(ix.Nodes)+len(ix.Tail) != len(rows) {
				return fmt.Errorf("segment: shard %d index references %d items, shard has %d",
					si, len(ix.Nodes)+len(ix.Tail), len(rows))
			}
		}
		shardLens[si] = 8
		for _, r := range rows {
			if r.Node < 0 {
				return fmt.Errorf("segment: shard %d: negative node id %d", si, r.Node)
			}
			if meta.Directed && r.In == nil {
				return fmt.Errorf("segment: node %d has no incoming tree on a directed corpus", r.Node)
			}
			shardLens[si] += 12 + 4*len(r.Out)
			if meta.Directed {
				shardLens[si] += 4 * len(r.In)
			}
		}
	}
	if len(meta.Backend) > 0xFFFF {
		return fmt.Errorf("segment: backend name too long")
	}

	sw := newSectionWriter(w)
	defer sw.release()
	sw.frame([]byte(Magic))

	shapes := dict.Shapes()
	kidWords := 0
	for _, key := range shapes {
		kidWords += len(key) / 4
	}

	// Meta, including the shard table byte lengths (section offsets).
	mb := make([]byte, 0, 64+8*len(tables))
	mb = append(mb, byte(len(meta.Backend)), byte(len(meta.Backend)>>8))
	mb = append(mb, meta.Backend...)
	mb = appendU32(mb, uint32(meta.K))
	mb = append(mb, boolByte(meta.Directed))
	mb = appendU32(mb, uint32(meta.Shards))
	mb = appendU64(mb, uint64(meta.Items))
	mb = appendU32(mb, uint32(len(shapes)))
	mb = append(mb, boolByte(g != nil), boolByte(indexes != nil))
	for _, size := range shardLens {
		mb = appendU64(mb, uint64(size))
	}
	if err := sw.writeSection(secMeta, mb); err != nil {
		return err
	}

	// Dictionary: the CSR offsets, then every shape's key, which is its
	// child labels as little-endian u32s already.
	sw.begin(secDict, 4+4*(len(shapes)+1)+4*kidWords)
	sw.u32(uint32(len(shapes)))
	sw.u32(0)
	off := uint32(0)
	for _, key := range shapes {
		off += uint32(len(key) / 4)
		sw.u32(off)
	}
	for _, key := range shapes {
		raw(sw, key)
	}
	if err := sw.end(); err != nil {
		return err
	}

	// Graph: the edges in g.Edges order, walked off the adjacency lists
	// rather than collected.
	if g != nil {
		sw.begin(secGraph, 13+8*g.NumEdges())
		sw.u32(uint32(g.NumNodes()))
		sw.u8(boolByte(g.Directed()))
		sw.u64(uint64(g.NumEdges()))
		for u := range graph.NodeID(g.NumNodes()) {
			for _, v := range g.Neighbors(u) {
				if g.Directed() || u < v {
					sw.u32(uint32(u))
					sw.u32(uint32(v))
				}
			}
		}
		if err := sw.end(); err != nil {
			return err
		}
	}

	// Shard item tables.
	for si, rows := range tables {
		sw.begin(secShard, shardLens[si])
		sw.u32(uint32(si))
		sw.u32(uint32(len(rows)))
		for _, r := range rows {
			sw.u32(uint32(r.Node))
			sw.u32(uint32(meta.K))
			sw.u32(uint32(boolByte(meta.Directed)))
			sw.i32s(r.Out)
			if meta.Directed {
				sw.i32s(r.In)
			}
		}
		if err := sw.end(); err != nil {
			return err
		}
	}

	// VP-index dumps, one section per shard.
	for si := range indexes {
		ix := &indexes[si]
		ib := make([]byte, 0, 12+13*len(ix.Nodes)+4*len(ix.Tail))
		ib = appendU32(ib, uint32(si))
		ib = appendU32(ib, uint32(len(ix.Nodes)))
		ib = appendU32(ib, uint32(len(ix.Tail)))
		for i := range ix.Nodes {
			n := &ix.Nodes[i]
			ib = appendU32(ib, uint32(n.Node))
			ib = appendU64(ib, math.Float64bits(n.Radius))
			ib = append(ib, boolByte(n.Inside)|boolByte(n.Beyond)<<1)
		}
		for _, v := range ix.Tail {
			ib = appendU32(ib, uint32(v))
		}
		if err := sw.writeSection(secIndex, ib); err != nil {
			return err
		}
	}

	if err := sw.writeSection(secEnd, appendU64(nil, uint64(meta.Items))); err != nil {
		return err
	}
	return sw.flush()
}

// boolByte encodes a boolean as one byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// --- reading ---

// shardWords exposes a shard payload as its int32 word stream. On a
// little-endian host with the (allocator-guaranteed, but verified)
// 4-byte alignment, the returned slice ALIASES payload — the section's
// checksummed bytes become the backing storage of every tree and
// profile decoded from it, which is the whole point of the word-only
// shard layout. Otherwise one byte-swapping copy is made.
func shardWords(payload []byte) ([]int32, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("segment: shard payload length %d not a multiple of 4", len(payload))
	}
	n := len(payload) / 4
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&payload[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&payload[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// decodeTreeV1 decodes one NEDSEG01 tree + profile from the word
// stream at words[pos:], returning the cursor past it. The parent
// vector and profile columns are subslices of words — aliased payload
// on little-endian hosts — handed to tree.NewOwned / ProfileFromParts
// without the defensive copies the public constructors make. A
// BFS-order tree keeps none of its parent vector (one that is not keeps
// it, aliased), and ProfileFromParts copies the columns above the
// deepest level into s with the derived ones — the tree's child and
// level offsets, the profile's level sizes and degree runs — so the
// payload is not retained through them.
func decodeTreeV1(words []int32, pos int, in *tree.Interner, s *tree.Slab) (*tree.Tree, *tree.Profile, int, error) {
	if pos >= len(words) {
		return nil, nil, 0, fmt.Errorf("segment: truncated payload")
	}
	n := int(uint32(words[pos]))
	pos++
	// Budget the whole encoded tree (parents + labels + perm + kids =
	// 4n-1 words) before slicing anything sized by n.
	if n < 1 || n > (len(words)-pos+1)/4 {
		return nil, nil, 0, fmt.Errorf("segment: tree declares %d nodes with %d words left", n, len(words)-pos)
	}
	parents := words[pos : pos+n : pos+n]
	labels := words[pos+n : pos+2*n : pos+2*n]
	perm := words[pos+2*n : pos+3*n : pos+3*n]
	kids := words[pos+3*n : pos+4*n-1 : pos+4*n-1]
	pos += 4*n - 1
	t, err := tree.NewOwned(parents, s)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %w", err)
	}
	p, err := in.ProfileFromParts(t, labels, perm, kids, s)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %w", err)
	}
	return t, p, pos, nil
}

// ErrInconsistent reports an item table whose checksum holds but whose
// stored labels (or parent vector) disagree with the segment's own
// shape dictionary: faithfully persisted bytes of a corpus that cannot
// have been written.
var ErrInconsistent = errors.New("segment: item table disagrees with its dictionary")

func inconsistent(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInconsistent, fmt.Sprintf(format, args...))
}

// leafShape is the label of the childless shape in every dictionary a
// segment holds: NewInternerFromShapes requires each child label to be
// smaller than its shape's own, so shape 0 can have no children, and
// the dictionary holds one childless shape at most.
const leafShape = 0

// maxTreeNodes bounds the node count a tree may derive. Its deepest
// level is not stored, so the payload alone does not bound it; 2^24
// nodes is far past any k-adjacent tree TED* could compare.
const maxTreeNodes = 1 << 24

// shapeTable is a segment's dictionary section as decoded: shape id's
// sorted child labels are kids[off[id]:off[id+1]].
// leafKids[id] reports whether every kid of shape id is a leaf.
type shapeTable struct {
	off, kids []int32
	leafKids  []bool
}

func newShapeTable(off, kids []int32) *shapeTable {
	sh := &shapeTable{off: off, kids: kids, leafKids: make([]bool, len(off)-1)}
	for id := range sh.leafKids {
		run := sh.run(int32(id))
		sh.leafKids[id] = len(run) == 0 || run[len(run)-1] == leafShape
	}
	return sh
}

func (sh *shapeTable) run(l int32) []int32 { return sh.kids[sh.off[l]:sh.off[l+1]] }

// deg is shape l's child count.
func (sh *shapeTable) deg(l int32) int32 { return sh.off[l+1] - sh.off[l] }

// treeScratch is one decoding worker's memory, reused across trees:
// count holds one zero per shape between trees (fillRow sizes it),
// degCount one zero per child count between levels.
type treeScratch struct {
	count    []int32
	degCount []int32
	kids     []int32
}

// scanTree reads the tree at words[pos:] as the first pass of a load
// does: its header, its stored labels, which must be in the dictionary,
// and the level widths they derive — the root alone, then each stored
// level's child count, which must end exactly where the stored labels
// do. It returns the tree's node count and height and the cursor past
// it.
func scanTree(words []int32, pos int, sh *shapeTable) (n, h, end int, err error) {
	if pos >= len(words) {
		return 0, 0, 0, fmt.Errorf("segment: truncated payload")
	}
	hdr := uint32(words[pos])
	pos++
	m := int(hdr &^ parentsFlag)
	if m > len(words)-pos {
		return 0, 0, 0, fmt.Errorf("segment: tree declares %d stored labels with %d words left", m, len(words)-pos)
	}
	stored := words[pos : pos+m]
	pos += m
	shapes := int32(len(sh.off) - 1)
	if shapes == 0 {
		return 0, 0, 0, inconsistent("the dictionary has no leaf shape")
	}
	for v, l := range stored {
		if l < 0 || l >= shapes {
			return 0, 0, 0, inconsistent("label %d of node %d outside the dictionary [0, %d)", l, v, shapes)
		}
	}
	n = 1
	for off, w := 0, 1; off < m; h++ {
		if off+w > m {
			return 0, 0, 0, inconsistent("child counts of level %d overrun the %d stored labels", h, m)
		}
		c := 0
		for _, l := range stored[off : off+w] {
			c += int(sh.deg(l))
		}
		if c == 0 {
			return 0, 0, 0, inconsistent("stored level %d has no children", h)
		}
		if n += c; n > maxTreeNodes {
			return 0, 0, 0, inconsistent("tree derives more than %d nodes", maxTreeNodes)
		}
		off, w = off+w, c
	}
	if hdr&parentsFlag != 0 {
		if n > len(words)-pos {
			return 0, 0, 0, fmt.Errorf("segment: tree's %d-node parent vector overruns the %d words left", n, len(words)-pos)
		}
		pos += n
	}
	return n, h, pos, nil
}

// fillRow decodes the tree at words[pos:], which scanTree has read, into
// row slot of a, whose offsets give the row its room: its words, level
// widths and degree runs (each level's child counts, sorted), a node's
// child count being its label's shape's. It checks what scanTree did
// not — leaf kids only on level h−1, a parent vector that agrees with
// the child counts, children that carry their parent's shape's kids —
// failing with ErrInconsistent. a copies what it keeps; the payload is
// not retained.
func fillRow(words []int32, pos int, sh *shapeTable, sc *treeScratch, a *tree.ProfileArena, slot int) error {
	hdr := uint32(words[pos])
	m := int(hdr &^ parentsFlag)
	stored := words[pos+1 : pos+1+m]
	if sc.count == nil {
		sc.count = make([]int32, len(sh.off)-1)
	}
	// The level widths, as scanTree derived them, and every node's child
	// count but the root's, in node order, in the row's degree runs.
	levels := a.Levels[slot*a.Width : (slot+1)*a.Width]
	degs := a.Degs[a.DegOff[slot]:a.DegOff[slot+1]]
	levels[0] = 1
	h, last, n := 0, 0, 1 // last: the first node of level h-1
	for off, w := 0, 1; off < m; h++ {
		c := int32(0)
		for v := off; v < off+w; v++ {
			d := sh.deg(stored[v])
			if c += d; v > 0 {
				degs[v-1] = d
			}
		}
		levels[h+1], n = c, n+int(c)
		last, off, w = off, off+w, int(c)
	}
	deg := func(v int32) int32 {
		if v == 0 {
			return levels[1]
		}
		return degs[v-1]
	}
	for v := last; v < m; v++ {
		if !sh.leafKids[stored[v]] {
			return inconsistent("node %d on level %d has a non-leaf kid", v, h-1)
		}
	}
	var t *tree.Tree // the parent vector's tree, for one not in BFS order
	if hdr&parentsFlag != 0 {
		var err error
		if t, err = tree.New(words[pos+1+m : pos+1+m+n]); err != nil {
			return fmt.Errorf("segment: %w", err)
		}
		for v := range int32(n) {
			want := int32(0)
			if int(v) < m {
				want = deg(v)
			}
			if got := int32(t.NumChildren(v)); got != want {
				return inconsistent("parent vector gives node %d %d children, its shape %d", v, got, want)
			}
		}
	}
	// Levels 0..h-2: a node's children carry stored labels, which must be
	// its shape's kids as a multiset — the kids counted up in sc.count,
	// then each distinct kid of the sorted shape matched by its
	// multiplicity and zeroed, so a check that holds leaves sc.count
	// zeroed. (Level h-1's are leaves, checked above.) Child counts
	// already match, so equal sizes are given, and the multiplicities
	// matching means no child carries another label. In BFS order node
	// v's children are the nodes after those of v-1.
	next := int32(1)
	for v := range int32(last) {
		kids := stored[next : next+deg(v)]
		next += deg(v)
		if t != nil {
			kids = sc.kids[:0]
			for _, c := range t.Children(v) {
				kids = append(kids, stored[c])
			}
			sc.kids = kids
		}
		run := sh.run(stored[v])
		if slices.Equal(kids, run) {
			continue
		}
		for _, l := range kids {
			sc.count[l]++
		}
		ok := true
		for i, j := 0, 0; i < len(run); i = j {
			for j = i + 1; j < len(run) && run[j] == run[i]; j++ {
			}
			ok = ok && sc.count[run[i]] == int32(j-i)
			sc.count[run[i]] = 0
		}
		if !ok {
			for _, l := range kids {
				sc.count[l] = 0
			}
			return inconsistent("children of node %d do not carry its shape's kids", v)
		}
	}
	// The degree runs of levels 1..h-1: each level's child counts, sorted.
	at := 0
	for _, w := range levels[1:max(h, 1)] {
		sc.sortCounts(degs[at : at+int(w)])
		at += int(w)
	}
	copy(a.Words[a.WordOff[slot]:a.WordOff[slot+1]], words[pos:])
	a.Sizes[slot] = int32(n)
	return nil
}

// sortCounts sorts a level's child counts: a counting sort over their
// range, or, for a short level or one whose range dwarfs it, a
// comparison sort.
func (sc *treeScratch) sortCounts(run []int32) {
	if len(run) < 16 || int(slices.Max(run)) > 8*len(run)+256 {
		slices.Sort(run)
		return
	}
	top := slices.Max(run)
	count := slices.Grow(sc.degCount[:0], int(top)+1)[:top+1]
	for _, c := range run {
		count[c]++
	}
	k := 0
	for c, times := range count {
		for range times {
			run[k], k = int32(c), k+1
		}
		count[c] = 0
	}
	sc.degCount = count
}

// table is one item table as the first pass of a load reads it: its
// words, and per item its node, its size key (the out-tree's node
// count, plus the in-tree's when directed) and where it lies; per
// tree side (out, in), the tallest tree and the degree-run and stored
// words its rows hold. A NEDSEG01 table holds its items decoded.
type table struct {
	words        []int32
	nodes        []graph.NodeID
	keys         []int32
	heads        []rowHead
	height       [2]int
	degs, stored [2]int
	v1           []ned.Item
}

// rowHead locates one item of a table: the word it starts at and its
// out-tree's word count; its in-tree runs to the next item.
type rowHead struct{ pos, out int32 }

// scanTable is the first pass over one item table's payload: it checks
// every item's header and reads its trees (scanTree), or, in a NEDSEG01
// table (sh nil), decodes them whole.
func scanTable(payload []byte, si int, meta Meta, place *legacyPlacement, in *tree.Interner, sh *shapeTable) (*table, error) {
	words, err := shardWords(payload)
	if err != nil {
		return nil, err
	}
	if len(words) < 2 {
		return nil, fmt.Errorf("segment: shard %d payload truncated", si)
	}
	if got := int(uint32(words[0])); got != si {
		return nil, fmt.Errorf("segment: shard section %d out of order (want %d)", got, si)
	}
	count := int(uint32(words[1]))
	pos := 2
	// Minimum item: 3 header words + a 1-node tree's 1 word (4 in
	// NEDSEG01).
	minItem := 4
	if sh == nil {
		minItem = 7
	}
	if count < 0 || count > (len(words)-pos)/minItem {
		return nil, fmt.Errorf("segment: shard %d declares %d items with %d words left", si, count, len(words)-pos)
	}
	t := &table{words: words}
	slab := &tree.Slab{}
	last := int32(-1)
	for i := 0; i < count; i++ {
		if len(words)-pos < 3 {
			return nil, fmt.Errorf("segment: shard %d truncated at item %d", si, i)
		}
		start := pos
		node := words[pos]
		k := int(uint32(words[pos+1]))
		flags := uint32(words[pos+2])
		pos += 3
		if node < 0 {
			return nil, fmt.Errorf("segment: shard %d item %d has negative node id", si, i)
		}
		// Writers emit items strictly node-ascending per shard; since the
		// layout maps a node to exactly one shard, this single ordered
		// pass doubles as the whole-segment duplicate check.
		if node <= last {
			return nil, fmt.Errorf("segment: shard %d items not node-ascending (%d after %d)", si, node, last)
		}
		last = node
		if k != meta.K {
			return nil, fmt.Errorf("segment: node %d has k=%d, segment k=%d", node, k, meta.K)
		}
		hasIn := flags&1 != 0
		if hasIn != meta.Directed {
			return nil, fmt.Errorf("segment: node %d directedness disagrees with segment meta", node)
		}
		if want := place.shardOf(graph.NodeID(node), meta.Shards); want != si {
			return nil, fmt.Errorf("segment: node %d filed under shard %d, placement routes it to %d",
				node, si, want)
		}
		if sh == nil {
			it := ned.Item{Node: graph.NodeID(node), K: k}
			if it.Out, it.OutP, pos, err = decodeTreeV1(words, pos, in, slab); err != nil {
				return nil, fmt.Errorf("node %d: %w", node, err)
			}
			if hasIn {
				if it.In, it.InP, pos, err = decodeTreeV1(words, pos, in, slab); err != nil {
					return nil, fmt.Errorf("node %d incoming: %w", node, err)
				}
			}
			t.v1 = append(t.v1, it)
			continue
		}
		sides, key, which := 1, 0, ""
		if hasIn {
			sides = 2
		}
		for side := range sides {
			n, h, end, err := scanTree(words, pos, sh)
			if err != nil {
				return nil, fmt.Errorf("node %d%s: %w", node, which, err)
			}
			if side == 0 {
				t.heads = append(t.heads, rowHead{pos: int32(start), out: int32(end - pos)})
			}
			d, w := treeLen(words, pos, end)
			key, t.height[side] = key+n, max(t.height[side], h)
			t.degs[side], t.stored[side] = t.degs[side]+d, t.stored[side]+w
			pos, which = end, " incoming"
		}
		t.nodes = append(t.nodes, graph.NodeID(node))
		t.keys = append(t.keys, int32(key))
	}
	if pos != len(words) {
		return nil, fmt.Errorf("segment: shard %d: %d trailing words in section payload", si, len(words)-pos)
	}
	return t, nil
}

// trees returns where item i of t has its out-tree and, when directed,
// its in-tree, and the in-tree's end.
func (t *table) trees(i int) (out, in, end int) {
	out = int(t.heads[i].pos) + 3
	in, end = out+int(t.heads[i].out), len(t.words)
	if i+1 < len(t.heads) {
		end = int(t.heads[i+1].pos)
	}
	return out, in, end
}

// eachTable runs f over tables 0…n-1 on GOMAXPROCS workers, each with
// scratch of its own, and returns the first table's error.
func eachTable(n int, f func(ti int, sc *treeScratch) error) error {
	errs, free := make([]error, n), make(chan *treeScratch, n)
	ned.ParallelForCtx(context.Background(), n, 0, func(ti int) {
		var sc *treeScratch
		select {
		case sc = <-free:
		default:
			sc = new(treeScratch)
		}
		errs[ti] = f(ti, sc)
		free <- sc
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeTables decodes the item tables' payloads into one batch of rows
// and each item's row, in table order. NEDSEG02 rows are decoded once,
// straight into their rank slots (ned.RankOrder) of arenas sized by the
// first pass (scanTable) with a relocation's room to spare (ned.RowRoom),
// so the scan adopts them as they are and a replayed log or the first
// writes append in place. NEDSEG01 items come back node-ascending.
func decodeTables(payloads [][]byte, meta Meta, place *legacyPlacement, in *tree.Interner, sh *shapeTable) (*ned.Rows, []int32, error) {
	tables := make([]*table, len(payloads))
	err := eachTable(len(payloads), func(ti int, _ *treeScratch) (err error) {
		tables[ti], err = scanTable(payloads[ti], ti, meta, place, in, sh)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if sh == nil {
		var items []ned.Item
		for _, t := range tables {
			items = append(items, t.v1...)
		}
		rows := ned.RowsOf(items)
		rank := make([]int32, len(items))
		for i, it := range items {
			r, _ := slices.BinarySearch(rows.Nodes, it.Node)
			rank[i] = int32(r)
		}
		return rows, rank, nil
	}

	// Rank every item across the tables, then size the arenas and give
	// each slot its room: the offsets hold each slot's lengths until they
	// are summed.
	var nodes []graph.NodeID
	var keys []int32
	var height, degs, stored [2]int
	for _, t := range tables {
		nodes, keys = append(nodes, t.nodes...), append(keys, t.keys...)
		for side := range height {
			height[side] = max(height[side], t.height[side])
			degs[side], stored[side] = degs[side]+t.degs[side], stored[side]+t.stored[side]
		}
	}
	n := len(nodes)
	rank := make([]int32, n)
	for r, g := range ned.RankOrder(nodes, keys) {
		rank[g] = int32(r)
	}
	room := ned.RowRoom(n)
	rows := &ned.Rows{K: meta.K, Nodes: make([]graph.NodeID, n, n+room)}
	rows.Out = tree.NewArena(in, height[0]+1, n, degs[0], stored[0], room)
	if meta.Directed {
		rows.In = tree.NewArena(in, height[1]+1, n, degs[1], stored[1], room)
	}
	g := 0
	for _, t := range tables {
		for i := range t.heads {
			out, inAt, end := t.trees(i)
			r := rank[g] + 1
			d, w := treeLen(t.words, out, inAt)
			rows.Out.DegOff[r], rows.Out.WordOff[r] = int32(d), int32(w)
			if meta.Directed {
				d, w = treeLen(t.words, inAt, end)
				rows.In.DegOff[r], rows.In.WordOff[r] = int32(d), int32(w)
			}
			g++
		}
	}
	for _, a := range []*tree.ProfileArena{rows.Out, rows.In} {
		for r := 0; a != nil && r < n; r++ {
			a.DegOff[r+1] += a.DegOff[r]
			a.WordOff[r+1] += a.WordOff[r]
		}
	}

	base := make([]int, len(tables))
	for ti := 1; ti < len(tables); ti++ {
		base[ti] = base[ti-1] + len(tables[ti-1].heads)
	}
	err = eachTable(len(tables), func(ti int, sc *treeScratch) error {
		t := tables[ti]
		for i, node := range t.nodes {
			slot := int(rank[base[ti]+i])
			rows.Nodes[slot] = node
			out, inAt, _ := t.trees(i)
			if err := fillRow(t.words, out, sh, sc, rows.Out, slot); err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
			if meta.Directed {
				if err := fillRow(t.words, inAt, sh, sc, rows.In, slot); err != nil {
					return fmt.Errorf("node %d incoming: %w", node, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, rank, nil
}

// treeLen is the degree-run and stored length of the tree that
// words[pos:end] holds.
func treeLen(words []int32, pos, end int) (degs, length int) {
	return max(int(uint32(words[pos])&^parentsFlag)-1, 0), end - pos
}

// legacyPlacement is the placement directory a segment of an earlier
// build may carry: base redirect buckets (bucket b of the hash routes to
// shard redirect[b]) plus node-level overrides. Read needs it for one
// thing, checking that every item is filed under the shard the
// segment's own layout routes it to, and does not return it.
type legacyPlacement struct {
	redirect []int32
	moves    map[graph.NodeID]int32
}

// shardOf is the shard a segment's layout files node v under: through
// the recorded directory when the segment carries one (p non-nil), the
// hash over its shard count otherwise.
func (p *legacyPlacement) shardOf(v graph.NodeID, shards int) int {
	if p == nil {
		return ned.ShardOf(v, shards)
	}
	if s, ok := p.moves[v]; ok {
		return int(s)
	}
	return int(p.redirect[ned.ShardOf(v, len(p.redirect))])
}

// decodePlacement decodes and validates a placement directory section:
// every bucket and every move must route into [0, shards).
func decodePlacement(payload []byte, shards int) (*legacyPlacement, error) {
	d := &dec{b: payload}
	base := int(d.u32())
	ps := int(d.u32())
	if d.err == nil && ps != shards {
		d.fail("segment: placement routes into %d shards, meta declares %d", ps, shards)
	}
	if d.err == nil && (base < 1 || base > 1<<20) {
		d.fail("segment: implausible placement base %d", base)
	}
	place := &legacyPlacement{redirect: d.i32s(base)}
	nMoves := int(d.u64())
	if d.err == nil && (nMoves < 0 || len(d.b) != 8*nMoves) {
		d.fail("segment: placement declares %d moves with %d bytes left", nMoves, len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	for b, s := range place.redirect {
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("segment: placement bucket %d routes to shard %d of %d", b, s, shards)
		}
	}
	place.moves = make(map[graph.NodeID]int32, nMoves)
	last := int32(-1)
	for i := 0; i < nMoves; i++ {
		node := int32(d.u32())
		s := int32(d.u32())
		if node <= last {
			return nil, fmt.Errorf("segment: placement moves not node-ascending (%d after %d)", node, last)
		}
		last = node
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("segment: placement moves node %d to shard %d of %d", node, s, shards)
		}
		place.moves[graph.NodeID(node)] = s
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return place, nil
}

// decodeIndex decodes one shard's VP-index dump section.
func decodeIndex(payload []byte, si int) (VPIndex, error) {
	var ix VPIndex
	d := &dec{b: payload}
	if got := int(d.u32()); d.err == nil && got != si {
		return ix, fmt.Errorf("segment: index section %d out of order (want %d)", got, si)
	}
	nNodes := int(d.u32())
	nTail := int(d.u32())
	if d.err == nil && (nNodes < 0 || nTail < 0 || len(d.b) != 13*nNodes+4*nTail) {
		d.fail("segment: shard %d index declares %d nodes and %d tail items with %d bytes",
			si, nNodes, nTail, len(d.b))
	}
	if d.err != nil {
		return ix, d.err
	}
	if nNodes > 0 {
		ix.Nodes = make([]VPNode, nNodes)
		for i := range ix.Nodes {
			n := &ix.Nodes[i]
			node := int32(d.u32())
			n.Radius = math.Float64frombits(d.u64())
			flags := d.u8()
			if node < 0 {
				return ix, fmt.Errorf("segment: shard %d index node %d has negative node id", si, i)
			}
			if flags > 3 {
				return ix, fmt.Errorf("segment: shard %d index node %d has unknown flags %#x", si, i, flags)
			}
			n.Node = graph.NodeID(node)
			n.Inside = flags&1 != 0
			n.Beyond = flags&2 != 0
		}
	}
	if nTail > 0 {
		ix.Tail = make([]graph.NodeID, nTail)
		for i := range ix.Tail {
			v := int32(d.u32())
			if v < 0 {
				return ix, fmt.Errorf("segment: shard %d index tail entry %d has negative node id", si, i)
			}
			ix.Tail[i] = graph.NodeID(v)
		}
	}
	if err := d.done(); err != nil {
		return ix, fmt.Errorf("segment: shard %d index: %w", si, err)
	}
	return ix, nil
}

// Read parses a binary segment of either layout, reconstructing the
// shape dictionary, every item with its trees and compiled profiles
// (built from its row, tree.ProfileArena.Build), the embedded graph (nil
// when the segment carries none), and the persisted per-shard VP-index
// dumps (nil when the segment carries none — indexes[si] may also be
// empty for individual shards, which then rebuild lazily). Items are
// returned flattened in shard order (node-ascending within each
// shard, as written); callers re-file them by hash for whatever shard
// count they run with, and must discard the index dumps if that count
// differs from meta.Shards. Any truncation, checksum mismatch, or
// internal inconsistency is a loud error; a NEDSEG02 item table that
// disagrees with the dictionary fails with ErrInconsistent.
func Read(r io.Reader) (Meta, []ned.Item, *tree.Interner, *graph.Graph, []VPIndex, error) {
	meta, rows, rank, in, g, indexes, err := read(r)
	if err != nil {
		return meta, nil, nil, nil, nil, err
	}
	items := make([]ned.Item, len(rank))
	for i, r := range rank {
		items[i] = rows.Item(int(r))
	}
	return meta, items, in, g, indexes, nil
}

// ReadRows is Read for a scan: every item table's rows in one batch, in
// rank order (ned.NewScan adopts it as it is; a NEDSEG01 segment's come
// back node-ascending), without building a tree or a profile, and the
// index dumps dropped.
func ReadRows(r io.Reader) (Meta, *ned.Rows, *tree.Interner, *graph.Graph, error) {
	meta, rows, _, in, g, _, err := read(r)
	if err != nil {
		return meta, nil, nil, nil, err
	}
	return meta, rows, in, g, nil
}

// read parses a segment into its meta, rows (decodeTables), each item's
// row in table order, dictionary, graph and index dumps.
func read(r io.Reader) (Meta, *ned.Rows, []int32, *tree.Interner, *graph.Graph, []VPIndex, error) {
	var meta Meta
	fail := func(err error) (Meta, *ned.Rows, []int32, *tree.Interner, *graph.Graph, []VPIndex, error) {
		return meta, nil, nil, nil, nil, nil, err
	}
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fail(fmt.Errorf("segment: reading magic: %w", err))
	}
	if !IsSegment(magic[:]) {
		return fail(fmt.Errorf("segment: bad magic %q", magic[:]))
	}
	v1 := string(magic[:]) == magicV1

	// Meta.
	payload, err := expectSection(r, secMeta)
	if err != nil {
		return fail(err)
	}
	d := &dec{b: payload}
	if len(d.b) < 2 {
		return fail(fmt.Errorf("segment: truncated meta"))
	}
	blen := int(d.b[0]) | int(d.b[1])<<8
	d.b = d.b[2:]
	if len(d.b) < blen {
		return fail(fmt.Errorf("segment: truncated meta backend name"))
	}
	meta.Backend = string(d.b[:blen])
	d.b = d.b[blen:]
	meta.K = int(d.u32())
	directed := d.u8()
	meta.Shards = int(d.u32())
	meta.Items = int(d.u64())
	dictLen := int(d.u32())
	hasGraph := d.u8()
	hasIndex := d.u8()
	if d.err == nil && (directed > 1 || hasGraph > 1 || hasIndex > 1 || meta.K < 1 || meta.Shards < 1 ||
		meta.Items < 0 || dictLen < 0 || meta.Shards > 1<<20) {
		d.fail("segment: implausible meta (k=%d shards=%d items=%d dict=%d)", meta.K, meta.Shards, meta.Items, dictLen)
	}
	meta.Directed = directed == 1
	shardLens := make([]uint64, 0, max(meta.Shards, 0))
	for i := 0; d.err == nil && i < meta.Shards; i++ {
		shardLens = append(shardLens, d.u64())
	}
	if d.err != nil {
		return fail(d.err)
	}
	if err := d.done(); err != nil {
		return fail(err)
	}

	// Dictionary.
	payload, err = expectSection(r, secDict)
	if err != nil {
		return fail(err)
	}
	d = &dec{b: payload}
	n := int(d.u32())
	if d.err == nil && n != dictLen {
		d.fail("segment: dict section has %d shapes, meta declares %d", n, dictLen)
	}
	kidOff := d.i32s(n + 1)
	var kids []int32
	if d.err == nil {
		kids = d.i32s(int(kidOff[n]))
	}
	if d.err != nil {
		return fail(d.err)
	}
	if err := d.done(); err != nil {
		return fail(err)
	}
	in, err := tree.NewInternerFromShapes(kidOff, kids)
	if err != nil {
		return fail(fmt.Errorf("segment: %w", err))
	}
	var sh *shapeTable
	if !v1 {
		sh = newShapeTable(kidOff, kids)
	}

	// Graph.
	var g *graph.Graph
	if hasGraph == 1 {
		payload, err = expectSection(r, secGraph)
		if err != nil {
			return fail(err)
		}
		d = &dec{b: payload}
		nodes := int(d.u32())
		gdir := d.u8()
		edges := int(d.u64())
		if d.err == nil && (gdir > 1 || edges < 0 || len(d.b) != 8*edges) {
			d.fail("segment: graph section declares %d edges with %d bytes", edges, len(d.b))
		}
		if d.err != nil {
			return fail(d.err)
		}
		b := graph.NewBuilder(nodes, gdir == 1)
		for i := 0; i < edges; i++ {
			u, v := int32(d.u32()), int32(d.u32())
			if u < 0 || int(u) >= nodes || v < 0 || int(v) >= nodes {
				return fail(fmt.Errorf("segment: graph edge (%d,%d) outside [0,%d)", u, v, nodes))
			}
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
		if err := d.done(); err != nil {
			return fail(err)
		}
		g = b.Build()
	}

	// The section after the graph is either an earlier build's placement
	// directory or the first shard table — one section of lookahead
	// decides.
	typ, payload, err := readSection(r)
	if err != nil {
		return fail(err)
	}
	var place *legacyPlacement
	if typ == secPlace {
		if place, err = decodePlacement(payload, meta.Shards); err != nil {
			return fail(err)
		}
		typ, payload, err = readSection(r)
		if err != nil {
			return fail(err)
		}
	}

	// Shard item tables: collect payloads sequentially, decode in
	// parallel — tables are independent until their rows take their rank
	// slots, and decoding dominates load time.
	payloads := make([][]byte, meta.Shards)
	for si := 0; si < meta.Shards; si++ {
		if si > 0 {
			typ, payload, err = readSection(r)
			if err != nil {
				return fail(err)
			}
		}
		if typ != secShard {
			return fail(fmt.Errorf("segment: section type %d where %d expected", typ, secShard))
		}
		payloads[si] = payload
		if uint64(len(payloads[si])) != shardLens[si] {
			return fail(fmt.Errorf("segment: shard %d payload is %d bytes, meta declares %d",
				si, len(payloads[si]), shardLens[si]))
		}
	}
	rows, rank, err := decodeTables(payloads, meta, place, in, sh)
	if err != nil {
		return fail(err)
	}

	// VP-index dumps.
	var indexes []VPIndex
	if hasIndex == 1 {
		indexes = make([]VPIndex, meta.Shards)
		for si := 0; si < meta.Shards; si++ {
			payload, err = expectSection(r, secIndex)
			if err != nil {
				return fail(err)
			}
			if indexes[si], err = decodeIndex(payload, si); err != nil {
				return fail(err)
			}
		}
	}

	// End marker.
	payload, err = expectSection(r, secEnd)
	if err != nil {
		return fail(err)
	}
	d = &dec{b: payload}
	total := int(d.u64())
	if err := d.done(); err != nil {
		return fail(err)
	}
	// No cross-shard duplicate scan needed: scanTable enforced strict
	// node-ascending order within each shard, and a duplicate node would
	// route to the same shard.
	decoded := rows.Len()
	if decoded != meta.Items || total != meta.Items {
		return fail(fmt.Errorf("segment: item counts disagree: meta %d, end %d, decoded %d",
			meta.Items, total, decoded))
	}
	// A segment is a whole file: trailing bytes mean concatenation or
	// corruption, the same garble the text loader rejects.
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return fail(fmt.Errorf("segment: trailing data after end section"))
	}
	return meta, rows, rank, in, g, indexes, nil
}

// Verify walks a segment stream shallowly: magic, then every framed
// section checksum-verified in order until the end marker, then EOF.
// It does not decode payloads — that is Read's job — but it proves the
// file is structurally whole, which is what the checkpoint writer
// needs to confirm before deleting the generations a torn or bit-
// flipped write would otherwise have been recovered from. Payloads
// pass through the checksum in the 64 KiB buffer segment writes share,
// so verifying a segment never holds a section of it. Both layouts
// verify.
func Verify(r io.Reader) error {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("segment: verify: reading magic: %w", err)
	}
	if !IsSegment(magic[:]) {
		return fmt.Errorf("segment: verify: bad magic %q", magic[:])
	}
	chunk := getChunk()
	defer putChunk(chunk)
	buf := chunk[:]
	seen := 0
	for {
		typ, err := skipSection(r, buf)
		if err != nil {
			return fmt.Errorf("segment: verify: %w", err)
		}
		seen++
		if typ == secEnd {
			break
		}
		if seen > 1<<20 {
			return fmt.Errorf("segment: verify: no end marker after %d sections", seen)
		}
	}
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return fmt.Errorf("segment: verify: trailing data after end section")
	}
	return nil
}
