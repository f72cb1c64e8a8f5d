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
//	magic   "NEDSEG02" (8 bytes)
//	section [type u8][payloadLen u64][payload][crc32c(payload) u32]
//
// in fixed order: meta (1), dict (2), an optional graph (3), one shard
// item table (4) per shard, optionally one VP-index dump (6) per shard,
// and end (5). All integers are little-endian. Every section is
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
// the tables as a scan ranks them, and a second pass (fillRow) writes
// each row's words, as the uvarints an arena holds, into its rank slot
// of arenas sized once and derives only the level widths, from the
// child counts, and the degree runs, the child counts sorted per level
// and stored at the width the largest needs. A writer decodes the
// uvarints back: the format's words stay u32. In BFS order the child counts are
// the child offsets (every extracted tree is; only a tree converted
// from a text corpus can be another, which keeps its parent vector). The
// deepest level, all leaves, is its width alone in memory as on disk.
// Every stored label is checked against the shapes around it — in the
// dictionary, child counts that end exactly on a level boundary, no
// stored level without children, leaf kids only on level h−1, children
// that carry their parent's shape's kids — so a table that checksums
// but could not have been written fails with ErrInconsistent.
//
// A load retains no item-table payload: every column is derived into
// fresh storage. Older layouts (NEDSEG01, text corpora) do not load
// here; internal/legacy converts them to NEDSEG02 offline.
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
// emits and Read and Verify accept.
const Magic = "NEDSEG02"

// IsSegment reports whether a stream beginning with prefix is a binary
// segment.
func IsSegment(prefix []byte) bool { return bytes.HasPrefix(prefix, []byte(Magic)) }

// Section types, in their required order (index sections, when
// present, sit between the shard tables and the end marker).
const (
	SecMeta  = 1
	SecDict  = 2
	SecGraph = 3
	SecShard = 4
	SecEnd   = 5
	SecIndex = 6
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

// Header is a segment's meta section: its Meta and the layout of the
// sections after it.
type Header struct {
	Meta
	Shapes             int      // the dictionary's shape count
	HasGraph, HasIndex bool     // whether a graph section and index dumps follow
	TableLens          []uint64 // each item table's payload length, Shards of them
}

// Append appends h to b as a meta section's payload.
func (h *Header) Append(b []byte) ([]byte, error) {
	if len(h.Backend) > 0xFFFF {
		return nil, fmt.Errorf("segment: backend name too long")
	}
	b = append(b, byte(len(h.Backend)), byte(len(h.Backend)>>8))
	b = append(b, h.Backend...)
	b = appendU32(b, uint32(h.K))
	b = append(b, boolByte(h.Directed))
	b = appendU32(b, uint32(h.Shards))
	b = appendU64(b, uint64(h.Items))
	b = appendU32(b, uint32(h.Shapes))
	b = append(b, boolByte(h.HasGraph), boolByte(h.HasIndex))
	for _, n := range h.TableLens {
		b = appendU64(b, n)
	}
	return b, nil
}

// DecodeHeader decodes a meta section's payload.
func DecodeHeader(payload []byte) (Header, error) {
	var h Header
	d := &dec{b: payload}
	if len(d.b) < 2 {
		return h, fmt.Errorf("segment: truncated meta")
	}
	blen := int(d.b[0]) | int(d.b[1])<<8
	d.b = d.b[2:]
	if len(d.b) < blen {
		return h, fmt.Errorf("segment: truncated meta backend name")
	}
	h.Backend = string(d.b[:blen])
	d.b = d.b[blen:]
	h.K = int(d.u32())
	directed := d.u8()
	h.Shards = int(d.u32())
	h.Items = int(d.u64())
	h.Shapes = int(d.u32())
	hasGraph, hasIndex := d.u8(), d.u8()
	if d.err == nil && (directed > 1 || hasGraph > 1 || hasIndex > 1 || h.K < 1 || h.Shards < 1 ||
		h.Items < 0 || h.Shards > 1<<20) {
		d.fail("segment: implausible meta (k=%d shards=%d items=%d dict=%d)", h.K, h.Shards, h.Items, h.Shapes)
	}
	h.Directed, h.HasGraph, h.HasIndex = directed == 1, hasGraph == 1, hasIndex == 1
	for i := 0; d.err == nil && i < h.Shards; i++ {
		h.TableLens = append(h.TableLens, d.u64())
	}
	return h, d.done()
}

// DecodeShapes decodes a dict section's payload of n shapes: shape id's
// sorted child labels are kids[off[id]:off[id+1]].
func DecodeShapes(payload []byte, n int) (off, kids []int32, err error) {
	at := min(len(payload), 4+4*(n+1))
	return decodeShapes(payload[:at], payload[at:], n)
}

// decodeShapes is DecodeShapes over a dict section's payload in two
// parts: its count and offsets, then its kid run.
func decodeShapes(head, kidRun []byte, n int) (off, kids []int32, err error) {
	d := &dec{b: head}
	if got := int(d.u32()); d.err == nil && got != n {
		d.fail("segment: dict section has %d shapes, meta declares %d", got, n)
	}
	off = d.i32s(n + 1)
	if d.err != nil {
		return nil, nil, d.err
	}
	d.b = kidRun
	kids = d.i32s(int(off[n]))
	return off, kids, d.done()
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
// byte budget before allocating. On a little-endian host the column
// loads with one memmove.
func (d *dec) i32s(n int) []int32 {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < 4*n {
		d.fail("segment: truncated payload (want %d int32s, have %d bytes)", n, len(d.b))
		return nil
	}
	out, src := make([]int32, n), d.b[:4*n]
	if hostLittleEndian && n > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), 4*n), src)
	} else {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
	d.b = d.b[4*n:]
	return out
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
	words []int32 // the stored tree being written, decoded
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

// storedWords is the u32 words a stored tree's uvarints (b,
// tree.ProfileArena.Words) take in an item table: its header word and
// the labels the header counts, and the parent vector a flagged header
// announces, which only counting the uvarints finds.
func storedWords(b []byte) uint64 {
	hdr, _ := binary.Uvarint(b)
	if uint32(hdr)&parentsFlag != 0 {
		return uint64(tree.CountWords(b))
	}
	return 1 + hdr
}

// stored appends a stored tree's uvarints (tree.ProfileArena.Words) as
// the u32 words they encode.
func (s *sectionWriter) stored(b []byte) {
	s.words = tree.DecodeWords(s.words[:0], b)
	s.i32s(s.words)
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

// ReadSection reads and checksum-verifies one framed section. Any
// short read — a torn tail — is a loud error: segments are written
// atomically, so an incomplete one was corrupted after the fact.
func ReadSection(r io.Reader) (typ byte, payload []byte, err error) {
	typ, n, err := readSectionHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if payload, err = readPayload(r, 0, n, n); err != nil {
		return 0, nil, err
	}
	if err := readChecksum(r, typ, crc32.Checksum(payload, castagnoli)); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}

// readPayload reads the next n bytes of a section payload of total
// bytes, done of which are read already. Exact-size read under a trust
// cap: ordinary sections get a single allocation and one ReadFull.
// Beyond the cap, collect through a buffer that grows with the bytes
// actually present, so a corrupt length field on a short file cannot
// force a giant up-front allocation.
func readPayload(r io.Reader, done, n, total uint64) ([]byte, error) {
	const trustedAlloc = 64 << 20
	if n <= trustedAlloc {
		payload := make([]byte, n)
		got, err := io.ReadFull(r, payload)
		if err != nil {
			return nil, fmt.Errorf("segment: truncated section payload (%d of %d bytes): %w", done+uint64(got), total, io.ErrUnexpectedEOF)
		}
		return payload, nil
	}
	var buf bytes.Buffer
	got, err := io.CopyN(&buf, r, int64(n))
	if err != nil || uint64(got) != n {
		return nil, fmt.Errorf("segment: truncated section payload (%d of %d bytes): %w", done+uint64(got), total, io.ErrUnexpectedEOF)
	}
	return buf.Bytes(), nil
}

// readDict is expectSection for the dict section of a segment whose
// meta declares shapes shapes, read into two allocations under the
// section's one checksum: its count and offsets, which a load decodes
// and drops, and its kid run, which the dictionary's keys view for as
// long as the dictionary lives.
func readDict(r io.Reader, shapes int) (head, kids []byte, err error) {
	typ, n, err := readSectionHeader(r)
	if err != nil {
		return nil, nil, err
	}
	at := min(n, 4+4*(uint64(shapes)+1))
	if head, err = readPayload(r, 0, at, n); err != nil {
		return nil, nil, err
	}
	if kids, err = readPayload(r, at, n-at, n); err != nil {
		return nil, nil, err
	}
	if err := readChecksum(r, typ, crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, kids)); err != nil {
		return nil, nil, err
	}
	if typ != SecDict {
		return nil, nil, fmt.Errorf("segment: section type %d where %d expected", typ, SecDict)
	}
	return head, kids, nil
}

// AppendSection appends one framed section, as ReadSection reads it,
// to b.
func AppendSection(b []byte, typ byte, payload []byte) []byte {
	b = appendU64(append(b, typ), uint64(len(payload)))
	return appendU32(append(b, payload...), crc32.Checksum(payload, castagnoli))
}

// skipSection is ReadSection for a reader that needs only the verdict:
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
	typ, payload, err := ReadSection(r)
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
			r := ned.Row{Node: it.Node, Out: tree.AppendWords(nil, tree.AppendStored(nil, it.OutP, it.Out))}
			if meta.Directed {
				r.In = tree.AppendWords(nil, tree.AppendStored(nil, it.InP, it.In))
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
	shardLens := make([]uint64, len(tables))
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
			shardLens[si] += 12 + 4*storedWords(r.Out)
			if meta.Directed {
				shardLens[si] += 4 * storedWords(r.In)
			}
		}
	}

	shapes := dict.Shapes()
	kidWords := 0
	for _, key := range shapes {
		kidWords += len(key) / 4
	}
	h := Header{Meta: meta, Shapes: len(shapes), HasGraph: g != nil, HasIndex: indexes != nil, TableLens: shardLens}
	mb, err := h.Append(nil)
	if err != nil {
		return err
	}

	sw := newSectionWriter(w)
	defer sw.release()
	sw.frame([]byte(Magic))
	if err := sw.writeSection(SecMeta, mb); err != nil {
		return err
	}

	// Dictionary: the CSR offsets, then every shape's key, which is its
	// child labels as little-endian u32s already.
	sw.begin(SecDict, 4+4*(len(shapes)+1)+4*kidWords)
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
		sw.begin(SecGraph, 13+8*g.NumEdges())
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
		sw.begin(SecShard, int(shardLens[si]))
		sw.u32(uint32(si))
		sw.u32(uint32(len(rows)))
		for _, r := range rows {
			sw.u32(uint32(r.Node))
			sw.u32(uint32(meta.K))
			sw.u32(uint32(boolByte(meta.Directed)))
			sw.stored(r.Out)
			if meta.Directed {
				sw.stored(r.In)
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
		if err := sw.writeSection(SecIndex, ib); err != nil {
			return err
		}
	}

	if err := sw.writeSection(SecEnd, appendU64(nil, uint64(meta.Items))); err != nil {
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
// 4-byte alignment, the returned slice aliases payload, so the passes of
// a load read the section's checksummed bytes in place; they copy what
// they keep, so no row or tree is backed by it. Otherwise one
// byte-swapping copy is made.
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
// degCount one zero per child count between levels, degs a tree's
// degree runs before they are narrowed into its row.
type treeScratch struct {
	count    []int32
	degCount []int32
	kids     []int32
	degs     []int32
}

// scanTree reads the tree at words[pos:] as the first pass of a load
// does: its header, its stored labels, which must be in the dictionary,
// and the level widths they derive — the root alone, then each stored
// level's child count, which must end exactly where the stored labels
// do. It returns the tree's node count and height, its largest child
// count but the root's (the widest entry of its degree runs) and the
// cursor past it.
func scanTree(words []int32, pos int, sh *shapeTable) (n, h int, top int32, end int, err error) {
	if pos >= len(words) {
		return 0, 0, 0, 0, fmt.Errorf("segment: truncated payload")
	}
	hdr := uint32(words[pos])
	pos++
	m := int(hdr &^ parentsFlag)
	if m > len(words)-pos {
		return 0, 0, 0, 0, fmt.Errorf("segment: tree declares %d stored labels with %d words left", m, len(words)-pos)
	}
	stored := words[pos : pos+m]
	pos += m
	shapes := int32(len(sh.off) - 1)
	if shapes == 0 {
		return 0, 0, 0, 0, inconsistent("the dictionary has no leaf shape")
	}
	for v, l := range stored {
		if l < 0 || l >= shapes {
			return 0, 0, 0, 0, inconsistent("label %d of node %d outside the dictionary [0, %d)", l, v, shapes)
		}
	}
	n = 1
	for off, w := 0, 1; off < m; h++ {
		if off+w > m {
			return 0, 0, 0, 0, inconsistent("child counts of level %d overrun the %d stored labels", h, m)
		}
		c := 0
		for _, l := range stored[off : off+w] {
			d := sh.deg(l)
			if c += int(d); off > 0 {
				top = max(top, d)
			}
		}
		if c == 0 {
			return 0, 0, 0, 0, inconsistent("stored level %d has no children", h)
		}
		if n += c; n > maxTreeNodes {
			return 0, 0, 0, 0, inconsistent("tree derives more than %d nodes", maxTreeNodes)
		}
		off, w = off+w, c
	}
	if hdr&parentsFlag != 0 {
		if n > len(words)-pos {
			return 0, 0, 0, 0, fmt.Errorf("segment: tree's %d-node parent vector overruns the %d words left", n, len(words)-pos)
		}
		pos += n
	}
	return n, h, top, pos, nil
}

// fillRow decodes the tree at words[pos:], which scanTree has read, into
// row slot of a, whose offsets give the row its room: its words, as
// uvarints, level widths and degree runs (each level's child counts,
// sorted, at the arena's width), a node's child count being its label's
// shape's. It checks what scanTree did
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
	// count but the root's, in node order, in degs, which go into the
	// row's degree runs once sorted.
	levels := a.Levels[slot*a.Width : (slot+1)*a.Width]
	nd := int(a.DegOff[slot+1] - a.DegOff[slot])
	degs := slices.Grow(sc.degs[:0], nd)[:nd]
	sc.degs = degs
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
	a.Degs.Put(int(a.DegOff[slot]), degs)
	end := pos + 1 + m
	if t != nil {
		end += n
	}
	lo, hi := a.WordOff[slot], a.WordOff[slot+1]
	tree.AppendWords(a.Words[lo:lo:hi], words[pos:end])
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
// tree side (out, in), the tallest tree, the largest inner child count
// and the degree-run entries and stored bytes its rows hold.
type table struct {
	words        []int32
	nodes        []graph.NodeID
	keys         []int32
	heads        []rowHead
	height       [2]int
	top          [2]int32
	degs, stored [2]int
}

// rowHead locates one item of a table: the word it starts at and its
// out-tree's word count — its in-tree runs to the next item — and the
// bytes each tree takes stored (tree.ProfileArena.Words).
type rowHead struct {
	pos, out int32
	bytes    [2]int32
}

// scanTable is the first pass over one item table's payload: it checks
// every item's header and reads its trees (scanTree).
func scanTable(payload []byte, si int, meta Meta, sh *shapeTable) (*table, error) {
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
	// Minimum item: 3 header words + a 1-node tree's 1 word.
	if count < 0 || count > (len(words)-pos)/4 {
		return nil, fmt.Errorf("segment: shard %d declares %d items with %d words left", si, count, len(words)-pos)
	}
	t := &table{words: words}
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
		if want := ned.ShardOf(graph.NodeID(node), meta.Shards); want != si {
			return nil, fmt.Errorf("segment: node %d filed under shard %d, its hash routes it to %d", node, si, want)
		}
		sides, key, which := 1, 0, ""
		if hasIn {
			sides = 2
		}
		head := rowHead{pos: int32(start)}
		for side := range sides {
			n, h, top, end, err := scanTree(words, pos, sh)
			if err != nil {
				return nil, fmt.Errorf("node %d%s: %w", node, which, err)
			}
			if side == 0 {
				head.out = int32(end - pos)
			}
			head.bytes[side] = int32(tree.WordsLen(words[pos:end]))
			key, t.height[side], t.top[side] = key+n, max(t.height[side], h), max(t.top[side], top)
			t.degs[side] += storedDegs(words, pos)
			t.stored[side] += int(head.bytes[side])
			pos, which = end, " incoming"
		}
		t.heads = append(t.heads, head)
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
// writes append in place.
func decodeTables(payloads [][]byte, meta Meta, in *tree.Interner, sh *shapeTable) (*ned.Rows, []int32, error) {
	tables := make([]*table, len(payloads))
	err := eachTable(len(payloads), func(ti int, _ *treeScratch) (err error) {
		tables[ti], err = scanTable(payloads[ti], ti, meta, sh)
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	// Rank every item across the tables, then size the arenas and give
	// each slot its room: the offsets hold each slot's lengths until they
	// are summed.
	var nodes []graph.NodeID
	var keys []int32
	var height, degs, stored [2]int
	var top [2]int32
	for _, t := range tables {
		nodes, keys = append(nodes, t.nodes...), append(keys, t.keys...)
		for side := range height {
			height[side], top[side] = max(height[side], t.height[side]), max(top[side], t.top[side])
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
	rows.Out = tree.NewArena(in, height[0]+1, n, degs[0], top[0], stored[0], room)
	if meta.Directed {
		rows.In = tree.NewArena(in, height[1]+1, n, degs[1], top[1], stored[1], room)
	}
	g := 0
	for _, t := range tables {
		for i, head := range t.heads {
			out, inAt, _ := t.trees(i)
			r := rank[g] + 1
			rows.Out.DegOff[r], rows.Out.WordOff[r] = int32(storedDegs(t.words, out)), head.bytes[0]
			if meta.Directed {
				rows.In.DegOff[r], rows.In.WordOff[r] = int32(storedDegs(t.words, inAt)), head.bytes[1]
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

// storedDegs is the degree-run length of the tree at words[pos:]: its
// stored labels but the root's.
func storedDegs(words []int32, pos int) int {
	return max(int(uint32(words[pos])&^parentsFlag)-1, 0)
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

// Read parses a binary segment, reconstructing the
// shape dictionary, every item with its trees and compiled profiles
// (built from its row, tree.ProfileArena.Build), the embedded graph (nil
// when the segment carries none), and the persisted per-shard VP-index
// dumps (nil when the segment carries none — indexes[si] may also be
// empty for individual shards, which then rebuild lazily). Items are
// returned flattened in shard order (node-ascending within each
// shard, as written); callers re-file them by hash for whatever shard
// count they run with, and must discard the index dumps if that count
// differs from meta.Shards. Any truncation, checksum mismatch, or
// internal inconsistency is a loud error; an item table that disagrees
// with the dictionary fails with ErrInconsistent.
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
// rank order with a relocation's room to spare (ned.NewScan adopts it
// as it is), without building a tree or a profile, and the index dumps
// dropped.
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
	var h Header
	fail := func(err error) (Meta, *ned.Rows, []int32, *tree.Interner, *graph.Graph, []VPIndex, error) {
		return h.Meta, nil, nil, nil, nil, nil, err
	}
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fail(fmt.Errorf("segment: reading magic: %w", err))
	}
	if !IsSegment(magic[:]) {
		return fail(fmt.Errorf("segment: bad magic %q", magic[:]))
	}

	payload, err := expectSection(r, SecMeta)
	if err != nil {
		return fail(err)
	}
	if h, err = DecodeHeader(payload); err != nil {
		return fail(err)
	}
	meta := h.Meta

	head, kidRun, err := readDict(r, h.Shapes)
	if err != nil {
		return fail(err)
	}
	kidOff, kids, err := decodeShapes(head, kidRun, h.Shapes)
	if err != nil {
		return fail(err)
	}
	// readDict allocated the kid run for this read alone and nothing
	// writes it again, so the keys may stay views of it; the offsets'
	// allocation is not kept.
	in, err := tree.NewInternerFromShapes(kidOff, kidRun)
	if err != nil {
		return fail(fmt.Errorf("segment: %w", err))
	}
	sh := newShapeTable(kidOff, kids)

	// Graph.
	var g *graph.Graph
	if h.HasGraph {
		payload, err = expectSection(r, SecGraph)
		if err != nil {
			return fail(err)
		}
		d := &dec{b: payload}
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

	// Shard item tables: collect payloads sequentially, decode in
	// parallel — tables are independent until their rows take their rank
	// slots, and decoding dominates load time.
	payloads := make([][]byte, meta.Shards)
	for si := range payloads {
		if payloads[si], err = expectSection(r, SecShard); err != nil {
			return fail(err)
		}
		if uint64(len(payloads[si])) != h.TableLens[si] {
			return fail(fmt.Errorf("segment: shard %d payload is %d bytes, meta declares %d",
				si, len(payloads[si]), h.TableLens[si]))
		}
	}
	rows, rank, err := decodeTables(payloads, meta, in, sh)
	if err != nil {
		return fail(err)
	}

	// VP-index dumps.
	var indexes []VPIndex
	if h.HasIndex {
		indexes = make([]VPIndex, meta.Shards)
		for si := 0; si < meta.Shards; si++ {
			payload, err = expectSection(r, SecIndex)
			if err != nil {
				return fail(err)
			}
			if indexes[si], err = decodeIndex(payload, si); err != nil {
				return fail(err)
			}
		}
	}

	// End marker.
	payload, err = expectSection(r, SecEnd)
	if err != nil {
		return fail(err)
	}
	d := &dec{b: payload}
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
	// corruption.
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
// so verifying a segment never holds a section of it.
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
		if typ == SecEnd {
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
