// Package segment is the durable persistence layer of the Corpus
// engine: a versioned binary segment format that round-trips a
// materialized corpus — signature trees AND their compiled cascade
// profiles AND the shape dictionary they are expressed against —
// without re-extracting, re-parsing, or re-profiling anything on load,
// plus a mutation write-ahead log (wal.go) and the checkpoint/log file
// discipline (files.go) that together recover a crashed corpus to its
// last committed mutation.
//
// # Segment format
//
// A segment is a magic string followed by framed sections:
//
//	magic   "NEDSEG01" (8 bytes)
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
//	       the interner's CSR shape table (tree.ExportShapes).
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
//	       tree), and per tree n, parents n×u32 (parents[0] is the
//	       root's -1), then the compiled profile columns
//	       labels n×u32, perm n×u32, kids (n-1)×u32.
//	index: shardIndex u32, nNodes u32, nTail u32, then per VP-tree
//	       node in preorder: node u32, radius f64 (IEEE-754 bits as
//	       u64), flags u8 (bit0 = has inside child, bit1 = has beyond
//	       child), then nTail×u32 post-build tail nodes. nNodes ==
//	       nTail == 0 means the shard carries no persisted index and
//	       rebuilds lazily.
//	end:   items u64 (must equal meta's).
//
// The index sections persist what even the item tables cannot buy
// back: a vantage-point tree costs O(n log n) TED* evaluations to
// build, so a segment that carries the built structure (radii and
// split topology, restored without a single metric call) turns a
// multi-second re-index into a sub-millisecond restore.
//
// The profile columns are the flat int32 vectors the filter cascade
// reads per candidate; persisting them (against the persisted
// dictionary) is what turns restart cost from O(corpus × reparse +
// reprofile) into a sequential read plus validation. The shard layout
// is deliberately word-only and word-aligned: on a little-endian host
// the wire format IS the in-memory column layout, so the decoder
// aliases parent vectors and profile columns straight into the
// checksummed section payload — zero copies, zero per-column
// allocations — and only a big-endian host pays a byte-swapping pass.
package segment

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"math"
	"runtime"
	"sync"
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

// Magic identifies (and versions) the binary segment format; sniff a
// stream's first len(Magic) bytes with IsSegment to route it here or
// to the text snapshot parsers.
const Magic = "NEDSEG01"

// IsSegment reports whether a stream beginning with prefix is a binary
// segment. Text snapshots start with '#' or an item line, so the first
// byte alone separates the families; the full magic is still verified
// by Read.
func IsSegment(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
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

// sectionChunk bounds the payload bytes a section writer holds before
// passing them on, and the buffer skipSection checks a payload through:
// neither side ever holds a whole section.
const sectionChunk = 64 << 10

// sectionWriter streams framed sections: the header goes out first,
// carrying the payload length the caller computed up front, then the
// payload in appends of at most sectionChunk bytes, each folded into a
// running CRC-32C as it leaves, then the checksum. A payload that comes
// up short of or runs past its declared length is an error, so the
// framing can never disagree with the bytes. Errors are sticky: after
// the first, writes are dropped and end reports it.
type sectionWriter struct {
	w    io.Writer
	buf  []byte // pending payload bytes
	crc  uint32
	left uint64 // payload bytes the open section still owes
	err  error
}

func newSectionWriter(w io.Writer) *sectionWriter {
	return &sectionWriter{w: w, buf: make([]byte, 0, sectionChunk)}
}

// begin opens a section of type typ whose payload is n bytes.
func (s *sectionWriter) begin(typ byte, n int) {
	if s.err != nil {
		return
	}
	hdr := appendU64(append(s.buf[:0], typ), uint64(n))
	if _, err := s.w.Write(hdr); err != nil {
		s.err = fmt.Errorf("segment: writing section header: %w", err)
	}
	s.buf, s.crc, s.left = s.buf[:0], 0, uint64(n)
}

// flush passes the pending payload bytes on through the checksum.
func (s *sectionWriter) flush() {
	if s.err != nil || len(s.buf) == 0 {
		s.buf = s.buf[:0]
		return
	}
	if uint64(len(s.buf)) > s.left {
		s.err = fmt.Errorf("segment: section payload runs past its declared length")
		return
	}
	s.crc = crc32.Update(s.crc, castagnoli, s.buf)
	s.left -= uint64(len(s.buf))
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = fmt.Errorf("segment: writing section payload: %w", err)
	}
	s.buf = s.buf[:0]
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
func (s *sectionWriter) raw(b []byte) {
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
	s.flush()
	if s.err == nil && s.left != 0 {
		s.err = fmt.Errorf("segment: section payload %d bytes short of its declared length", s.left)
	}
	if s.err != nil {
		return s.err
	}
	if _, err := s.w.Write(appendU32(s.buf[:0], s.crc)); err != nil {
		s.err = fmt.Errorf("segment: writing section checksum: %w", err)
	}
	return s.err
}

// writeSection frames one section held whole in memory: the small ones
// (meta, index dumps, end).
func (s *sectionWriter) writeSection(typ byte, payload []byte) error {
	s.begin(typ, len(payload))
	s.raw(payload)
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

// encodedTreeSize is the byte length of one serialized tree + profile:
// 4n u32 words (n, parents n, labels n, perm n, kids n-1).
func encodedTreeSize(n int) int { return 16 * n }

// encodedItemSize is the byte length of one serialized item: the
// 3-word header plus each tree.
func encodedItemSize(it *ned.Item, directed bool) int {
	s := 12 + encodedTreeSize(it.Out.Size())
	if directed {
		s += encodedTreeSize(it.In.Size())
	}
	return s
}

// --- writing ---

// writeTree streams one tree and its compiled profile. The full parent
// vector is written — including the root's -1 — so a decoder on a
// little-endian host can alias it in place as the tree's own storage.
func writeTree(s *sectionWriter, t *tree.Tree, p *tree.Profile) {
	n := t.Size()
	s.u32(uint32(n))
	for v := range int32(n) {
		s.u32(uint32(t.Parent(v)))
	}
	s.i32s(p.Labels)
	s.i32s(p.Perm)
	s.i32s(p.Kids)
}

// maxTables caps the item tables Tables splits a corpus into: past a
// core per table, more tables only add framing.
const maxTables = 16

// Tables splits node-ascending items into the item tables Write takes:
// table i holds, still node-ascending, the items ned.ShardOf files under
// i of min(GOMAXPROCS, 16) tables, so Read decodes them in parallel on
// the same cores. The count is layout, not content: Read returns the
// same items whatever it was.
func Tables(items iter.Seq[ned.Item]) [][]ned.Item {
	n := min(runtime.GOMAXPROCS(0), maxTables)
	tables := make([][]ned.Item, n)
	for it := range items {
		ti := ned.ShardOf(it.Node, n)
		tables[ti] = append(tables[ti], it)
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
// Write streams: the dictionary, graph and shard sections go out in
// appends of at most 64 KiB through a running checksum, behind headers
// carrying lengths computed up front, so writing a segment never holds
// a copy of the corpus — only meta and the index dumps are framed in
// memory.
func Write(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, shardItems [][]ned.Item, indexes []VPIndex) error {
	meta.Shards = len(shardItems)
	meta.Items = 0
	for _, items := range shardItems {
		meta.Items += len(items)
	}
	if indexes != nil && len(indexes) != len(shardItems) {
		return fmt.Errorf("segment: %d index dumps for %d shards", len(indexes), len(shardItems))
	}
	shardLens := make([]int, len(shardItems))
	for si, items := range shardItems {
		if indexes != nil {
			if ix := &indexes[si]; !ix.empty() && len(ix.Nodes)+len(ix.Tail) != len(items) {
				return fmt.Errorf("segment: shard %d index references %d items, shard has %d",
					si, len(ix.Nodes)+len(ix.Tail), len(items))
			}
		}
		shardLens[si] = 8
		for i := range items {
			it := &items[i]
			if it.Node < 0 {
				return fmt.Errorf("segment: shard %d: negative node id %d", si, it.Node)
			}
			if it.Out == nil || it.OutP == nil || !it.OutP.Resolved() {
				return fmt.Errorf("segment: node %d has no compiled outgoing profile (segments require a materialized, profiled corpus)", it.Node)
			}
			if meta.Directed && (it.In == nil || it.InP == nil || !it.InP.Resolved()) {
				return fmt.Errorf("segment: node %d has no compiled incoming profile on a directed corpus", it.Node)
			}
			shardLens[si] += encodedItemSize(it, meta.Directed)
		}
	}
	if len(meta.Backend) > 0xFFFF {
		return fmt.Errorf("segment: backend name too long")
	}

	bw := bufio.NewWriterSize(w, sectionChunk)
	if _, err := io.WriteString(bw, Magic); err != nil {
		return fmt.Errorf("segment: writing magic: %w", err)
	}
	sw := newSectionWriter(bw)

	kidOff, kids := dict.ExportShapes()

	// Meta, including the shard table byte lengths (section offsets).
	mb := make([]byte, 0, 64+8*len(shardItems))
	mb = append(mb, byte(len(meta.Backend)), byte(len(meta.Backend)>>8))
	mb = append(mb, meta.Backend...)
	mb = appendU32(mb, uint32(meta.K))
	mb = append(mb, boolByte(meta.Directed))
	mb = appendU32(mb, uint32(meta.Shards))
	mb = appendU64(mb, uint64(meta.Items))
	mb = appendU32(mb, uint32(len(kidOff)-1))
	mb = append(mb, boolByte(g != nil), boolByte(indexes != nil))
	for _, size := range shardLens {
		mb = appendU64(mb, uint64(size))
	}
	if err := sw.writeSection(secMeta, mb); err != nil {
		return err
	}

	// Dictionary.
	sw.begin(secDict, 4+4*len(kidOff)+4*len(kids))
	sw.u32(uint32(len(kidOff) - 1))
	sw.i32s(kidOff)
	sw.i32s(kids)
	if err := sw.end(); err != nil {
		return err
	}

	// Graph.
	if g != nil {
		edges := g.Edges()
		sw.begin(secGraph, 13+8*len(edges))
		sw.u32(uint32(g.NumNodes()))
		sw.u8(boolByte(g.Directed()))
		sw.u64(uint64(len(edges)))
		for _, e := range edges {
			sw.u32(uint32(e.U))
			sw.u32(uint32(e.V))
		}
		if err := sw.end(); err != nil {
			return err
		}
	}

	// Shard item tables.
	for si, items := range shardItems {
		sw.begin(secShard, shardLens[si])
		sw.u32(uint32(si))
		sw.u32(uint32(len(items)))
		for i := range items {
			it := &items[i]
			sw.u32(uint32(it.Node))
			sw.u32(uint32(it.K))
			sw.u32(uint32(boolByte(meta.Directed)))
			writeTree(sw, it.Out, it.OutP)
			if meta.Directed {
				writeTree(sw, it.In, it.InP)
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
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("segment: flushing: %w", err)
	}
	return nil
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

// decodeTree decodes one serialized tree + profile from the word
// stream at words[pos:], returning the cursor past it. The parent
// vector and profile columns are subslices of words — aliased payload
// on little-endian hosts — handed to tree.NewOwned / ProfileFromParts
// without the defensive copies the public constructors make; both
// treat their columns as immutable, so sharing the section payload is
// safe. Only the derived columns are allocated — the tree's child and
// level offsets, the profile's level sizes and degree runs — all carved
// from s.
func decodeTree(words []int32, pos int, in *tree.Interner, s *tree.Slab) (*tree.Tree, *tree.Profile, int, error) {
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

// decodeShard decodes one shard item table payload.
func decodeShard(payload []byte, si int, meta Meta, place *legacyPlacement, in *tree.Interner) ([]ned.Item, error) {
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
	// Minimum item: 3 header words + a 1-node tree's 4 words.
	if count < 0 || count > (len(words)-pos)/7 {
		return nil, fmt.Errorf("segment: shard %d declares %d items with %d words left", si, count, len(words)-pos)
	}
	slab := &tree.Slab{}
	items := make([]ned.Item, 0, count)
	last := int32(-1)
	for i := 0; i < count; i++ {
		if len(words)-pos < 3 {
			return nil, fmt.Errorf("segment: shard %d truncated at item %d", si, i)
		}
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
		it := ned.Item{Node: graph.NodeID(node), K: k}
		var err error
		if it.Out, it.OutP, pos, err = decodeTree(words, pos, in, slab); err != nil {
			return nil, fmt.Errorf("node %d: %w", node, err)
		}
		if hasIn {
			if it.In, it.InP, pos, err = decodeTree(words, pos, in, slab); err != nil {
				return nil, fmt.Errorf("node %d incoming: %w", node, err)
			}
		}
		items = append(items, it)
	}
	if pos != len(words) {
		return nil, fmt.Errorf("segment: shard %d: %d trailing words in section payload", si, len(words)-pos)
	}
	return items, nil
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

// Read parses a binary segment, reconstructing the shape dictionary,
// every item with its compiled profiles, the embedded graph (nil when
// the segment carries none), and the persisted per-shard VP-index
// dumps (nil when the segment carries none — indexes[si] may also be
// empty for individual shards, which then rebuild lazily). Items are
// returned flattened in shard order (node-ascending within each
// shard, as written); callers re-file them by hash for whatever shard
// count they run with, and must discard the index dumps if that count
// differs from meta.Shards. Any truncation, checksum mismatch, or
// internal inconsistency is a loud error.
func Read(r io.Reader) (Meta, []ned.Item, *tree.Interner, *graph.Graph, []VPIndex, error) {
	var meta Meta
	fail := func(err error) (Meta, []ned.Item, *tree.Interner, *graph.Graph, []VPIndex, error) {
		return meta, nil, nil, nil, nil, err
	}
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fail(fmt.Errorf("segment: reading magic: %w", err))
	}
	if !IsSegment(magic[:]) {
		return fail(fmt.Errorf("segment: bad magic %q", magic[:]))
	}

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
	// parallel — item decoding (tree construction + profile
	// reconstruction) dominates load time and shards are independent.
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
	shardItems := make([][]ned.Item, meta.Shards)
	errs := make([]error, meta.Shards)
	workers := min(runtime.GOMAXPROCS(0), meta.Shards)
	var wg sync.WaitGroup
	next := make(chan int, meta.Shards)
	for si := 0; si < meta.Shards; si++ {
		next <- si
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range next {
				shardItems[si], errs[si] = decodeShard(payloads[si], si, meta, place, in)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
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
	// No cross-shard duplicate scan needed: decodeShard enforced strict
	// node-ascending order within each shard, and a duplicate node would
	// route to the same shard.
	items := make([]ned.Item, 0, meta.Items)
	for _, sh := range shardItems {
		items = append(items, sh...)
	}
	if len(items) != meta.Items || total != meta.Items {
		return fail(fmt.Errorf("segment: item counts disagree: meta %d, end %d, decoded %d",
			meta.Items, total, len(items)))
	}
	// A segment is a whole file: trailing bytes mean concatenation or
	// corruption, the same garble the text loader rejects.
	var one [1]byte
	if n, _ := r.Read(one[:]); n != 0 {
		return fail(fmt.Errorf("segment: trailing data after end section"))
	}
	return meta, items, in, g, indexes, nil
}

// Verify walks a segment stream shallowly: magic, then every framed
// section checksum-verified in order until the end marker, then EOF.
// It does not decode payloads — that is Read's job — but it proves the
// file is structurally whole, which is what the checkpoint writer
// needs to confirm before deleting the generations a torn or bit-
// flipped write would otherwise have been recovered from. Payloads
// pass through the checksum in one fixed 64 KiB buffer, so verifying
// a segment never holds a section of it.
func Verify(r io.Reader) error {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("segment: verify: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return fmt.Errorf("segment: verify: bad magic %q", magic[:])
	}
	buf := make([]byte, sectionChunk)
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
