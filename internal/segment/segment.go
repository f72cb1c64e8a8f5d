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
//	magic   "NEDSEG04" (8 bytes)
//	section [type u8][payloadLen u64][payload][crc32c(payload) u32]
//
// in fixed order: meta (1), dict (2), an optional graph (3), one shard
// item table (4) per shard, optionally one VP-index dump (6) per shard,
// and end (5). Fixed-width integers are little-endian; the dict and
// item-table payloads and the graph's lists are uvarints (uv below: at
// most 5 bytes, minimal, a count, node or delta at most 2³¹−1, a stored
// word at most 2³²−1).
// Every section is independently length-framed and checksummed, and the
// end section repeats the total item count, so a torn tail — truncation
// anywhere, even between sections — fails loudly instead of loading a
// silently smaller corpus. Segments are always written through
// fsx.WriteFileAtomic, so a torn segment on disk means external
// corruption, never a crashed writer.
//
//	meta:  backend string (u16 len + bytes), k u32, directed u8,
//	       shards u32, items u64, dictLen u32, hasGraph u8,
//	       hasIndex u8, then one u64 payload length per shard item
//	       table — the section offsets that let a reader slice or
//	       skip shards.
//	dict:  nShapes uv, then per shape id, front-coded against shape
//	       id−1 (shape 0 against the empty shape): shared uv, the
//	       count of its leading child labels equal to id−1's, rest uv,
//	       the count of labels after them, then those rest labels as
//	       uv deltas, the first from the last shared label (from 0 when
//	       none is). A shape's labels ascend and are smaller ids than
//	       its own, so shape 0 is the leaf; no shape repeats. A load
//	       expands the section into the resident dictionary's key
//	       buffer (tree.Interner.Coded: per shape its label count, then
//	       its labels as deltas from 0), whose tail bytes are the
//	       section's verbatim; through every shape the keys take at
//	       most 64 times the section's bytes so far (maxExpansion).
//	graph: nodes u32, directed u8, edges u64, then per node u in
//	       order its stored neighbours: count uv, then the neighbours,
//	       ascending, as uv gaps, each at least 1. Undirected, u stores
//	       each edge to a higher node, the first gap from u; directed,
//	       its out-neighbours, the first gap from −1. The counts sum to
//	       edges. The backing graph, so a recovered corpus keeps Insert
//	       and UpdateGraph without a sidecar file.
//	shard: itemCount uv, then per item (strictly node-ascending —
//	       the node is a uv delta from the previous one, the first's
//	       from −1, so a zero delta is a duplicate): the out-tree's
//	       stored row, and, when meta says directed, the in-tree's. A
//	       stored row is uv words exactly as tree.ProfileArena.Words
//	       holds them: a header m — bit 31 set when the tree is not in
//	       BFS order — then the interned labels of its m nodes above
//	       the deepest level (levels 0…h−1) in node order, then, when
//	       bit 31 is set, its parent vector (n words, the root's −1).
//	       Meta fixes every item's k and directedness.
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
// resident row stores too (tree.ProfileArena.Words), byte for byte.
// ReadRows reads the item tables twice: a first pass (scanTable)
// checks every uvarint and header and derives each tree's size and
// height, the rows are ranked across the tables as a scan ranks them,
// and a second pass (fillRow) copies each row's bytes into its rank
// slot of arenas sized once and derives only the level widths, from
// the child counts, and the degree runs, the child counts sorted per
// level and stored at the width the largest needs. A writer appends a
// row's bytes as they are. In BFS order the child counts are the child
// offsets (every extracted tree is; only a tree converted from a text
// corpus can be another, which keeps its parent vector). The deepest
// level, all leaves, is its width alone in memory as on disk. Every
// stored label is checked against the shapes around it — in the
// dictionary, child counts that end exactly on a level boundary, no
// stored level without children, leaf kids only on level h−1, children
// that carry their parent's shape's kids — and every uvarint for its
// form, so a table that checksums but could not have been written
// fails with ErrInconsistent.
//
// A load retains no item-table payload: every column is copied or
// derived into fresh storage. Older layouts (NEDSEG01, NEDSEG02,
// NEDSEG03, text corpora) do not load here; internal/legacy converts
// them to NEDSEG04 offline.
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
	"math/bits"
	"runtime"
	"slices"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/tree"
)

// Magic identifies (and versions) the binary segment format Write
// emits and Read and Verify accept.
const Magic = "NEDSEG04"

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

// maxExpansion bounds what a dict section expands to: through every
// shape, the coded keys (the resident key buffer) take at most
// maxExpansion times the section's bytes so far. Front coding alone has
// no such bound — a run of shapes each one label longer than the last
// codes in three bytes a shape and expands quadratically — so the
// writer shares fewer labels where the rule would break, which no
// dictionary of a real corpus comes near (its keys take 2–3 times the
// section), and the reader's allocations stay a multiple of the payload.
const maxExpansion = 64

// sharedPrefix counts the whole uvarints the uvarint runs a and b begin
// with, and their length in bytes. A uvarint's last byte is its one byte
// below 0x80, so they are the terminators among the bytes a and b share,
// which it compares and counts eight at a time.
func sharedPrefix(a, b []byte) (count, length int) {
	const high = 0x8080808080808080
	// end is the length of the whole uvarints of a's first c bytes.
	end := func(c int) int {
		for c > 0 && a[c-1] >= 0x80 {
			c--
		}
		return c
	}
	n, c := min(len(a), len(b)), 0
	for ; c+8 <= n; c += 8 {
		x := binary.LittleEndian.Uint64(a[c:])
		if d := x ^ binary.LittleEndian.Uint64(b[c:]); d != 0 {
			k := bits.TrailingZeros64(d) / 8 // the word's shared bytes
			count += k - bits.OnesCount64(x&high&(1<<(8*k)-1))
			return count, end(c + k)
		}
		count += 8 - bits.OnesCount64(x&high)
	}
	for ; c < n && a[c] == b[c]; c++ {
		if a[c] < 0x80 {
			count++
		}
	}
	return count, end(c)
}

// uvarintAt decodes the well-formed uvarint at b[i:] and returns the
// index past it.
func uvarintAt(b []byte, i int) (uint32, int) {
	if b[i] < 0x80 {
		return uint32(b[i]), i + 1
	}
	x, n := binary.Uvarint(b[i:])
	return uint32(x), i + n
}

// AppendDict appends the dict section's payload of dict to b: its coded
// keys (tree.Interner.Coded) front-coded in ID order, each shape sharing
// the longest run of its leading labels equal to the previous shape's
// that keeps maxExpansion's rule, followed by its tail, the bytes of its
// rest deltas, which are its key's own last bytes.
func AppendDict(b []byte, dict *tree.Interner) []byte {
	keys, off := dict.Coded()
	return appendDict(b, keys, off)
}

// appendDict is AppendDict over a dictionary's coded keys.
func appendDict(b, keys []byte, off []uint32) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(off)-1))
	var prev []byte // the previous shape's deltas
	expanded := 0
	for id := range len(off) - 1 {
		key := keys[off[id]:off[id+1]]
		n, j := uvarintAt(key, 0)
		deltas := key[j:]
		shared, at := sharedPrefix(deltas, prev)
		expanded += len(key)
		for {
			size := len(b) - start + tree.UvarintLen(uint32(shared)) + tree.UvarintLen(n-uint32(shared)) + len(deltas) - at
			if expanded <= maxExpansion*size {
				break
			}
			// Share one label less: at goes back to the start of the last
			// shared uvarint.
			shared, at = shared-1, at-1
			for at > 0 && deltas[at-1] >= 0x80 {
				at--
			}
		}
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(shared)), uint64(n)-uint64(shared))
		b = append(b, deltas[at:]...)
		prev = deltas
	}
	return b
}

// AppendGraph appends the graph section's payload of g to b: per node a
// count and its stored neighbours as gaps — undirected, those above it,
// the first gap from it; directed, its out-neighbours, the first gap
// from −1.
func AppendGraph(b []byte, g *graph.Graph) []byte {
	b = appendU32(b, uint32(g.NumNodes()))
	b = append(b, boolByte(g.Directed()))
	b = appendU64(b, uint64(g.NumEdges()))
	for u := range graph.NodeID(g.NumNodes()) {
		list, last := g.Neighbors(u), graph.NodeID(-1)
		if !g.Directed() {
			i, _ := slices.BinarySearch(list, u)
			list, last = list[i:], u
		}
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, v := range list {
			b, last = binary.AppendUvarint(b, uint64(v-last)), v
		}
	}
	return b
}

// decodeGraph decodes and checks a graph section's payload and builds
// the graph's adjacency straight from its lists (graph.FromLists): a
// first pass checks every list, allocating nothing, and a second fills
// them in. A list that cannot have been written fails with
// ErrInconsistent, reading nothing past p.
func decodeGraph(p []byte) (*graph.Graph, error) {
	d := &dec{b: p}
	nodes, gdir, edges := d.u32(), d.u8(), d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if gdir > 1 {
		return nil, fmt.Errorf("segment: graph section has directed flag %d", gdir)
	}
	directed, b := gdir == 1, d.b
	// Each node's count and each gap take a byte at least.
	if uint64(nodes)+edges > uint64(len(b)) || nodes > math.MaxInt32 {
		return nil, inconsistent("graph declares %d nodes and %d edges with %d bytes", nodes, edges, len(b))
	}
	n, e := int(nodes), int(edges)
	if err := decodeLists(b, n, e, directed, nil, nil); err != nil {
		return nil, err
	}
	off, adj := make([]int32, n+1), make([]graph.NodeID, e)
	decodeLists(b, n, e, directed, off, adj)
	return graph.FromLists(directed, off, adj), nil
}

// decodeLists checks the stored neighbour lists b of a graph section of n
// nodes and edges edges and, when off is not nil, fills off and adj
// with them (as graph.FromLists takes them).
func decodeLists(b []byte, n, edges int, directed bool, off []int32, adj []graph.NodeID) error {
	i, e := 0, 0
	for u := range n {
		var c int
		var err error
		if i < len(b) && b[i] < 0x80 { // uvCount's common case, inline
			c, i = int(b[i]), i+1
		} else if c, i, err = uvCount(b, i); err != nil {
			return fmt.Errorf("segment: graph: %w", err)
		}
		if c > len(b)-i || c > edges-e {
			return inconsistent("graph node %d declares %d neighbours with %d bytes and %d edges left", u, c, len(b)-i, edges-e)
		}
		last := -1
		if !directed {
			last = u
		}
		for range c {
			gap := 0
			if i < len(b) && b[i] < 0x80 { // uvCount's common case, inline
				gap, i = int(b[i]), i+1
			} else if gap, i, err = uvCount(b, i); err != nil {
				return fmt.Errorf("segment: graph: %w", err)
			}
			switch v := last + gap; {
			case gap == 0:
				return inconsistent("graph node %d lists neighbour %d twice", u, last)
			case v >= n:
				return inconsistent("graph node %d lists neighbour %d, past its %d nodes", u, v, n)
			case v == u:
				return inconsistent("graph node %d lists itself", u)
			case off != nil:
				adj[e] = graph.NodeID(v)
			}
			e, last = e+1, last+gap
		}
		if off != nil {
			off[u+1] = int32(e)
		}
	}
	if e != edges {
		return inconsistent("graph lists %d edges, declares %d", e, edges)
	}
	if i != len(b) {
		return fmt.Errorf("segment: %d trailing bytes in graph section", len(b)-i)
	}
	return nil
}

// decodeDict decodes, checks and expands a dict section's payload of n
// shapes: shape id's sorted child labels are kids[off[id]:off[id+1]],
// for the load's checks of the item tables, and its coded key — the
// bytes the dictionary holds (tree.NewInternerFromCoded) — is
// keys[keyOff[id]:keyOff[id+1]]. A first pass checks every count and
// uvarint and sizes the four, allocating nothing the payload's bytes
// do not hold; a second fills them, each key its label count, the
// previous key's shared deltas and its own tail. Every inconsistency
// fails with ErrInconsistent, reading nothing past p.
func decodeDict(p []byte, n int) (off, kids []int32, keys []byte, keyOff []uint32, err error) {
	fail := func(err error) ([]int32, []int32, []byte, []uint32, error) {
		return nil, nil, nil, nil, fmt.Errorf("segment: dict: %w", err)
	}
	got, i, err := uvCount(p, 0)
	if err != nil {
		return fail(err)
	}
	if got != n {
		return nil, nil, nil, nil, fmt.Errorf("segment: dict section has %d shapes, meta declares %d", got, n)
	}
	// Each shape takes two bytes at least.
	if n > (len(p)-i)/2 {
		return fail(inconsistent("%d shapes in %d bytes", n, len(p)-i))
	}
	start := i
	// ends[j] is the byte length of the current shape's first j deltas.
	ends := []int32{0}
	labels, size, deg := 0, 0, 0 // deg: the previous shape's label count
	for id := range n {
		// The counts' common case, one byte each, inline.
		var shared, rest int
		if i+1 < len(p) && p[i]|p[i+1] < 0x80 {
			shared, rest, i = int(p[i]), int(p[i+1]), i+2
		} else if shared, i, err = uvCount(p, i); err != nil {
			return fail(err)
		} else if rest, i, err = uvCount(p, i); err != nil {
			return fail(err)
		}
		if shared > deg {
			return fail(inconsistent("shape %d shares %d child labels with a shape of %d", id, shared, deg))
		}
		if rest > len(p)-i {
			return fail(inconsistent("shape %d declares %d more child labels with %d bytes left", id, rest, len(p)-i))
		}
		ends = slices.Grow(ends[:shared+1], rest)
		for range rest {
			// uvarint's common cases, inline: one byte, and two whose
			// second is 1…0x7f (minimal).
			j := i
			if i < len(p) && p[i] < 0x80 {
				i++
			} else if i+1 < len(p) && p[i+1]-1 < 0x7f {
				i += 2
			} else if _, i, err = uvarintLong(p, i); err != nil {
				return fail(err)
			}
			ends = append(ends, ends[len(ends)-1]+int32(i-j))
		}
		deg = shared + rest
		labels += deg
		if size += tree.UvarintLen(uint32(deg)) + int(ends[deg]); size > maxExpansion*i {
			return fail(inconsistent("shapes through %d expand to %d bytes, past %d times the %d they take", id, size, maxExpansion, i))
		}
		if labels > math.MaxInt32 || size > math.MaxUint32 {
			return fail(inconsistent("shapes through %d expand past 2³¹ labels or 2³² bytes", id))
		}
	}
	if i != len(p) {
		return fail(fmt.Errorf("%d trailing bytes", len(p)-i))
	}

	off, keyOff = make([]int32, n+1), make([]uint32, n+1)
	kids, keys = make([]int32, labels), make([]byte, size)
	i, ends = start, ends[:1]
	at, k := int32(0), 0
	var prev []byte // the previous key's deltas
	for id := range n {
		shared, j := uvarintAt(p, i)
		rest, j := uvarintAt(p, j)
		kid := int64(0)
		if shared > 0 {
			copy(kids[at:], kids[off[id-1]:off[id-1]+int32(shared)])
			kid = int64(kids[at+int32(shared)-1])
		}
		k += binary.PutUvarint(keys[k:], uint64(shared+rest))
		from := k
		ends = ends[:shared+1]
		k += copy(keys[k:], prev[:ends[shared]])
		tail := j
		for r := at + int32(shared); r < at+int32(shared+rest); r++ {
			// uvarint's common cases, one byte and two, inline.
			b, d := j, uint32(0)
			if c := p[j]; c < 0x80 {
				d, j = uint32(c), j+1
			} else if c2 := p[j+1]; c2 < 0x80 {
				d, j = uint32(c&0x7f)|uint32(c2)<<7, j+2
			} else {
				d, j = uvarintAt(p, j)
			}
			kid += int64(d)
			kids[r] = int32(kid)
			ends = append(ends, ends[len(ends)-1]+int32(j-b))
		}
		k += copy(keys[k:], p[tail:j])
		if shared+rest > 0 && kid >= int64(id) {
			return fail(inconsistent("shape %d has child label %d (want [0, %d))", id, kid, id))
		}
		at += int32(shared + rest)
		off[id+1], keyOff[id+1] = at, uint32(k)
		prev, i = keys[from:k], j
	}
	return off, kids, keys, keyOff, nil
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

// spareSection holds the buffer a segment write frames its dict and
// graph sections in between writes, as spareChunk holds a chunk.
var spareSection = make(chan []byte, 1)

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

// uv appends x as a uvarint.
func (s *sectionWriter) uv(x uint32) {
	s.room()
	s.buf = binary.AppendUvarint(s.buf, uint64(x))
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

// maxTables caps the item tables WriteRows splits a corpus into: past a
// core per table, more tables only add framing.
const maxTables = 16

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
// Write streams: the item tables go out through one shared 64 KiB
// buffer and a running checksum, behind headers carrying lengths
// computed up front, so writing a segment never holds a copy of the
// corpus. Meta, the index dumps and the dict and graph sections —
// front-coded straight from dict.Coded and gap-coded from g, a few
// bytes a node — are framed in memory, the last two in a buffer kept
// between writes.
func Write(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, shardItems [][]ned.Item, indexes []VPIndex) error {
	tables := make([]iter.Seq[ned.Row], len(shardItems))
	for si, items := range shardItems {
		rows := make([]ned.Row, len(items))
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
			rows[i] = r
		}
		tables[si] = slices.Values(rows)
	}
	return write(w, meta, dict, g, tables, indexes)
}

// WriteRows is Write for rows as a scan stores them (ned.Row), which
// carry their trees' stored form already, with no index dumps. rows
// must be node-ascending, and the same rows each walk; table i holds, still node-ascending, the rows
// ned.ShardOf files under i of min(GOMAXPROCS, 16) tables, so Read
// decodes them in parallel on the same cores. The count is layout, not
// content: Read returns the same items whatever it was. WriteRows holds
// no row: it walks rows once to file them and twice per table, to size
// and to write it.
func WriteRows(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, rows iter.Seq[ned.Row]) error {
	n := min(runtime.GOMAXPROCS(0), maxTables)
	var of []uint8 // each row's table, in the order rows yields them
	for r := range rows {
		of = append(of, uint8(ned.ShardOf(r.Node, n)))
	}
	tables := make([]iter.Seq[ned.Row], n)
	for ti := range tables {
		tables[ti] = func(yield func(ned.Row) bool) {
			i := 0
			for r := range rows {
				if i < len(of) && of[i] == uint8(ti) && !yield(r) {
					return
				}
				i++
			}
		}
	}
	return write(w, meta, dict, g, tables, nil)
}

// write is Write over item tables of rows, each walked twice: to size
// it, then to write it.
func write(w io.Writer, meta Meta, dict *tree.Interner, g *graph.Graph, tables []iter.Seq[ned.Row], indexes []VPIndex) error {
	meta.Shards = len(tables)
	meta.Items = 0
	if indexes != nil && len(indexes) != len(tables) {
		return fmt.Errorf("segment: %d index dumps for %d shards", len(indexes), len(tables))
	}
	shardLens, counts := make([]uint64, len(tables)), make([]int, len(tables))
	for si, rows := range tables {
		last := graph.NodeID(-1)
		for r := range rows {
			if r.Node < 0 {
				return fmt.Errorf("segment: shard %d: negative node id %d", si, r.Node)
			}
			if meta.Directed && r.In == nil {
				return fmt.Errorf("segment: node %d has no incoming tree on a directed corpus", r.Node)
			}
			shardLens[si] += uint64(tree.UvarintLen(uint32(r.Node-last)) + len(r.Out))
			if meta.Directed {
				shardLens[si] += uint64(len(r.In))
			}
			counts[si], last = counts[si]+1, r.Node
		}
		shardLens[si] += uint64(tree.UvarintLen(uint32(counts[si])))
		meta.Items += counts[si]
		if indexes != nil {
			if ix := &indexes[si]; !ix.empty() && len(ix.Nodes)+len(ix.Tail) != counts[si] {
				return fmt.Errorf("segment: shard %d index references %d items, shard has %d",
					si, len(ix.Nodes)+len(ix.Tail), counts[si])
			}
		}
	}

	// The dict and graph sections, a few bytes a node, are framed whole
	// in a buffer kept between writes; the dictionary's count is the one
	// its section holds, however many shapes are interned meanwhile.
	var buf []byte
	select {
	case buf = <-spareSection:
	default:
	}
	defer func() {
		select {
		case spareSection <- buf[:0]:
		default:
		}
	}()
	keys, off := dict.Coded()
	buf = appendDict(buf[:0], keys, off)
	h := Header{Meta: meta, Shapes: len(off) - 1, HasGraph: g != nil, HasIndex: indexes != nil, TableLens: shardLens}
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

	if err := sw.writeSection(SecDict, buf); err != nil {
		return err
	}
	if g != nil {
		buf = AppendGraph(buf[:0], g)
		if err := sw.writeSection(SecGraph, buf); err != nil {
			return err
		}
	}

	// Shard item tables: each row's bytes as the arena holds them.
	for si, rows := range tables {
		sw.begin(SecShard, int(shardLens[si]))
		sw.uv(uint32(counts[si]))
		last := graph.NodeID(-1)
		for r := range rows {
			sw.uv(uint32(r.Node - last))
			raw(sw, r.Out)
			if meta.Directed {
				raw(sw, r.In)
			}
			last = r.Node
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

// ErrInconsistent reports an item table or dictionary whose checksum
// holds but whose bytes could not have been written: a malformed
// uvarint, or stored labels (or a parent vector) that disagree with the
// segment's own shape dictionary — faithfully persisted bytes of a
// corpus that cannot have been written.
var ErrInconsistent = errors.New("segment: item table disagrees with its dictionary")

func inconsistent(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInconsistent, fmt.Sprintf(format, args...))
}

// uvarint decodes the uvarint at b[i:] and returns the index past it.
// It fails with ErrInconsistent, reading nothing past b, on one that
// runs past b, is longer than 5 bytes, is not minimal or exceeds 32
// bits: a writer emits none of these (tree.AppendWords), so a stored
// row's bytes are the form an arena holds.
func uvarint(b []byte, i int) (uint32, int, error) {
	if i < len(b) && b[i] < 0x80 {
		return uint32(b[i]), i + 1, nil
	}
	return uvarintLong(b, i)
}

func uvarintLong(b []byte, i int) (uint32, int, error) {
	x := uint64(0)
	for j := i; j < len(b); j++ {
		if j-i == 5 {
			return 0, i, inconsistent("uvarint at byte %d is longer than 5 bytes", i)
		}
		c := b[j]
		x |= uint64(c&0x7f) << (7 * (j - i))
		if c >= 0x80 {
			continue
		}
		switch {
		case c == 0 && j > i:
			return 0, i, inconsistent("uvarint at byte %d is not minimal", i)
		case x > math.MaxUint32:
			return 0, i, inconsistent("uvarint at byte %d exceeds 32 bits", i)
		}
		return uint32(x), j + 1, nil
	}
	return 0, i, inconsistent("uvarint at byte %d runs past the end of its section", i)
}

// uvCount is uvarint for a count, a node id or a delta, which must fit
// an int32.
func uvCount(b []byte, i int) (int, int, error) {
	x, j, err := uvarint(b, i)
	if err == nil && x > math.MaxInt32 {
		return 0, i, inconsistent("uvarint at byte %d is %d, past int32", i, x)
	}
	return int(x), j, err
}

// leafShape is the label of the childless shape in every dictionary a
// segment holds: decodeDict requires each child label to be smaller
// than its shape's own, so shape 0 can have no children, and the
// dictionary holds no shape twice, so one childless shape at most.
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
// words holds a row's words, decoded, count one zero per shape between
// trees (fillRow sizes it), degCount one zero per child count between
// levels, degs a tree's degree runs before they are narrowed into its
// row.
type treeScratch struct {
	words    []int32
	count    []int32
	degCount []int32
	kids     []int32
	degs     []int32
}

// scanTree reads the stored row at b[pos:] as the first pass of a load
// does: its header, its stored labels, which must be in the dictionary,
// and the level widths they derive — the root alone, then each stored
// level's child count, which must end exactly where the stored labels
// do — and, flagged, its parent vector's words. It returns the tree's
// node count, height and stored label count, its largest child count
// but the root's (the widest entry of its degree runs) and the byte
// past it.
func scanTree(b []byte, pos int, sh *shapeTable) (n, h, m int, top int32, end int, err error) {
	hdr, pos, err := uvarint(b, pos)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	m = int(hdr &^ parentsFlag)
	if m > len(b)-pos {
		return 0, 0, 0, 0, 0, fmt.Errorf("segment: tree declares %d stored labels with %d bytes left", m, len(b)-pos)
	}
	shapes := uint32(len(sh.off) - 1)
	if shapes == 0 {
		return 0, 0, 0, 0, 0, inconsistent("the dictionary has no leaf shape")
	}
	// w is the width of level h, left its labels not read yet, c the
	// children of those read.
	n, w, left, c := 1, 1, 1, 0
	for v := range m {
		var l uint32
		if pos < len(b) && b[pos] < 0x80 { // uvarint's common case, inline
			l, pos = uint32(b[pos]), pos+1
		} else if l, pos, err = uvarintLong(b, pos); err != nil {
			return 0, 0, 0, 0, 0, err
		}
		if l >= shapes {
			return 0, 0, 0, 0, 0, inconsistent("label %d of node %d outside the dictionary [0, %d)", l, v, shapes)
		}
		d := sh.deg(int32(l))
		if c += int(d); v > 0 {
			top = max(top, d)
		}
		if left--; left > 0 {
			continue
		}
		if c == 0 {
			return 0, 0, 0, 0, 0, inconsistent("stored level %d has no children", h)
		}
		if n += c; n > maxTreeNodes {
			return 0, 0, 0, 0, 0, inconsistent("tree derives more than %d nodes", maxTreeNodes)
		}
		h, w, left, c = h+1, c, c, 0
	}
	if left != w {
		return 0, 0, 0, 0, 0, inconsistent("child counts of level %d overrun the %d stored labels", h, m)
	}
	if hdr&parentsFlag != 0 {
		if n > len(b)-pos {
			return 0, 0, 0, 0, 0, fmt.Errorf("segment: tree's %d-node parent vector overruns the %d bytes left", n, len(b)-pos)
		}
		for range n {
			if _, pos, err = uvarint(b, pos); err != nil {
				return 0, 0, 0, 0, 0, err
			}
		}
	}
	return n, h, m, top, pos, nil
}

// fillRow writes the stored row b, which scanTree has read, into row
// slot of a, whose offsets give the row its room: its bytes as they are,
// and its level widths and degree runs (each level's child counts,
// sorted, at the arena's width), a node's child count being its label's
// shape's. It checks what scanTree did not — leaf kids only on level
// h−1, a parent vector that agrees with the child counts, children that
// carry their parent's shape's kids — failing with ErrInconsistent. a
// copies what it keeps; the payload is not retained.
func fillRow(b []byte, sh *shapeTable, sc *treeScratch, a *tree.ProfileArena, slot int) error {
	words := tree.DecodeWords(sc.words[:0], b)
	sc.words = words
	hdr := uint32(words[0])
	m := int(hdr &^ parentsFlag)
	stored := words[1 : 1+m]
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
		if t, err = tree.New(words[1+m : 1+m+n]); err != nil {
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
	copy(a.Words[a.WordOff[slot]:a.WordOff[slot+1]], b)
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
// payload, and per item its node, its size key (the out-tree's node
// count, plus the in-tree's when directed) and where its rows lie; per
// tree side (out, in), the tallest tree, the largest inner child count
// and the degree-run entries and stored bytes its rows hold.
type table struct {
	payload      []byte
	nodes        []graph.NodeID
	keys         []int32
	heads        []rowHead
	height       [2]int
	top          [2]int32
	degs, stored [2]int
}

// rowHead locates one item of a table: the byte its out-row starts at
// — its in-row follows — and each row's stored bytes and degree-run
// entries (its stored labels but the root's).
type rowHead struct {
	pos         int32
	bytes, degs [2]int32
}

// scanTable is the first pass over one item table's payload: it checks
// every item's node and reads its trees (scanTree).
func scanTable(payload []byte, si int, meta Meta, sh *shapeTable) (*table, error) {
	count, pos, err := uvCount(payload, 0)
	if err != nil {
		return nil, fmt.Errorf("segment: shard %d: %w", si, err)
	}
	sides := 1
	if meta.Directed {
		sides = 2
	}
	// Minimum item: a node delta and a one-node tree's header per side.
	if count > (len(payload)-pos)/(1+sides) {
		return nil, fmt.Errorf("segment: shard %d declares %d items with %d bytes left", si, count, len(payload)-pos)
	}
	t := &table{payload: payload}
	last := -1
	for i := 0; i < count; i++ {
		delta, next, err := uvarint(payload, pos)
		if err != nil {
			return nil, fmt.Errorf("segment: shard %d item %d: %w", si, i, err)
		}
		// Writers emit items strictly node-ascending per shard; since the
		// layout maps a node to exactly one shard, this single ordered
		// pass doubles as the whole-segment duplicate check.
		if delta == 0 {
			return nil, fmt.Errorf("segment: shard %d items not node-ascending (%d twice)", si, last)
		}
		node := last + int(delta)
		if node > math.MaxInt32 {
			return nil, inconsistent("shard %d item %d has node id %d, past int32", si, i, node)
		}
		last, pos = node, next
		if want := ned.ShardOf(graph.NodeID(node), meta.Shards); want != si {
			return nil, fmt.Errorf("segment: node %d filed under shard %d, its hash routes it to %d", node, si, want)
		}
		key, which := 0, ""
		head := rowHead{pos: int32(pos)}
		for side := range sides {
			n, h, m, top, end, err := scanTree(payload, pos, sh)
			if err != nil {
				return nil, fmt.Errorf("node %d%s: %w", node, which, err)
			}
			head.bytes[side], head.degs[side] = int32(end-pos), int32(max(m-1, 0))
			key, t.height[side], t.top[side] = key+n, max(t.height[side], h), max(t.top[side], top)
			t.degs[side] += int(head.degs[side])
			t.stored[side] += end - pos
			pos, which = end, " incoming"
		}
		t.heads = append(t.heads, head)
		t.nodes = append(t.nodes, graph.NodeID(node))
		t.keys = append(t.keys, int32(key))
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("segment: shard %d: %d trailing bytes in section payload", si, len(payload)-pos)
	}
	return t, nil
}

// rows returns the stored rows of item i of t: its out-row and, when
// directed, its in-row.
func (t *table) rows(i int) (out, in []byte) {
	h := &t.heads[i]
	at, mid := int(h.pos), int(h.pos+h.bytes[0])
	return t.payload[at:mid], t.payload[mid : mid+int(h.bytes[1])]
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
// and each item's row, in table order. Rows are copied once, straight
// into their rank slots (ned.RankOrder) of arenas sized by the first
// pass (scanTable) with a relocation's room to spare (ned.RowRoom), so
// the scan adopts them as they are and a replayed log or the first
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
		for _, head := range t.heads {
			r := rank[g] + 1
			rows.Out.DegOff[r], rows.Out.WordOff[r] = head.degs[0], head.bytes[0]
			if meta.Directed {
				rows.In.DegOff[r], rows.In.WordOff[r] = head.degs[1], head.bytes[1]
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
			out, inRow := t.rows(i)
			if err := fillRow(out, sh, sc, rows.Out, slot); err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
			if meta.Directed {
				if err := fillRow(inRow, sh, sc, rows.In, slot); err != nil {
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

	payload, err = expectSection(r, SecDict)
	if err != nil {
		return fail(err)
	}
	kidOff, kids, keys, keyOff, err := decodeDict(payload, h.Shapes)
	if err != nil {
		return fail(err)
	}
	in, err := tree.NewInternerFromCoded(keys, keyOff)
	if err != nil {
		return fail(inconsistent("dict: %v", err))
	}
	sh := newShapeTable(kidOff, kids)

	var g *graph.Graph
	if h.HasGraph {
		if payload, err = expectSection(r, SecGraph); err != nil {
			return fail(err)
		}
		if g, err = decodeGraph(payload); err != nil {
			return fail(err)
		}
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
