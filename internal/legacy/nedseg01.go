package legacy

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"ned/internal/graph"
	"ned/internal/ned"
	"ned/internal/segment"
	"ned/internal/tree"
)

// NEDSEG01 segments. The first binary layout frames the same sections as
// NEDSEG02 (nedseg02.go), but its item tables store every tree whole: n,
// parents n×u32, then the compiled profile columns labels n×u32 (sorted
// within each level), perm n×u32 (each sorted label's level-local node)
// and kids (n-1)×u32 (every node's sorted child labels, in node order).
// A segment of a build that could move nodes off their hash shard also
// carries a placement directory between the graph and the first item
// table:
//
//	place: base u32, shards u32 (must equal meta's), redirect base×u32
//	       (each < shards), moves u64, then (node u32, shard u32) pairs
//	       node-ascending.

const (
	magicV1   = "NEDSEG01" // the magic of a NEDSEG01 segment
	secPlace  = 7          // the section type of a placement directory
	leafShape = 0          // the childless shape, shape 0 of every dictionary
)

// item is one translated item: its node and its NEDSEG02 words.
type item struct {
	node  int32
	words []byte
}

// shapes is a dictionary section as decodeShapes decodes it.
type shapes struct{ off, kids []int32 }

func (sh shapes) run(l int32) []int32 { return sh.kids[sh.off[l]:sh.off[l+1]] }

// transcodeV1 rewrites a NEDSEG01 segment as the NEDSEG02 segment of the
// same corpus, for transcodeV2 to carry on to NEDSEG03: each item table
// translated (translateV1), the items re-filed by hash, the placement
// directory checked and dropped, every other section passed on as it is.
func transcodeV1(b []byte) ([]byte, error) {
	r := bytes.NewReader(b[len(magicV1):])
	expect := func(want byte) ([]byte, error) { return expectSection(r, want) }
	meta, err := expect(segment.SecMeta)
	if err != nil {
		return nil, err
	}
	h, err := segment.DecodeHeader(meta)
	if err != nil {
		return nil, err
	}
	dictAt := len(b) - r.Len()
	dict, err := expect(segment.SecDict)
	if err != nil {
		return nil, err
	}
	sh, err := decodeShapes(dict, h.Shapes)
	if err != nil {
		return nil, err
	}
	if h.HasGraph {
		if _, err = expect(segment.SecGraph); err != nil {
			return nil, err
		}
	}
	dictAndGraph := b[dictAt : len(b)-r.Len()]
	// A placement directory may precede the first item table.
	var place *placement
	var items []item
	for si := 0; si < h.Shards; {
		typ, payload, err := segment.ReadSection(r)
		switch {
		case err != nil:
		case typ == secPlace && si == 0 && place == nil:
			place, err = decodePlacement(payload, h.Shards)
		case typ != segment.SecShard:
			err = fmt.Errorf("segment: section type %d where %d expected", typ, segment.SecShard)
		case uint64(len(payload)) != h.TableLens[si]:
			err = fmt.Errorf("segment: shard %d payload is %d bytes, meta declares %d", si, len(payload), h.TableLens[si])
		default:
			items, err = translateV1(items, payload, si, h.Shards, sh, place)
			si++
		}
		if err != nil {
			return nil, err
		}
	}

	// File the items by hash, node-ascending in each table.
	slices.SortStableFunc(items, func(a, b item) int { return cmp.Compare(a.node, b.node) })
	tables := make([][]byte, h.Shards)
	for si := range tables {
		tables[si] = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(si)), 0)
	}
	for _, it := range items {
		t := &tables[ned.ShardOf(graph.NodeID(it.node), h.Shards)]
		*t = append(*t, it.words...)
		binary.LittleEndian.PutUint32((*t)[4:], binary.LittleEndian.Uint32((*t)[4:])+1)
	}
	for si, t := range tables {
		h.TableLens[si] = uint64(len(t))
	}
	mb, _ := h.Append(nil) // the backend name came from a u16-framed field
	out := append(segment.AppendSection([]byte(magicV2), segment.SecMeta, mb), dictAndGraph...)
	for _, t := range tables {
		out = segment.AppendSection(out, segment.SecShard, t)
	}
	// The index dumps and the end marker read the same in both layouts.
	return append(out, b[len(b)-r.Len():]...), nil
}

// translateV1 appends to items the items of one NEDSEG01 item table,
// each as the NEDSEG02 words of the same trees: the labels above the
// deepest level, put back in node order, and the parents when they are
// not in BFS order. Each item must be filed under the table the
// placement (the hash, without one) routes it to, and its parents must
// form a tree (tree.New). Columns NEDSEG02 cannot express fail with
// segment.ErrInconsistent: a label outside the dictionary or unsorted
// within its level, a perm that is not a permutation of its level, a
// deepest level that is not leaves in node order, a kid run that is not
// its label's shape.
func translateV1(items []item, payload []byte, si, shards int, sh shapes, place *placement) ([]item, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("segment: shard payload length %d not a multiple of 4", len(payload))
	}
	words := make([]int32, len(payload)/4)
	for i := range words {
		words[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	if len(words) < 2 {
		return nil, fmt.Errorf("segment: shard %d payload truncated", si)
	}
	out := make([]byte, 0, len(payload)) // no NEDSEG02 tree is longer than its NEDSEG01 form
	put := func(ws ...int32) {
		for _, w := range ws {
			out = binary.LittleEndian.AppendUint32(out, uint32(w))
		}
	}
	var label []int32 // the node-order labels of the tree in hand
	translate := func(pos int) (int, error) {
		if pos >= len(words) {
			return 0, fmt.Errorf("segment: truncated payload")
		}
		n := int(uint32(words[pos]))
		pos++
		// Budget parents + labels + perm + kids = 4n-1 words before slicing.
		if n < 1 || n > (len(words)-pos+1)/4 {
			return 0, fmt.Errorf("segment: tree declares %d nodes with %d words left", n, len(words)-pos)
		}
		parents, labels := words[pos:pos+n], words[pos+n:pos+2*n]
		perm, kids := words[pos+2*n:pos+3*n], words[pos+3*n:pos+4*n-1]
		t, err := tree.New(parents)
		if err != nil {
			return 0, fmt.Errorf("segment: %w", err)
		}
		m, _ := t.LevelRange(t.Height()) // the deepest level's first node
		label = slices.Grow(label[:0], int(m))[:m]
		for v := range label {
			label[v] = -1
		}
		for d := range t.Height() {
			lo, hi := t.LevelRange(d)
			if run := labels[lo:hi]; run[0] < 0 || run[len(run)-1] >= int32(len(sh.off)-1) {
				return 0, inconsistent("labels of level %d outside the dictionary [0, %d)", d, len(sh.off)-1)
			} else if !slices.IsSorted(run) {
				return 0, inconsistent("labels of level %d not sorted", d)
			}
			for j := lo; j < hi; j++ {
				if p := perm[j]; p < 0 || p >= hi-lo || label[lo+p] >= 0 {
					return 0, inconsistent("perm of level %d is not a permutation of its %d nodes", d, hi-lo)
				}
				label[lo+perm[j]] = labels[j]
			}
		}
		for j := m; j < int32(n); j++ {
			if labels[j] != leafShape || perm[j] != j-m {
				return 0, inconsistent("the deepest level is not %d leaves in node order", int32(n)-m)
			}
		}
		// The deepest level's nodes have no children, so no kid runs.
		for v, l := range label {
			run := sh.run(l)
			if t.NumChildren(int32(v)) != len(run) || !slices.Equal(kids[:len(run)], run) {
				return 0, inconsistent("kid run of node %d is not its label's shape's", v)
			}
			kids = kids[len(run):]
		}
		if t.BFSOrder() {
			put(m)
			put(label...)
		} else {
			put(int32(uint32(m) | tree.ParentsFlag))
			put(label...)
			put(parents...)
		}
		return pos + 4*n - 1, nil
	}
	pos := 2
	for i := range int(uint32(words[1])) {
		if len(words)-pos < 3 {
			return nil, fmt.Errorf("segment: shard %d truncated at item %d", si, i)
		}
		node, sides, which := words[pos], 1+int(words[pos+2]&1), ""
		if want := place.shardOf(graph.NodeID(node), shards); want != si {
			return nil, fmt.Errorf("segment: node %d filed under shard %d, placement routes it to %d", node, si, want)
		}
		start := len(out)
		put(words[pos : pos+3]...)
		var err error
		for pos += 3; sides > 0; sides, which = sides-1, " incoming" {
			if pos, err = translate(pos); err != nil {
				return nil, fmt.Errorf("node %d%s: %w", node, which, err)
			}
		}
		items = append(items, item{node: node, words: out[start:len(out):len(out)]})
	}
	if pos != len(words) {
		return nil, fmt.Errorf("segment: shard %d: %d trailing words in section payload", si, len(words)-pos)
	}
	return items, nil
}

func inconsistent(format string, args ...any) error {
	return fmt.Errorf("%w: %s", segment.ErrInconsistent, fmt.Sprintf(format, args...))
}

// placement is a NEDSEG01 placement directory: base redirect buckets
// (bucket b of the hash routes to shard redirect[b]) plus node-level
// overrides.
type placement struct {
	redirect []int32
	moves    map[graph.NodeID]int32
}

// shardOf is the table a segment's layout files node v under: through
// the directory when the segment carries one (p non-nil), the hash over
// its table count otherwise.
func (p *placement) shardOf(v graph.NodeID, shards int) int {
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
func decodePlacement(p []byte, shards int) (*placement, error) {
	u32 := func(at int) int32 { return int32(binary.LittleEndian.Uint32(p[at:])) }
	if len(p) < 8 {
		return nil, fmt.Errorf("segment: truncated payload")
	}
	base, ps := int(uint32(u32(0))), int(uint32(u32(4)))
	if ps != shards {
		return nil, fmt.Errorf("segment: placement routes into %d shards, meta declares %d", ps, shards)
	}
	if base < 1 || base > 1<<20 {
		return nil, fmt.Errorf("segment: implausible placement base %d", base)
	}
	at := 8 + 4*base
	if len(p) < at+8 {
		return nil, fmt.Errorf("segment: truncated payload")
	}
	if n, rest := binary.LittleEndian.Uint64(p[at:]), len(p)-at-8; rest%8 != 0 || n != uint64(rest/8) {
		return nil, fmt.Errorf("segment: placement declares %d moves with %d bytes left", n, rest)
	}
	place := &placement{redirect: make([]int32, base), moves: map[graph.NodeID]int32{}}
	for b := range place.redirect {
		s := u32(8 + 4*b)
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("segment: placement bucket %d routes to shard %d of %d", b, s, shards)
		}
		place.redirect[b] = s
	}
	last := int32(-1)
	for at += 8; at < len(p); at += 8 {
		node, s := u32(at), u32(at+4)
		if node <= last {
			return nil, fmt.Errorf("segment: placement moves not node-ascending (%d after %d)", node, last)
		}
		last = node
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("segment: placement moves node %d to shard %d of %d", node, s, shards)
		}
		place.moves[graph.NodeID(node)] = s
	}
	return place, nil
}
