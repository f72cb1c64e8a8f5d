package legacy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ned/internal/graph"
	"ned/internal/segment"
	"ned/internal/tree"
)

// NEDSEG03 segments. The third binary layout frames the same sections as
// NEDSEG04 (internal/segment), its meta, item tables, index dumps and
// end byte for byte, but stores its dictionary and graph uncompressed:
//
//	dict:  nShapes uv, then per shape id its run length uv and its
//	       sorted child labels as uv deltas, the first from 0 — the
//	       resident dictionary's coded keys, back to back.
//	graph: nodes u32, directed u8, edges u64, then (u, v) u32 pairs in
//	       canonical edge order.
//
// Converting re-codes those two sections and keeps the shape IDs, so the
// item tables, whose rows reference them, pass on as they are.

const magicV3 = "NEDSEG03" // the magic of a NEDSEG03 segment

// transcodeV3 rewrites a NEDSEG03 segment as the NEDSEG04 segment of the
// same corpus, for segment.Read to decode and check: the dictionary
// (decodeDictV3) and the graph (decodeGraphV3) re-coded, every other
// section passed on as it is.
func transcodeV3(b []byte) ([]byte, error) {
	r := bytes.NewReader(b[len(magicV3):])
	meta, err := expectSection(r, segment.SecMeta)
	if err != nil {
		return nil, err
	}
	h, err := segment.DecodeHeader(meta)
	if err != nil {
		return nil, err
	}
	payload, err := expectSection(r, segment.SecDict)
	if err != nil {
		return nil, err
	}
	dict, err := decodeDictV3(payload, h.Shapes)
	if err != nil {
		return nil, err
	}
	out := segment.AppendSection([]byte(segment.Magic), segment.SecMeta, meta)
	out = segment.AppendSection(out, segment.SecDict, segment.AppendDict(nil, dict))
	if h.HasGraph {
		if payload, err = expectSection(r, segment.SecGraph); err != nil {
			return nil, err
		}
		g, err := decodeGraphV3(payload)
		if err != nil {
			return nil, err
		}
		out = segment.AppendSection(out, segment.SecGraph, segment.AppendGraph(nil, g))
	}
	// The item tables, index dumps and end marker read the same in both
	// layouts.
	return append(out, b[len(b)-r.Len():]...), nil
}

// decodeDictV3 decodes and checks a NEDSEG03 dict section's payload of n
// shapes into the dictionary it holds, under the same IDs: every uvarint
// as segment.Read reads one, each shape's labels below its ID, no shape
// twice.
func decodeDictV3(p []byte, n int) (*tree.Interner, error) {
	got, i, err := uvarintV3(p, 0)
	if err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("segment: dict section has %d shapes, meta declares %d", got, n)
	}
	// Each shape takes a byte at least, each label too.
	if n > len(p)-i {
		return nil, inconsistent("dict declares %d shapes with %d bytes", n, len(p)-i)
	}
	off := make([]int32, 1, n+1)
	kids := make([]int32, 0, len(p)-i-n)
	for id := range n {
		var r, d int
		if r, i, err = uvarintV3(p, i); err != nil {
			return nil, err
		}
		if r > len(p)-i {
			return nil, inconsistent("dict shape %d declares %d child labels with %d bytes left", id, r, len(p)-i)
		}
		kid := 0
		for range r {
			if d, i, err = uvarintV3(p, i); err != nil {
				return nil, err
			}
			if kid += d; kid >= id {
				return nil, inconsistent("dict shape %d has child label %d (want [0, %d))", id, kid, id)
			}
			kids = append(kids, int32(kid))
		}
		off = append(off, int32(len(kids)))
	}
	if i != len(p) {
		return nil, fmt.Errorf("segment: %d trailing bytes in dict section", len(p)-i)
	}
	dict, err := tree.NewInternerFromKids(off, kids)
	if err != nil {
		return nil, inconsistent("dict: %v", err)
	}
	return dict, nil
}

// uvarintV3 decodes the uvarint at p[i:] as NEDSEG03's reader did — at
// most 5 bytes, minimal, at most 2³¹−1 — and returns the index past it.
func uvarintV3(p []byte, i int) (int, int, error) {
	x, n := binary.Uvarint(p[i:])
	switch {
	case n == 0:
		return 0, i, inconsistent("uvarint at byte %d runs past the end of its section", i)
	case n < 0 || n > 5:
		return 0, i, inconsistent("uvarint at byte %d is longer than 5 bytes", i)
	case n > 1 && p[i+n-1] == 0:
		return 0, i, inconsistent("uvarint at byte %d is not minimal", i)
	case x > math.MaxInt32:
		return 0, i, inconsistent("uvarint at byte %d is %d, past int32", i, x)
	}
	return int(x), i + n, nil
}

// decodeGraphV3 decodes a NEDSEG03 graph section's payload.
func decodeGraphV3(p []byte) (*graph.Graph, error) {
	if len(p) < 13 {
		return nil, fmt.Errorf("segment: truncated graph section")
	}
	nodes, dir, edges := binary.LittleEndian.Uint32(p), p[4], binary.LittleEndian.Uint64(p[5:])
	p = p[13:]
	if dir > 1 || edges > uint64(len(p)/8) || uint64(len(p)) != 8*edges || nodes > math.MaxInt32 {
		return nil, fmt.Errorf("segment: graph section declares %d edges with %d bytes", edges, len(p))
	}
	b := graph.NewBuilder(int(nodes), dir == 1)
	for ; len(p) > 0; p = p[8:] {
		u, v := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:])
		if u >= nodes || v >= nodes {
			return nil, fmt.Errorf("segment: graph edge (%d,%d) outside [0,%d)", int32(u), int32(v), nodes)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build(), nil
}
