package legacy

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ned/internal/segment"
	"ned/internal/tree"
)

// NEDSEG02 segments. The second binary layout frames the same sections
// as NEDSEG03 (nedseg03.go), its meta, graph, index and end
// sections byte for byte, but stores its dictionary and item tables as
// u32 words:
//
//	dict:  nShapes u32, kidOff (nShapes+1)×u32, kids kidOff[n]×u32 —
//	       shape id's sorted child labels are kids[kidOff[id]:kidOff[id+1]].
//	shard: shardIndex u32, itemCount u32, then per item (node-ascending):
//	       node u32, k u32, flags u32 (bit0 = has incoming tree), and per
//	       tree its stored row as u32 words: header m (bit 31: parent
//	       vector follows), m labels, then, flagged, n parents.
//
// A NEDSEG03 stored row is the same words as uvarints, so converting
// needs no tree semantics: words become uvarints, the dictionary's
// offsets become run lengths and its kids deltas, and each item's k and
// flags, which NEDSEG03 takes from meta, are checked and dropped.

const magicV2 = "NEDSEG02" // the magic of a NEDSEG02 segment

// expectSection reads one section of a legacy segment and requires its
// type.
func expectSection(r *bytes.Reader, want byte) ([]byte, error) {
	typ, payload, err := segment.ReadSection(r)
	if err == nil && typ != want {
		err = fmt.Errorf("segment: section type %d where %d expected", typ, want)
	}
	return payload, err
}

// decodeShapes decodes a NEDSEG01 or NEDSEG02 dict section's payload of
// n shapes, each a run of sorted labels smaller than its own id.
func decodeShapes(p []byte, n int) (shapes, error) {
	u32 := func(i int) int32 { return int32(binary.LittleEndian.Uint32(p[4*i:])) }
	if len(p) < 4 || int(uint32(u32(0))) != n {
		return shapes{}, fmt.Errorf("segment: dict section does not hold the %d shapes meta declares", n)
	}
	if n < 0 || len(p)%4 != 0 || len(p)/4 < n+2 {
		return shapes{}, fmt.Errorf("segment: truncated dict section")
	}
	sh := shapes{off: make([]int32, n+1), kids: make([]int32, len(p)/4-n-2)}
	for id := range sh.off {
		sh.off[id] = u32(1 + id)
	}
	for i := range sh.kids {
		sh.kids[i] = u32(n + 2 + i)
	}
	if sh.off[0] != 0 || int(sh.off[n]) != len(sh.kids) {
		return shapes{}, fmt.Errorf("segment: dict offsets span [%d, %d) of %d child labels", sh.off[0], sh.off[n], len(sh.kids))
	}
	for id := range int32(n) {
		if sh.off[id] > sh.off[id+1] || sh.off[id+1] > sh.off[n] {
			return shapes{}, fmt.Errorf("segment: dict shape %d has a malformed offset", id)
		}
		prev := int32(0)
		for _, kid := range sh.run(id) {
			if kid < prev || kid >= id {
				return shapes{}, fmt.Errorf("segment: dict shape %d has child label %d unsorted or outside [0, %d)", id, kid, id)
			}
			prev = kid
		}
	}
	return sh, nil
}

// transcodeV2 rewrites a NEDSEG02 segment as the NEDSEG03 segment of the
// same corpus, for transcodeV3 to carry on to NEDSEG04: the dictionary and
// each item table translated (translateV2), every other section passed
// on as it is.
func transcodeV2(b []byte) ([]byte, error) {
	r := bytes.NewReader(b[len(magicV2):])
	meta, err := expectSection(r, segment.SecMeta)
	if err != nil {
		return nil, err
	}
	h, err := segment.DecodeHeader(meta)
	if err != nil {
		return nil, err
	}
	dict, err := expectSection(r, segment.SecDict)
	if err != nil {
		return nil, err
	}
	sh, err := decodeShapes(dict, h.Shapes)
	if err != nil {
		return nil, err
	}
	shapesAt := 4 * (h.Shapes + 2) // the first kid's byte
	out := binary.AppendUvarint(nil, uint64(h.Shapes))
	for id := range int32(h.Shapes) {
		out = appendShape(out, dict[shapesAt+4*int(sh.off[id]):shapesAt+4*int(sh.off[id+1])])
	}
	dict = out
	graphAt := len(b) - r.Len()
	if h.HasGraph {
		if _, err = expectSection(r, segment.SecGraph); err != nil {
			return nil, err
		}
	}
	graph := b[graphAt : len(b)-r.Len()]
	tables := make([][]byte, h.Shards)
	for si := range tables {
		payload, err := expectSection(r, segment.SecShard)
		if err != nil {
			return nil, err
		}
		if uint64(len(payload)) != h.TableLens[si] {
			return nil, fmt.Errorf("segment: shard %d payload is %d bytes, meta declares %d", si, len(payload), h.TableLens[si])
		}
		if tables[si], err = translateV2(payload, si, h, sh); err != nil {
			return nil, err
		}
		h.TableLens[si] = uint64(len(tables[si]))
	}
	mb, _ := h.Append(nil) // the backend name came from a u16-framed field
	out = segment.AppendSection([]byte(magicV3), segment.SecMeta, mb)
	out = append(segment.AppendSection(out, segment.SecDict, dict), graph...)
	for _, t := range tables {
		out = segment.AppendSection(out, segment.SecShard, t)
	}
	// The index dumps and the end marker read the same in both layouts.
	return append(out, b[len(b)-r.Len():]...), nil
}

// translateV2 translates one NEDSEG02 item table into NEDSEG03: the
// item count and each stored row's words as uvarints, each node as its
// delta from the one before, each item's k and flags checked against
// meta and dropped. A flagged row's parent vector is as long as the
// tree, which its labels' child counts give.
func translateV2(p []byte, si int, h segment.Header, sh shapes) ([]byte, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("segment: shard payload length %d not a multiple of 4", len(p))
	}
	words := make([]int32, len(p)/4)
	for i := range words {
		words[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	if len(words) < 2 {
		return nil, fmt.Errorf("segment: shard %d payload truncated", si)
	}
	if got := int(uint32(words[0])); got != si {
		return nil, fmt.Errorf("segment: shard section %d out of order (want %d)", got, si)
	}
	count, pos := int(uint32(words[1])), 2
	// Minimum item: 3 header words + a 1-node tree's 1 word.
	if count > (len(words)-pos)/4 {
		return nil, fmt.Errorf("segment: shard %d declares %d items with %d words left", si, count, len(words)-pos)
	}
	out := binary.AppendUvarint(make([]byte, 0, len(p)/2), uint64(count))
	last, sides := int32(-1), 1
	if h.Directed {
		sides = 2
	}
	for i := range count {
		if len(words)-pos < 3 {
			return nil, fmt.Errorf("segment: shard %d truncated at item %d", si, i)
		}
		node, k, flags := words[pos], int(uint32(words[pos+1])), uint32(words[pos+2])
		switch {
		case node < 0:
			return nil, fmt.Errorf("segment: shard %d item %d has negative node id", si, i)
		case node <= last:
			return nil, fmt.Errorf("segment: shard %d items not node-ascending (%d after %d)", si, node, last)
		case k != h.K:
			return nil, fmt.Errorf("segment: node %d has k=%d, segment k=%d", node, k, h.K)
		case (flags&1 != 0) != h.Directed:
			return nil, fmt.Errorf("segment: node %d directedness disagrees with segment meta", node)
		}
		out = binary.AppendUvarint(out, uint64(int64(node)-int64(last)))
		last, pos = node, pos+3
		for range sides {
			if pos >= len(words) {
				return nil, fmt.Errorf("segment: shard %d truncated at item %d", si, i)
			}
			hdr := uint32(words[pos])
			m := int(hdr &^ tree.ParentsFlag)
			if m > len(words)-pos-1 {
				return nil, fmt.Errorf("segment: tree declares %d stored labels with %d words left", m, len(words)-pos-1)
			}
			end := pos + 1 + m
			if hdr&tree.ParentsFlag != 0 {
				n := 1
				for v, l := range words[pos+1 : end] {
					if l < 0 || int(l) >= len(sh.off)-1 {
						return nil, inconsistent("label %d of node %d outside the dictionary [0, %d)", l, v, len(sh.off)-1)
					}
					n += int(sh.off[l+1] - sh.off[l])
				}
				if n > len(words)-end {
					return nil, fmt.Errorf("segment: tree's %d-node parent vector overruns the %d words left", n, len(words)-end)
				}
				end += n
			}
			out = tree.AppendWords(out, words[pos:end])
			pos = end
		}
	}
	if pos != len(words) {
		return nil, fmt.Errorf("segment: shard %d: %d trailing words in section payload", si, len(words)-pos)
	}
	return out, nil
}

// appendShape appends one shape of a NEDSEG03 dict section to b: the
// run length of key, a shape's sorted child labels as the little-endian
// u32s a NEDSEG02 dictionary stores, and the labels as uvarint deltas,
// the first from 0.
func appendShape(b, key []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)/4))
	prev := uint32(0)
	for j := 0; j+4 <= len(key); j += 4 {
		kid := binary.LittleEndian.Uint32(key[j:])
		b = binary.AppendUvarint(b, uint64(kid-prev))
		prev = kid
	}
	return b
}
