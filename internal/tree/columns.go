package tree

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// This file holds the two narrow columns of a ProfileArena: degree runs
// at the width the arena's largest child count needs, and stored trees
// as uvarints.

// Degree is a width a degree column holds its child counts at.
type Degree interface{ uint8 | uint16 | int32 }

// Degrees is a column of child counts at one width: Width is 1 (U8
// holds them), 2 (U16) or 4 (I32), and the other two slices are nil.
// An arena's column is as narrow as its largest count allows; a row's
// run is a Slice of it.
type Degrees struct {
	Width int
	U8    []uint8
	U16   []uint16
	I32   []int32
}

// degreeWidth is the bytes a count takes in a column whose largest
// count is top.
func degreeWidth(top int32) int {
	switch {
	case top < 1<<8:
		return 1
	case top < 1<<16:
		return 2
	}
	return 4
}

// makeDegrees is an empty column of the given width with room for n
// counts.
func makeDegrees(width, n int) Degrees {
	switch width {
	case 1:
		return Degrees{Width: 1, U8: make([]uint8, 0, n)}
	case 2:
		return Degrees{Width: 2, U16: make([]uint16, 0, n)}
	}
	return Degrees{Width: 4, I32: make([]int32, 0, n)}
}

// Len is the count of counts.
func (d Degrees) Len() int { return len(d.U8) + len(d.U16) + len(d.I32) }

// Cap is the counts d's backing array holds.
func (d Degrees) Cap() int { return cap(d.U8) + cap(d.U16) + cap(d.I32) }

// Bytes is the size of d's counts.
func (d Degrees) Bytes() int64 { return int64(d.Len() * d.Width) }

// Slice is counts [lo, hi) of d, at d's width.
func (d Degrees) Slice(lo, hi int32) Degrees {
	switch d.Width {
	case 1:
		d.U8 = d.U8[lo:hi]
	case 2:
		d.U16 = d.U16[lo:hi]
	default:
		d.I32 = d.I32[lo:hi]
	}
	return d
}

// Max is d's largest count, 0 for an empty d.
func (d Degrees) Max() int32 {
	switch d.Width {
	case 1:
		return maxOf(d.U8)
	case 2:
		return maxOf(d.U16)
	}
	return maxOf(d.I32)
}

// Append appends src's counts to d, whose width holds them: in bulk at
// the same width, converted at another.
func (d *Degrees) Append(src Degrees) {
	switch {
	case d.Width == 1 && src.Width == 1:
		d.U8 = append(d.U8, src.U8...)
	case d.Width == 2 && src.Width == 2:
		d.U16 = append(d.U16, src.U16...)
	case d.Width == 4 && src.Width == 4:
		d.I32 = append(d.I32, src.I32...)
	case d.Width == 1:
		d.U8 = appendAs(d.U8, src)
	case d.Width == 2:
		d.U16 = appendAs(d.U16, src)
	default:
		d.I32 = appendAs(d.I32, src)
	}
}

// reserve makes room for n more counts in d (see reserve).
func (d *Degrees) reserve(n int) {
	switch d.Width {
	case 1:
		d.U8 = reserve(d.U8, n)
	case 2:
		d.U16 = reserve(d.U16, n)
	default:
		d.I32 = reserve(d.I32, n)
	}
}

// reserve returns s with room for n more elements, at least doubling
// its capacity when it has to grow it: a column appended to row by row
// then allocates about twice its final size, where append's growth of a
// large slice by a quarter would allocate several times that.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// Put writes run, which d's width holds, over d's counts from at on.
func (d Degrees) Put(at int, run []int32) {
	switch d.Width {
	case 1:
		convert(d.U8[at:], run)
	case 2:
		convert(d.U16[at:], run)
	default:
		copy(d.I32[at:], run)
	}
}

// AppendTo appends d's counts to dst as int32s.
func (d Degrees) AppendTo(dst []int32) []int32 { return appendAs(dst, d) }

// appendAs appends src's counts to dst at dst's width, which holds them.
func appendAs[D Degree](dst []D, src Degrees) []D {
	at := len(dst)
	dst = append(dst, make([]D, src.Len())...)
	switch src.Width {
	case 1:
		convert(dst[at:], src.U8)
	case 2:
		convert(dst[at:], src.U16)
	default:
		convert(dst[at:], src.I32)
	}
	return dst
}

// convert writes src's counts over the start of dst, which is at least
// as long.
func convert[D, S Degree](dst []D, src []S) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = D(x)
	}
}

// maxOf is run's largest count, 0 for an empty run.
func maxOf[D Degree](run []D) int32 {
	top := D(0)
	for _, x := range run {
		top = max(top, x)
	}
	return int32(top)
}

// AppendWords appends words to dst as uvarints of their uint32 bits,
// the form a ProfileArena stores trees in.
func AppendWords(dst []byte, words []int32) []byte {
	for _, w := range words {
		dst = appendUvarint(dst, uint32(w))
	}
	return dst
}

// appendUvarint appends x to dst as a uvarint.
func appendUvarint(dst []byte, x uint32) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// DecodeWords appends the words b's uvarints encode (AppendWords) to
// dst.
func DecodeWords(dst []int32, b []byte) []int32 {
	for i := 0; i < len(b); i++ {
		x := uint32(b[i])
		if x >= 0x80 {
			x &= 0x7f
			for s := 7; ; s += 7 {
				i++
				c := b[i]
				if x |= uint32(c&0x7f) << s; c < 0x80 {
					break
				}
			}
		}
		dst = append(dst, int32(x))
	}
	return dst
}

// WordsLen is the bytes AppendWords takes for words.
func WordsLen(words []int32) int {
	n := 0
	for _, w := range words {
		n += UvarintLen(uint32(w))
	}
	return n
}

// CountWords is the count of words b's uvarints encode.
func CountWords(b []byte) int {
	// A uvarint's last byte is the one below 0x80: count them eight at a
	// time.
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(b) & 0x8080808080808080)
	}
	for _, c := range b {
		n += int(^c >> 7)
	}
	return n
}

// UvarintLen is the bytes x takes as a uvarint (AppendWords).
func UvarintLen(x uint32) int { return (bits.Len32(x|1) + 6) / 7 }
