package tree

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestWordsRoundTrip pins the stored trees' uvarint form over the
// values a stored tree holds: labels either side of 2⁷, 2¹⁴ and 2¹⁶, a
// header flagged with ParentsFlag, and the root's parent, -1.
func TestWordsRoundTrip(t *testing.T) {
	flagged := uint32(7) | ParentsFlag
	words := []int32{0, 1, 127, 128, 16383, 16384, 65535, 65536, 1 << 21, math.MaxInt32, int32(flagged), -1, 0}
	b := AppendWords(nil, words)
	if len(b) != WordsLen(words) {
		t.Fatalf("%d bytes, WordsLen says %d", len(b), WordsLen(words))
	}
	if got := CountWords(b); got != len(words) {
		t.Fatalf("CountWords %d, want %d", got, len(words))
	}
	if got := DecodeWords(nil, b); !slices.Equal(got, words) {
		t.Fatalf("decoded %v, want %v", got, words)
	}
}

// hubTree is a root over one child over top leaves: the child's count,
// top, is the tree's one inner child count.
func hubTree(top int) *Tree {
	parent := make([]int32, top+2)
	parent[0] = -1
	for v := 2; v < len(parent); v++ {
		parent[v] = 1
	}
	return MustNew(parent)
}

// seededInterner is a dictionary whose first n shapes are a chain —
// shape i's one kid is shape i-1 — so every other shape interned in it
// gets a label of at least n.
func seededInterner(t *testing.T, n int) *Interner {
	t.Helper()
	off := make([]int32, n+1)
	keys := make([]byte, 0, 4*n)
	for id := 1; id < n; id++ {
		off[id+1] = off[id] + 1
		keys = binary.LittleEndian.AppendUint32(keys, uint32(id-1))
	}
	in, err := NewInternerFromShapes(off, keys)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestNarrowColumns covers the arena's narrow columns at each edge of
// the degree widths — a largest inner child count of 255, 256, 65 535
// and 65 536 — each with stored labels all below 2⁷ and with labels
// either side of 2¹⁶: a compiled arena's degree width, rows and Bytes;
// a narrow arena that cannot take a wider row in place (Fits), the
// relocation that widens it (CompileRuns), a wide arena that takes
// narrow rows in place (Append), and a copy of the narrow rows alone,
// which narrows again.
func TestNarrowColumns(t *testing.T) {
	for _, c := range []struct {
		top   int
		width int
	}{{255, 1}, {256, 2}, {65535, 2}, {65536, 4}} {
		for _, high := range []bool{false, true} {
			name := fmt.Sprintf("top %d, labels past 2^16 %v", c.top, high)
			dict := NewInterner()
			if high {
				dict = seededInterner(t, 1<<16+3)
			}
			trees := []*Tree{
				MustNew([]int32{-1, 0, 1, 2}),          // a path: chain shapes only
				MustNew([]int32{-1, 0, 0, 1, 1, 2, 2}), // two cherries under a root
				MustNew([]int32{-1, 0, 0, 2, 1}),       // not in BFS order
				MustNew([]int32{-1, 0, 0, 0, 1, 1, 1}),
			}
			var small []ArenaRun
			var ps []*Profile
			for _, tr := range trees {
				p := dict.Profile(tr)
				ps = append(ps, p)
				small = append(small, ArenaRun{P: p, T: tr})
			}
			hub := hubTree(c.top)
			hubRun := ArenaRun{P: dict.Profile(hub), T: hub}
			all := append(slices.Clone(trees), hub)
			allPs := append(slices.Clone(ps), hubRun.P)

			a := CompileRuns(append(slices.Clone(small), hubRun), 0)
			if a.Degs.Width != c.width {
				t.Fatalf("%s: compiled at %d bytes a count, want %d", name, a.Degs.Width, c.width)
			}
			checkArena(t, name+": compiled", a, all, allPs)
			if high {
				top := int32(0)
				for _, w := range DecodeWords(nil, a.Words) {
					top = max(top, int32(uint32(w)&^ParentsFlag))
				}
				if top < 1<<16 {
					t.Fatalf("%s: no stored label reaches 2^16", name)
				}
			}

			narrow := CompileRuns(small, 4)
			if narrow.Degs.Width != 1 {
				t.Fatalf("%s: small rows at %d bytes a count", name, narrow.Degs.Width)
			}
			if narrow.Fits([]ArenaRun{hubRun}) != (c.width == 1) {
				t.Fatalf("%s: a 1-byte arena with room Fits a row of count %d: %v", name, c.top, !(c.width == 1))
			}
			if !narrow.Fits(small[:2]) {
				t.Fatalf("%s: a 1-byte arena with room does not fit two small rows", name)
			}
			wide := CompileRuns([]ArenaRun{{From: narrow, Hi: narrow.N}, hubRun}, 8)
			if wide.Degs.Width != c.width {
				t.Fatalf("%s: relocated at %d bytes a count, want %d", name, wide.Degs.Width, c.width)
			}
			checkArena(t, name+": relocated", wide, all, allPs)

			if !wide.Fits(small) {
				t.Fatalf("%s: the relocated arena's room does not fit the small rows", name)
			}
			grown, copied := wide.Append(small)
			if copied != grown.Bytes()-wide.Bytes() || copied <= 0 {
				t.Fatalf("%s: Append copied %d bytes, columns grew by %d", name, copied, grown.Bytes()-wide.Bytes())
			}
			if grown.Degs.Width != c.width {
				t.Fatalf("%s: appended at %d bytes a count", name, grown.Degs.Width)
			}
			checkArena(t, name+": appended", grown, append(slices.Clone(all), trees...), append(slices.Clone(allPs), ps...))

			back := CompileRuns([]ArenaRun{{From: grown, Lo: len(all), Hi: grown.N}}, 0)
			if back.Degs.Width != 1 {
				t.Fatalf("%s: the small rows copied out of a wide arena at %d bytes a count", name, back.Degs.Width)
			}
			checkArena(t, name+": narrowed", back, trees, ps)
		}
	}
}

// checkArena requires row i of a to hold trees[i] as ps[i] profiles it:
// its degree run at a's width equal to the profile's InnerDegs, its
// stored words to AppendStored's, its built tree and profile equal to
// the tree and profile; and Bytes to count each column at its width.
func checkArena(t *testing.T, name string, a *ProfileArena, trees []*Tree, ps []*Profile) {
	t.Helper()
	if a.N != len(trees) {
		t.Fatalf("%s: %d rows, want %d", name, a.N, len(trees))
	}
	degs, words := 0, 0
	var sc RowScratch
	for i, tr := range trees {
		p := ps[i]
		levels, d := a.Row(i)
		if d.Width != a.Degs.Width || !slices.Equal(d.AppendTo(nil), p.InnerDegs()) || !slices.Equal(levels, p.Levels) {
			t.Fatalf("%s: row %d has columns (%v, %v), profile (%v, %v)", name, i, levels, d.AppendTo(nil), p.Levels, p.InnerDegs())
		}
		if got, want := DecodeWords(nil, a.Stored(i)), AppendStored(nil, p, tr); !slices.Equal(got, want) {
			t.Fatalf("%s: row %d stores %v, want %v", name, i, got, want)
		}
		gt, gp := sc.Row(a, i)
		if !reflect.DeepEqual(gt.ParentVector(), tr.ParentVector()) || !reflect.DeepEqual(*gp, *p) {
			t.Fatalf("%s: row %d builds a different tree or profile", name, i)
		}
		degs += len(p.InnerDegs())
		words += len(a.Stored(i))
	}
	want := 4*int64(a.N+a.N*a.Width+2*(a.N+1)) + int64(degs*a.Degs.Width+words)
	if a.Bytes() != want {
		t.Fatalf("%s: Bytes %d, want %d", name, a.Bytes(), want)
	}
}
