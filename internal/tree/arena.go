package tree

import "sync"

// This file compiles a batch of Profiles into a ProfileArena: one
// struct-of-arrays block holding what the precompiled cascade tiers
// read — sizes, level-size vectors and the degree sequences of the
// inner levels — in contiguous arrays, indexed by row, beside each
// row's stored tree: the interned labels of its levels above the
// deepest, in node order, from which the dictionary derives the rest
// (RowScratch.Row). The size and padding tiers of the internal/ned
// cascade sweep these arrays in tight loops, tier 2 (the
// degree-sequence bound) reads a row's level widths and child counts
// from the same arena, and only a candidate that reaches the verify
// stage has its tree and profile built, into scratch. The two columns
// that hold most of a row are narrow: the child counts at the width
// the arena's largest needs (Degrees), the stored trees as uvarints.
// An arena's rows never change once written, so epoch clones share it;
// Append extends it in place for the one successor that owns its tail.

// ParentsFlag marks a stored tree's header word (Words) when the tree is
// not in BFS order and its parent vector follows its labels.
const ParentsFlag = 1 << 31

// ProfileArena is the columnar layout of a slice of Profiles. All
// per-row arrays are indexed by the position the profile held in the
// compiling slice; the level-size vectors form a dense, zero-padded
// [row][Width] matrix, so every row has the same length and the
// padding kernel runs one fixed-width loop per row. The degree runs
// and the stored trees, most of a row's bytes, are held narrow: the
// runs at one, two or four bytes a count, whichever the arena's largest
// count needs, the stored trees as uvarints — a label is an interned
// shape ID, and most are below 2⁷.
type ProfileArena struct {
	// N is the row count.
	N int

	// Sizes[i] is profile i's node count (Profile.Size).
	Sizes []int32

	// Width is the deepest level count in the batch (height+1 of the
	// tallest tree; at most k+1 for k-adjacent trees). Levels holds row
	// i's level-size vector in Levels[i*Width : (i+1)*Width], zero past
	// its own height — an absent level is an empty one.
	Width  int
	Levels []int32

	// Degs holds every row's child counts of levels 1…h−1 (Profile.Degs
	// without the root's, see InnerDegs), rows one after another, at the
	// width the largest needs: row i's run is entries DegOff[i] to
	// DegOff[i+1]. DegOff has N+1 entries.
	Degs   Degrees
	DegOff []int32

	// Words holds every row's stored tree as uvarints (AppendWords), rows
	// one after another: row i's is Words[WordOff[i] : WordOff[i+1]], a
	// header word m — with ParentsFlag set for a tree not in BFS order —
	// then the m labels of the tree's levels above the deepest in node
	// order, then, flagged, its parent vector. Decoded, this is a
	// segment's tree encoding; WordOff, byte offsets, has N+1 entries.
	Words   []byte
	WordOff []int32

	// Dict is the dictionary the stored labels are interned in.
	Dict *Interner

	// tail is shared by the arenas that extend one set of backing arrays
	// in place: the row count of the longest, which only the arena of
	// that length may extend (Append).
	tail *arenaTail
}

type arenaTail struct {
	mu sync.Mutex
	n  int
}

// CompileArena builds the columnar arena over ps, which must all be
// non-nil profiles of BFS-order trees compiled against one shared
// Interner (the caller profiles every item it indexes). Row i describes
// ps[i]. An empty ps gives an empty arena.
func CompileArena(ps []*Profile) *ProfileArena {
	runs := make([]ArenaRun, len(ps))
	for i, p := range ps {
		runs[i].P = p
	}
	return CompileRuns(runs, 0)
}

// ArenaRun is a run of rows for CompileRuns: rows [Lo, Hi) of the arena
// From, or, when From is nil, the one row of the profile P of the tree
// T (nil: a BFS-order tree, which is all a row needs to know of it).
type ArenaRun struct {
	From   *ProfileArena
	Lo, Hi int
	P      *Profile
	T      *Tree
}

// runsSize is what the runs' rows hold: their count, tallest level
// count, degree-run entries, largest child count (0 when the rows fit
// degWidth bytes a count; a row of an arena at most that wide is not
// read) and stored bytes.
func runsSize(runs []ArenaRun, degWidth int) (n, width, degs int, top int32, words int) {
	for _, run := range runs {
		if run.From == nil {
			p := run.P
			n, width, degs = n+1, max(width, len(p.Levels)), degs+len(p.InnerDegs())
			top = max(top, maxOf(p.InnerDegs()))
			words += storedLen(p, run.T)
			continue
		}
		f := run.From
		lo, hi := f.DegOff[run.Lo], f.DegOff[run.Hi]
		n += run.Hi - run.Lo
		degs += int(hi - lo)
		words += int(f.WordOff[run.Hi] - f.WordOff[run.Lo])
		if f.Degs.Width > degWidth {
			top = max(top, f.Degs.Slice(lo, hi).Max())
		}
		for r := run.Lo; r < run.Hi && width < f.Width; r++ {
			width = max(width, len(f.RowLevels(r)))
		}
	}
	return n, width, degs, top, words
}

// CompileRuns builds an arena whose rows are the runs' rows, in order:
// a profile's row is gathered from its columns, a run of an existing
// arena's rows is copied in bulk. The width is the tallest row's height
// plus one, as CompileArena over the same profiles would give, and the
// degree runs are as wide as the largest child count needs. The columns
// have room for about room more rows of the same average size, which
// Append fills in place.
func CompileRuns(runs []ArenaRun, room int) *ProfileArena {
	n, width, degs, top, words := runsSize(runs, 1)
	a := sized(width, n, degs, degreeWidth(top), words, room)
	a.appendRuns(runs)
	a.tail = &arenaTail{n: a.N}
	return a
}

// NewArena returns an arena of n rows at the given width for a decoder
// to fill in place, row by row in any order: each row's Sizes entry, its
// Levels (zero past its height), its DegOff and WordOff entries — both
// hold n+1 zeros to start — and then its runs of Degs (Degrees.Put) and
// Words at those offsets, which hold degs counts, none above top, and
// words bytes. The columns have room for about room more rows of the
// same average size, which Append fills in place.
func NewArena(dict *Interner, width, n, degs int, top int32, words, room int) *ProfileArena {
	a := sized(width, n, degs, degreeWidth(top), words, room)
	a.N, a.Dict, a.tail = n, dict, &arenaTail{n: n}
	a.Sizes, a.Levels = a.Sizes[:n], a.Levels[:n*width]
	a.Degs, a.DegOff = a.Degs.Slice(0, int32(degs)), a.DegOff[:n+1]
	a.Words, a.WordOff = a.Words[:words], a.WordOff[:n+1]
	return a
}

// sized is an empty arena at the given width whose columns can take n
// rows holding degs degree-run entries of degWidth bytes and words
// stored bytes, and about room more rows of the same average size.
func sized(width, n, degs, degWidth, words, room int) *ProfileArena {
	perRow := func(total int) int { return total + room*total/max(n, 1) }
	return &ProfileArena{
		Sizes:   make([]int32, 0, n+room),
		Width:   width,
		Levels:  make([]int32, 0, (n+room)*width),
		Degs:    makeDegrees(degWidth, perRow(degs)),
		DegOff:  make([]int32, 1, n+room+1),
		Words:   make([]byte, 0, perRow(words)),
		WordOff: make([]int32, 1, n+room+1),
	}
}

// Fits reports whether Append can extend a with the runs' rows: a owns
// its columns' tail — only the first arena appended to a set of columns
// does, so a's own rows and every other arena's stay as they were — and
// the columns have room for them at a's width and a's degree width. A
// row taller than a, or with a child count wider than a's, does not fit.
func (a *ProfileArena) Fits(runs []ArenaRun) bool {
	if a.tail == nil {
		return false
	}
	rows, width, degs, top, words := runsSize(runs, a.Degs.Width)
	if width > a.Width || degreeWidth(top) > a.Degs.Width {
		return false
	}
	room := func(col []int32, n int) bool { return cap(col)-len(col) >= n }
	if !room(a.Sizes, rows) || !room(a.Levels, rows*a.Width) || a.Degs.Cap()-a.Degs.Len() < degs ||
		!room(a.DegOff, rows) || cap(a.Words)-len(a.Words) < words || !room(a.WordOff, rows) {
		return false
	}
	a.tail.mu.Lock()
	defer a.tail.mu.Unlock()
	return a.tail.n == a.N
}

// Append extends a in place with the runs' rows, which must fit (Fits),
// and returns the extended arena and the bytes it copied.
func (a *ProfileArena) Append(runs []ArenaRun) (*ProfileArena, int64) {
	a.tail.mu.Lock()
	defer a.tail.mu.Unlock()
	if a.tail.n != a.N {
		panic("tree: appending to an arena whose tail another arena took")
	}
	c := *a
	c.appendRuns(runs)
	a.tail.n = c.N
	return &c, c.Bytes() - a.Bytes()
}

// appendRuns appends the runs' rows to a, whose width and degree width
// hold them all.
func (a *ProfileArena) appendRuns(runs []ArenaRun) {
	width := a.Width
	var scratch []int32
	for _, run := range runs {
		if run.From == nil {
			p := run.P
			a.Dict = p.dict
			a.Sizes = append(a.Sizes, p.Size)
			a.Levels = append(a.Levels, p.Levels...)
			for range width - len(p.Levels) {
				a.Levels = append(a.Levels, 0)
			}
			a.Degs.Append(Degrees{Width: 4, I32: p.InnerDegs()})
			a.DegOff = append(a.DegOff, int32(a.Degs.Len()))
			scratch = AppendStored(scratch[:0], p, run.T)
			a.Words = AppendWords(a.Words, scratch)
			a.WordOff = append(a.WordOff, int32(len(a.Words)))
			a.N++
			continue
		}
		f, k := run.From, run.Hi-run.Lo
		if k == 0 {
			continue
		}
		a.Dict = f.Dict
		a.Sizes = append(a.Sizes, f.Sizes[run.Lo:run.Hi]...)
		if f.Width == width {
			a.Levels = append(a.Levels, f.Levels[run.Lo*width:run.Hi*width]...)
		} else {
			// Every level past the narrower width is zero in these rows.
			for r := run.Lo; r < run.Hi; r++ {
				a.Levels = append(a.Levels, f.Levels[r*f.Width:][:min(f.Width, width)]...)
				for range width - f.Width {
					a.Levels = append(a.Levels, 0)
				}
			}
		}
		shift := int32(a.Degs.Len()) - f.DegOff[run.Lo]
		a.Degs.Append(f.Degs.Slice(f.DegOff[run.Lo], f.DegOff[run.Hi]))
		for _, off := range f.DegOff[run.Lo+1 : run.Hi+1] {
			a.DegOff = append(a.DegOff, off+shift)
		}
		shift = int32(len(a.Words)) - f.WordOff[run.Lo]
		a.Words = append(a.Words, f.Words[f.WordOff[run.Lo]:f.WordOff[run.Hi]]...)
		for _, off := range f.WordOff[run.Lo+1 : run.Hi+1] {
			a.WordOff = append(a.WordOff, off+shift)
		}
		a.N += k
	}
}

// storedLen is the length in bytes of the stored form (Words) of p's
// tree t: labels in node order or level order take the same bytes.
func storedLen(p *Profile, t *Tree) int {
	m := len(p.Degs)
	hdr := uint32(m)
	n := WordsLen(p.Labels[:m])
	if t != nil && !t.BFSOrder() {
		hdr |= ParentsFlag
		for v := range int32(t.Size()) {
			n += UvarintLen(uint32(t.Parent(v)))
		}
	}
	return n + UvarintLen(hdr)
}

// AppendStored appends the stored form (Words, decoded) of p's tree t
// (nil: a BFS-order tree) to dst: the header word, the labels of the
// levels above the deepest in node order — the profile's level-sorted
// Labels put back through Perm — and the parent vector of a tree not in
// BFS order.
func AppendStored(dst []int32, p *Profile, t *Tree) []int32 {
	m := len(p.Degs)
	hdr := uint32(m)
	bfs := t == nil || t.BFSOrder()
	if !bfs {
		hdr |= ParentsFlag
	}
	dst = append(dst, int32(hdr))
	at := len(dst)
	dst = append(dst, make([]int32, m)...)
	labels := dst[at:]
	off := int32(0)
	for _, w := range p.Levels[:len(p.Levels)-1] {
		for j := off; j < off+w; j++ {
			labels[off+p.Perm[j]] = p.Labels[j]
		}
		off += w
	}
	if !bfs {
		for v := range int32(t.Size()) {
			dst = append(dst, t.Parent(v))
		}
	}
	return dst
}

// Row returns row i's tier-2 input: its level widths, cut at its own
// height, and its child counts of levels 1…h−1 — what a profile's
// Levels and InnerDegs hold, read from the arena, the counts at the
// arena's degree width.
func (a *ProfileArena) Row(i int) (levels []int32, degs Degrees) {
	return a.RowLevels(i), a.Degs.Slice(a.DegOff[i], a.DegOff[i+1])
}

// RowLevels is row i's level widths, cut at its own height.
func (a *ProfileArena) RowLevels(i int) []int32 {
	levels := a.Levels[i*a.Width : (i+1)*a.Width]
	for len(levels) > 1 && levels[len(levels)-1] == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels
}

// Stored returns row i's stored tree (Words) as uvarints.
func (a *ProfileArena) Stored(i int) []byte { return a.Words[a.WordOff[i]:a.WordOff[i+1]] }

// Bytes is the size of the arena's columns, each at its own width.
func (a *ProfileArena) Bytes() int64 {
	return 4*int64(len(a.Sizes)+len(a.Levels)+len(a.DegOff)+len(a.WordOff)) + a.Degs.Bytes() + int64(len(a.Words))
}
