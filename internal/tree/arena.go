package tree

// This file compiles a batch of Profiles into a ProfileArena: one
// struct-of-arrays block holding what the precompiled cascade tiers
// read — sizes, level-size vectors and the degree sequences of the
// inner levels — in contiguous int32 arrays, indexed by row. The size
// and padding tiers of the internal/ned cascade sweep these arrays in
// tight bounds-check-hoisted loops over whole row ranges, and tier 2
// (the degree-sequence bound) reads a row's level widths and child
// counts from the same arena — no *Item or *Profile is dereferenced
// until a candidate reaches the verify stage. The arena is immutable
// after compilation and safe to share across epoch clones (the owner
// recompiles it when the underlying item set changes).

// ProfileArena is the columnar layout of a slice of Profiles. All
// per-row arrays are indexed by the position the profile held in the
// compiling slice; the level-size vectors form a dense, zero-padded
// [row][Width] matrix, so every row has the same length and the
// padding kernel runs one fixed-width loop per row.
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
	// without the root's, see InnerDegs), rows one after another: row i's
	// run is Degs[DegOff[i] : DegOff[i+1]]. DegOff has N+1 entries.
	Degs   []int32
	DegOff []int32
}

// CompileArena builds the columnar arena over ps, which must all be
// non-nil profiles compiled against one shared Interner (the caller
// profiles every item it indexes). Row i describes ps[i]. An empty ps
// gives an empty arena.
func CompileArena(ps []*Profile) *ProfileArena {
	runs := make([]ArenaRun, len(ps))
	for i, p := range ps {
		runs[i].P = p
	}
	return CompileRuns(runs)
}

// ArenaRun is a run of rows for CompileRuns: rows [Lo, Hi) of the arena
// From, or, when From is nil, the one row of the profile P.
type ArenaRun struct {
	From   *ProfileArena
	Lo, Hi int
	P      *Profile
}

// CompileRuns builds an arena whose rows are the runs' rows, in order:
// a profile's row is gathered from its columns, a run of an existing
// arena's rows is copied in bulk. The width is the tallest row's height
// plus one, as CompileArena over the same profiles would give.
func CompileRuns(runs []ArenaRun) *ProfileArena {
	n, width, total := 0, 0, 0
	for _, run := range runs {
		if run.From == nil {
			n, width, total = n+1, max(width, len(run.P.Levels)), total+len(run.P.InnerDegs())
			continue
		}
		f := run.From
		n, total = n+run.Hi-run.Lo, total+int(f.DegOff[run.Hi]-f.DegOff[run.Lo])
		for r := run.Lo; r < run.Hi && width < f.Width; r++ {
			levels, _ := f.Row(r)
			width = max(width, len(levels))
		}
	}
	a := &ProfileArena{
		N:      n,
		Sizes:  make([]int32, n),
		Width:  width,
		Levels: make([]int32, n*width),
		Degs:   make([]int32, 0, total),
		DegOff: make([]int32, n+1),
	}
	i := 0
	for _, run := range runs {
		if run.From == nil {
			a.Sizes[i] = run.P.Size
			copy(a.Levels[i*width:], run.P.Levels)
			a.Degs = append(a.Degs, run.P.InnerDegs()...)
			a.DegOff[i+1] = int32(len(a.Degs))
			i++
			continue
		}
		f, k := run.From, run.Hi-run.Lo
		copy(a.Sizes[i:i+k], f.Sizes[run.Lo:run.Hi])
		if f.Width == width {
			copy(a.Levels[i*width:(i+k)*width], f.Levels[run.Lo*width:run.Hi*width])
		} else {
			// Every level past the narrower width is zero in these rows.
			w := min(f.Width, width)
			for r := range k {
				copy(a.Levels[(i+r)*width:][:w], f.Levels[(run.Lo+r)*f.Width:][:w])
			}
		}
		shift := int32(len(a.Degs)) - f.DegOff[run.Lo]
		a.Degs = append(a.Degs, f.Degs[f.DegOff[run.Lo]:f.DegOff[run.Hi]]...)
		for r := range k {
			a.DegOff[i+r+1] = f.DegOff[run.Lo+r+1] + shift
		}
		i += k
	}
	return a
}

// Row returns row i's tier-2 input: its level widths, cut at its own
// height, and its child counts of levels 1…h−1 — what a profile's
// Levels and InnerDegs hold, read from the arena.
func (a *ProfileArena) Row(i int) (levels, degs []int32) {
	levels = a.Levels[i*a.Width : (i+1)*a.Width]
	for len(levels) > 1 && levels[len(levels)-1] == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels, a.Degs[a.DegOff[i]:a.DegOff[i+1]]
}

// Bytes is the size of the arena's columns.
func (a *ProfileArena) Bytes() int64 {
	return 4 * int64(len(a.Sizes)+len(a.Levels)+len(a.Degs)+len(a.DegOff))
}
