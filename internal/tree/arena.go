package tree

// This file compiles a batch of Profiles into a ProfileArena: one
// struct-of-arrays block holding what the precompiled cascade tiers
// read — sizes and level-size vectors — in contiguous int32 arrays,
// indexed by slot. The size and padding tiers of the internal/ned
// cascade sweep these arrays in tight bounds-check-hoisted loops over
// whole candidate blocks — no *Item or *Profile is dereferenced until a
// candidate survives the precompiled tiers; tier 2 (the degree-sequence
// bound) and the verify stage then read the survivor's own Profile. The
// arena is immutable after compilation and safe to share across epoch
// clones (the owner recompiles it when the underlying item set changes).

// ProfileArena is the columnar layout of a slice of Profiles. All
// per-slot arrays are indexed by the position the profile held in the
// compiling slice; the level-size vectors form a dense, zero-padded
// [slot][Width] matrix, so every slot's row has the same length and the
// padding kernel runs one fixed-width loop per slot.
type ProfileArena struct {
	// N is the slot count.
	N int

	// Sizes[i] is profile i's node count (Profile.Size).
	Sizes []int32

	// Width is the deepest level count in the batch (height+1 of the
	// tallest tree; at most k+1 for k-adjacent trees). Levels holds slot
	// i's level-size vector in Levels[i*Width : (i+1)*Width], zero past
	// its own height — an absent level is an empty one.
	Width  int
	Levels []int32
}

// CompileArena builds the columnar arena over ps, which must all be
// non-nil profiles compiled against one shared Interner (the caller
// profiles every item it indexes). An empty ps gives an empty arena.
func CompileArena(ps []*Profile) *ProfileArena {
	n, width := len(ps), 0
	for _, p := range ps {
		width = max(width, len(p.Levels))
	}
	a := &ProfileArena{
		N:      n,
		Sizes:  make([]int32, n),
		Width:  width,
		Levels: make([]int32, n*width),
	}
	for i, p := range ps {
		a.Sizes[i] = p.Size
		copy(a.Levels[i*width:], p.Levels)
	}
	return a
}
