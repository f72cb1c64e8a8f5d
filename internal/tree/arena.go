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
// compiling slice; the variable-length level data is concatenated with
// a per-slot offset array (CSR layout).
type ProfileArena struct {
	// N is the slot count.
	N int

	// Sizes[i] is profile i's node count (Profile.Size).
	Sizes []int32

	// Levels holds every profile's level-size vector, concatenated;
	// slot i owns Levels[LevOff[i]:LevOff[i+1]]. len(LevOff) == N+1.
	LevOff []int32
	Levels []int32
}

// CompileArena builds the columnar arena over ps. Every profile must be
// non-nil and compiled against one shared Interner; a nil profile makes
// the batch uncompilable and returns nil (callers fall back to the
// scalar per-candidate path).
func CompileArena(ps []*Profile) *ProfileArena {
	n := len(ps)
	levTotal := 0
	for _, p := range ps {
		if p == nil {
			return nil
		}
		levTotal += len(p.Levels)
	}
	a := &ProfileArena{
		N:      n,
		Sizes:  make([]int32, n),
		LevOff: make([]int32, n+1),
		Levels: make([]int32, 0, levTotal),
	}
	for i, p := range ps {
		a.Sizes[i] = p.Size
		a.Levels = append(a.Levels, p.Levels...)
		a.LevOff[i+1] = int32(len(a.Levels))
	}
	return a
}
