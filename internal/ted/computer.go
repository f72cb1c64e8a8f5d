package ted

import (
	"slices"
	"sync"

	"ned/internal/hungarian"
	"ned/internal/tree"
)

// Unbounded is the budget meaning "no limit": DistanceAtMost with an
// Unbounded budget always returns the exact distance.
const Unbounded = int(^uint(0) >> 1)

// Outcome classifies how a budgeted TED* computation ended.
type Outcome uint8

const (
	// OutcomeExact: the computation ran to completion and the returned
	// value is the exact TED* distance (bit-identical to Distance),
	// whether or not it exceeds the budget.
	OutcomeExact Outcome = iota
	// OutcomePruned: the O(height) padding lower bound alone exceeded
	// the budget; no canonization or matching work was done. The
	// returned value is that bound.
	OutcomePruned
	// OutcomeAborted: the level sweep (or an in-flight Hungarian
	// matching) proved the running total must cross the budget and
	// stopped early. The returned value is a lower bound on the true
	// distance, strictly greater than the budget.
	OutcomeAborted
)

// Computer is a reusable TED* computation engine: it owns every piece of
// per-comparison scratch — canonization label arrays, the per-level
// children-collection arena, the canonize entry buffer, the leftover
// row/column lists, the flat cost matrix, and the Hungarian solver
// workspace — so repeated Distance/DistanceAtMost calls amortize to zero
// allocations. A Computer is not safe for concurrent use; pool one per
// worker goroutine (internal/ned does exactly that).
type Computer struct {
	solver hungarian.Solver

	// Labels of nodes at the previously processed depth, indexed by
	// tree-node ID; only entries for that depth are meaningful.
	lab1, lab2 []int32

	// Per-level scratch.
	arena        []int32    // backing storage for children collections
	coll1, coll2 [][]int32  // collection headers into arena
	entries      []canonEnt // canonize sort buffer
	rows, cols   []int      // leftover indices after equal-label pre-match
	counts       []int32    // label histogram for the pre-match
	cost         []int64    // flat row-major Hungarian cost matrix
	pads         []int      // per-depth padding costs P_d

	// Scratch of the profiled faithful-level fast path (profiled.go):
	// level-offset prefix sums of the two profiles and the leftover
	// labels running parallel to rows/cols during the sorted merge.
	off1p, off2p     []int32
	rowLabs, colLabs []int32

	// Work counts what the computations since the last TakeWork did.
	work Work
}

// Work is what TED* computations did: the cells of the cost matrices
// handed to the Hungarian solver (ln² per solve) and the levels swept,
// counting the level a computation aborted at.
type Work struct {
	HungarianCells int64
	Levels         int64
}

// TakeWork returns the work done since the last call and zeroes it.
func (c *Computer) TakeWork() Work {
	w := c.work
	c.work = Work{}
	return w
}

// NewComputer returns an empty Computer; buffers grow on first use.
func NewComputer() *Computer { return &Computer{} }

// computerPool serves the package-level Distance/DistanceReport/
// WeightedDistance entry points so even one-shot callers reuse scratch.
var computerPool = sync.Pool{New: func() any { return NewComputer() }}

// Distance is the exact TED* distance, identical to the package-level
// Distance but allocation-free after warm-up.
func (c *Computer) Distance(t1, t2 *tree.Tree) int {
	t1, t2 = orient(t1, t2)
	d, _ := c.run(t1, t2, int64(Unbounded), nil)
	return d
}

// DistanceOrdered is DistanceOrdered on this Computer's scratch.
func (c *Computer) DistanceOrdered(t1, t2 *tree.Tree) int {
	d, _ := c.run(t1, t2, int64(Unbounded), nil)
	return d
}

// DistanceAtMost computes TED* under a budget. It seeds from the padding
// lower bound, accumulates padding and matching costs level by level
// bottom-up, and bails the moment the running total plus the padding
// still owed by unprocessed levels provably crosses the budget — the
// Hungarian matchings themselves abort mid-solve once their partial
// matching cost makes the level unaffordable.
//
// The contract, relied on by every index backend:
//
//   - outcome == OutcomeExact: d is exactly Distance(t1, t2).
//   - otherwise: d > budget and d <= Distance(t1, t2), so the true
//     distance also exceeds the budget.
//
// A budget of Unbounded (or anything >= the true distance) always yields
// OutcomeExact.
func (c *Computer) DistanceAtMost(t1, t2 *tree.Tree, budget int) (d int, outcome Outcome) {
	t1, t2 = orient(t1, t2)
	return c.run(t1, t2, int64(budget), nil)
}

// run executes Algorithm 1 bottom-up under a budget, optionally
// recording the per-level breakdown into rep.
func (c *Computer) run(t1, t2 *tree.Tree, budget int64, rep *Report) (int, Outcome) {
	return c.runLevels(t1, t2, nil, nil, budget, rep)
}

// runLevels is run with optional precompiled level-size vectors seeding
// the padding sweep.
func (c *Computer) runLevels(t1, t2 *tree.Tree, lv1, lv2 []int32, budget int64, rep *Report) (int, Outcome) {
	maxD := t1.Height()
	if h := t2.Height(); h > maxD {
		maxD = h
	}

	// Per-depth padding costs; their sum is the LowerBound seed, and the
	// running suffix of unprocessed levels keeps the bound tight during
	// the sweep.
	if cap(c.pads) < maxD+1 {
		c.pads = make([]int, maxD+1)
	}
	c.pads = c.pads[:maxD+1]
	remPad := 0
	if lv1 != nil && lv2 != nil {
		for d := 0; d <= maxD; d++ {
			var n1, n2 int32
			if d < len(lv1) {
				n1 = lv1[d]
			}
			if d < len(lv2) {
				n2 = lv2[d]
			}
			p := int(n1) - int(n2)
			if p < 0 {
				p = -p
			}
			c.pads[d] = p
			remPad += p
		}
	} else {
		for d := 0; d <= maxD; d++ {
			p := t1.LevelSize(d) - t2.LevelSize(d)
			if p < 0 {
				p = -p
			}
			c.pads[d] = p
			remPad += p
		}
	}
	if int64(remPad) > budget {
		return remPad, OutcomePruned
	}

	if cap(c.lab1) < t1.Size() {
		c.lab1 = make([]int32, t1.Size())
	}
	if cap(c.lab2) < t2.Size() {
		c.lab2 = make([]int32, t2.Size())
	}
	c.lab1 = c.lab1[:t1.Size()]
	c.lab2 = c.lab2[:t2.Size()]

	total := 0
	prevPad := 0
	for d := maxD; d >= 0; d-- {
		remPad -= c.pads[d]
		// Affordable slack for this level's matching cost M_d. The
		// previous iteration's bound check guarantees slack >= 0.
		slack := budget - int64(total) - int64(c.pads[d]) - int64(remPad)
		solverBudget := int64(hungarian.Inf)
		// M_d = (m - prevPad)/2 must stay <= slack, so the matching m
		// may not exceed 2*slack + prevPad + 1 (the +1 keeps the floor
		// division from rounding an abort below the budget). Huge
		// budgets whose doubled slack would overflow simply keep the
		// solver unbounded.
		if budget < int64(Unbounded) && slack < (int64(hungarian.Inf)-int64(prevPad)-1)/2 {
			if sb := 2*slack + int64(prevPad) + 1; sb < solverBudget {
				solverBudget = sb
			}
		}
		c.work.Levels++
		p, m, partial, ok := c.level(t1, t2, d, prevPad, solverBudget)
		if !ok {
			mlb := (partial - int64(prevPad)) / 2
			if mlb < 0 {
				mlb = 0
			}
			return total + c.pads[d] + int(mlb) + remPad, OutcomeAborted
		}
		total += p + m
		if rep != nil {
			rep.Levels = append(rep.Levels, LevelCost{Depth: d, Padding: p, Matching: m})
		}
		prevPad = p
		if int64(total)+int64(remPad) > budget {
			return total + remPad, OutcomeAborted
		}
	}
	return total, OutcomeExact
}

// level executes the six steps of Algorithm 1 for one depth and returns
// (P_d, M_d). When the Hungarian matching aborts on its budget, ok is
// false and partial carries the solver's partial matching cost (a lower
// bound on the true m(G²_d)).
func (c *Computer) level(t1, t2 *tree.Tree, d, prevPad int, solverBudget int64) (padding, matching int, partial int64, ok bool) {
	lo1, hi1 := t1.LevelRange(d)
	lo2, hi2 := t2.LevelRange(d)
	n1 := int(hi1 - lo1)
	n2 := int(hi2 - lo2)

	// Step 1: node padding (lines 2–6).
	padding = n1 - n2
	if padding < 0 {
		padding = -padding
	}
	n := n1
	if n2 > n {
		n = n2
	}
	if n == 0 {
		return padding, 0, 0, true
	}

	// Step 2: node canonization (lines 7–8, Algorithm 2). Children
	// collections use the labels assigned when depth d+1 was processed.
	c.buildCollections(t1, t2, d, lo1, hi1, lo2, hi2)
	maxLabel := c.canonize(c.lab1[lo1:hi1], c.lab2[lo2:hi2])

	// Steps 3–4: equal-label pre-match, then minimum-weight matching of
	// the mismatched residue (see the package note on the exchange
	// argument that makes the pre-match exact).
	rows, cols := c.leftovers(lo1, lo2, n1, n2, n, maxLabel)
	ln := len(rows)
	var m int64
	var assign []int
	if ln > 0 {
		if cap(c.cost) < ln*ln {
			c.cost = make([]int64, ln*ln)
		}
		cost := c.cost[:ln*ln]
		for ri, r := range rows {
			var sr []int32
			if r < n1 {
				sr = c.coll1[r]
			}
			for ci, cl := range cols {
				var sc []int32
				if cl < n2 {
					sc = c.coll2[cl]
				}
				cost[ri*ln+ci] = symmetricDifference(sr, sc)
			}
		}
		var complete bool
		c.work.HungarianCells += int64(ln) * int64(ln)
		m, assign, complete = c.solver.SolveAtMost(cost, ln, solverBudget)
		if !complete {
			return padding, 0, m, false
		}
	}

	// Step 5: matching cost (line 15, Equation 5).
	diff := int(m) - prevPad
	if diff < 0 {
		// Cannot happen per the correctness proof (§6); clamp defensively
		// so arithmetic noise can never produce a negative distance.
		diff = 0
	}
	matching = diff / 2

	// Step 6: node re-canonization (lines 16–19). The smaller level's
	// real nodes adopt the labels of their matched partners so the next
	// (shallower) level sees identical child-label multisets.
	if n1 < n2 {
		for ri, r := range rows {
			if r < n1 {
				c.lab1[lo1+int32(r)] = c.lab2[lo2+int32(cols[assign[ri]])]
			}
		}
	} else {
		for ri, r := range rows {
			if cl := cols[assign[ri]]; cl < n2 && r < n1 {
				c.lab2[lo2+int32(cl)] = c.lab1[lo1+int32(r)]
			}
		}
	}
	return padding, matching, 0, true
}

// buildCollections fills coll1/coll2 with S(x) (Definition 6) for every
// real node of the two levels: the sorted multiset of each node's
// children's current labels. Both header slices point into one arena
// sized exactly for the level, so nothing reallocates mid-build.
func (c *Computer) buildCollections(t1, t2 *tree.Tree, d int, lo1, hi1, lo2, hi2 int32) {
	need := t1.LevelSize(d+1) + t2.LevelSize(d+1)
	if cap(c.arena) < need {
		c.arena = make([]int32, need)
	}
	arena := c.arena[:0]
	c.coll1 = fillCollections(t1, c.lab1, lo1, hi1, c.coll1[:0], &arena)
	c.coll2 = fillCollections(t2, c.lab2, lo2, hi2, c.coll2[:0], &arena)
}

func fillCollections(t *tree.Tree, lab []int32, lo, hi int32, out [][]int32, arena *[]int32) [][]int32 {
	for v := lo; v < hi; v++ {
		kids := t.Children(v)
		if len(kids) == 0 {
			out = append(out, nil)
			continue
		}
		start := len(*arena)
		for _, k := range kids {
			*arena = append(*arena, lab[k])
		}
		coll := (*arena)[start:]
		slices.Sort(coll)
		out = append(out, coll)
	}
	return out
}

// canonEnt is one node's children collection tagged with where its label
// must be written.
type canonEnt struct {
	coll []int32
	side int8
	idx  int32
}

// canonize implements Algorithm 2: dense labels such that two nodes get
// equal labels iff their children-label collections are equivalent
// multisets (Lemma 1), ordered size-first lexicographically. Returns the
// largest label assigned.
func (c *Computer) canonize(out1, out2 []int32) int32 {
	c.entries = c.entries[:0]
	for i, coll := range c.coll1 {
		c.entries = append(c.entries, canonEnt{coll, 0, int32(i)})
	}
	for i, coll := range c.coll2 {
		c.entries = append(c.entries, canonEnt{coll, 1, int32(i)})
	}
	slices.SortFunc(c.entries, func(a, b canonEnt) int { return cmpCollections(a.coll, b.coll) })
	label := int32(0)
	for i, e := range c.entries {
		if i > 0 && !equalCollections(c.entries[i-1].coll, e.coll) {
			label++
		}
		if e.side == 0 {
			out1[e.idx] = label
		} else {
			out2[e.idx] = label
		}
	}
	return label
}

// cmpCollections orders collections by size then lexicographically, the
// order Algorithm 2 prescribes ("(2) < (0,0) < (0,1)").
func cmpCollections(a, b []int32) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// leftovers pre-matches equal-label pairs across the two padded levels
// and returns the residual row and column indices that still need the
// optimal matcher. Indices >= n1 (rows) or >= n2 (cols) denote padded
// nodes, whose label is the label shared by childless real nodes (or a
// reserved sentinel when no real node is childless). Labels are dense in
// [0, maxLabel], so the histogram is a slice (index shifted by one to
// absorb the -1 sentinel), not a map.
func (c *Computer) leftovers(lo1, lo2 int32, n1, n2, n int, maxLabel int32) (rows, cols []int) {
	padLabel := int32(-1)
	for r := 0; r < n1; r++ {
		if len(c.coll1[r]) == 0 {
			padLabel = c.lab1[lo1+int32(r)]
			break
		}
	}
	if padLabel == -1 {
		for cl := 0; cl < n2; cl++ {
			if len(c.coll2[cl]) == 0 {
				padLabel = c.lab2[lo2+int32(cl)]
				break
			}
		}
	}
	labelOfRow := func(r int) int32 {
		if r < n1 {
			return c.lab1[lo1+int32(r)]
		}
		return padLabel
	}
	labelOfCol := func(cl int) int32 {
		if cl < n2 {
			return c.lab2[lo2+int32(cl)]
		}
		return padLabel
	}
	if cap(c.counts) < int(maxLabel)+2 {
		c.counts = make([]int32, maxLabel+2)
	}
	counts := c.counts[:maxLabel+2]

	// Count labels on the column side, then stream rows against it.
	clear(counts)
	for cl := 0; cl < n; cl++ {
		counts[labelOfCol(cl)+1]++
	}
	rows = c.rows[:0]
	for r := 0; r < n; r++ {
		l := labelOfRow(r) + 1
		if counts[l] > 0 {
			counts[l]--
		} else {
			rows = append(rows, r)
		}
	}
	// Columns not consumed by the pre-match are leftovers. Recount.
	clear(counts)
	for r := 0; r < n; r++ {
		counts[labelOfRow(r)+1]++
	}
	cols = c.cols[:0]
	for cl := 0; cl < n; cl++ {
		l := labelOfCol(cl) + 1
		if counts[l] > 0 {
			counts[l]--
		} else {
			cols = append(cols, cl)
		}
	}
	c.rows, c.cols = rows, cols
	return rows, cols
}
