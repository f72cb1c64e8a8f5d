// Package hungarian solves the assignment problem (minimum-cost perfect
// matching in a complete weighted bipartite graph) in O(n³) time using
// the shortest-augmenting-path formulation of the Hungarian algorithm
// with dual potentials (Jonker–Volgenant style).
//
// TED* (§5.5 of the NED paper) solves one such matching per tree level;
// this package is its hot path. Solver.SolveAtMost defers the textbook
// loop's per-step dual updates to one per row, so each step of a row's
// search is a single pass over one cost row, and returns exactly the
// textbook loop's matching, totals and abort partials.
package hungarian

import "math"

// Inf is the sentinel used internally for "no edge"; costs supplied by
// callers must be finite and small enough that row sums do not overflow.
const Inf = math.MaxInt64 / 4

// Solver is a reusable workspace for the flat row-major assignment
// problem. All buffers are preallocated and grown geometrically, so a
// Solver amortizes to zero allocations across calls — the property the
// TED* hot path depends on (one matching per tree level per candidate
// pair). A Solver is not safe for concurrent use; pool one per worker.
type Solver struct {
	u, v   []int64 // the row and column duals
	p, way []int
	minv   []int64 // per row: a free column's slack plus the deltas so far; Inf once used
	vk     []int64 // per row: a free column's dual; usedV once used
	at     []int64 // the deltas so far when each column was used
	cols   []int   // the columns used by a row's search, in order
	assign []int
}

// usedV is a used column's entry in Solver.vk: it lifts the column's
// reduced cost above Inf, its minv, so the scan neither updates nor
// picks it.
const usedV = -2 * Inf

// grow sizes every buffer for an n×n problem.
func (s *Solver) grow(n int) {
	if cap(s.u) < n+1 {
		s.u = make([]int64, n+1)
		s.v = make([]int64, n+1)
		s.p = make([]int, n+1)
		s.way = make([]int, n+1)
		s.minv = make([]int64, n+1)
		s.vk = make([]int64, n+1)
		s.at = make([]int64, n+1)
		s.cols = make([]int, 0, n)
		s.assign = make([]int, n)
	}
	s.u = s.u[:n+1]
	s.v = s.v[:n+1]
	s.p = s.p[:n+1]
	s.way = s.way[:n+1]
	s.minv = s.minv[:n+1]
	s.vk = s.vk[:n+1]
	s.at = s.at[:n+1]
	s.assign = s.assign[:n]
	clear(s.u)
	clear(s.v)
	clear(s.p)
}

// Solve computes the minimum-cost perfect matching of the row-major n×n
// matrix cost. Semantics and results are identical to SolveFlat; the
// returned assignment aliases the Solver's internal buffer and is valid
// until the next call.
func (s *Solver) Solve(cost []int64, n int) (total int64, rowToCol []int) {
	total, rowToCol, _ = s.SolveAtMost(cost, n, Inf)
	return total, rowToCol
}

// SolveAtMost is Solve with an early-abort budget: after each row's
// augmentation the cost of the optimal partial matching built so far is
// a lower bound on the final total (costs are non-negative, so adding
// rows never cheapens the matching), and once that bound exceeds budget
// the solver stops. It returns (partial, nil, false) in that case, where
// partial > budget lower-bounds the true optimum; otherwise it returns
// the exact (total, assignment, true), bit-identical to Solve.
//
// Each row's search is the textbook shortest-augmenting-path loop,
// which after every step moves the duals of the columns the path uses
// and the slack of every other by that step's delta. Here the moves are
// deferred: a free column's minv is its slack plus the deltas so far,
// so a step adds nothing to it, and a used column records the deltas so
// far when it was used, so the row's duals move once, after its search.
// A used column's vk and minv are sentinels that keep it out of the
// scan's comparisons, so a step is one pass over the cost row. The scan
// ascends and takes a column only on a strictly smaller minv, as the
// textbook loop does, so the path, the matching, the totals and the
// abort partials are exactly its.
func (s *Solver) SolveAtMost(cost []int64, n int, budget int64) (total int64, rowToCol []int, complete bool) {
	if n == 0 {
		return 0, nil, true
	}
	s.grow(n)
	u, v, p, way, minv, vk, at := s.u, s.v, s.p, s.way, s.minv, s.vk, s.at
	// Column j+1's minv and vk, for the scan.
	mv, kv := minv[1:n+1], vk[1:n+1]

	for i := 1; i <= n; i++ {
		p[0] = i
		copy(vk, v)
		for j := range minv {
			minv[j] = Inf
		}
		cols := s.cols[:0]
		j0, sum := 0, int64(0) // sum: the deltas so far
		at[0] = 0
		for {
			i0 := p[j0]
			// Row i0's dual as of this step, less the deltas so far.
			ui := u[i0] - at[j0]
			row := cost[(i0-1)*n : i0*n]
			best, j1 := int64(Inf), -1
			for j, c := range row {
				if cur := c - ui - kv[j]; cur < mv[j] {
					mv[j] = cur
					way[j+1] = j0
				}
				if mv[j] < best {
					best, j1 = mv[j], j
				}
			}
			sum, j0 = best, j1+1
			if p[j0] == 0 {
				break
			}
			at[j0], vk[j0], minv[j0] = sum, usedV, Inf
			cols = append(cols, j0)
		}
		u[i] += sum
		for _, j := range cols {
			d := sum - at[j]
			u[p[j]] += d
			v[j] -= d
		}
		s.cols = cols
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
		if budget < Inf {
			// Cost of the optimal matching of the first i rows: a valid
			// lower bound on the final total.
			var partial int64
			for j := 1; j <= n; j++ {
				if p[j] != 0 {
					partial += cost[(p[j]-1)*n+j-1]
				}
			}
			if partial > budget {
				return partial, nil, false
			}
		}
	}

	rowToCol = s.assign
	for j := 1; j <= n; j++ {
		rowToCol[p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		total += cost[i*n+rowToCol[i]]
	}
	return total, rowToCol, true
}

// Solve computes a minimum-cost perfect matching of the n×n cost matrix
// cost (cost[i][j] = weight of assigning row i to column j). It returns
// the total cost and the assignment vector rowToCol where rowToCol[i] is
// the column matched to row i. Costs must be non-negative. An empty
// matrix yields (0, nil).
//
// The matrix must be square; TED* always pads levels to equal size before
// matching (§5.2), so the square case is the only one it needs. Rectangular
// callers can pad with zero rows/columns via SolveRect.
func Solve(cost [][]int64) (total int64, rowToCol []int) {
	n := len(cost)
	if n == 0 {
		return 0, nil
	}
	flat := make([]int64, 0, n*n)
	for _, row := range cost {
		flat = append(flat, row...)
	}
	return SolveFlat(flat, n)
}

// SolveRect handles rectangular matrices by padding the smaller dimension
// with zero-cost dummy rows or columns. Rows matched to dummy columns
// (and vice versa) appear as -1 in the returned assignments.
func SolveRect(cost [][]int64) (total int64, rowToCol []int) {
	rows := len(cost)
	if rows == 0 {
		return 0, nil
	}
	cols := len(cost[0])
	n := rows
	if cols > n {
		n = cols
	}
	sq := make([][]int64, n)
	for i := range sq {
		sq[i] = make([]int64, n)
		if i < rows {
			copy(sq[i], cost[i])
		}
	}
	t, assign := Solve(sq)
	rowToCol = make([]int, rows)
	for i := 0; i < rows; i++ {
		if assign[i] < cols {
			rowToCol[i] = assign[i]
		} else {
			rowToCol[i] = -1
		}
	}
	return t, rowToCol
}

// SolveFlat is Solve for a row-major flattened n×n matrix; it avoids the
// per-row slice headers on hot paths. Semantics match Solve. One-shot
// form of Solver.Solve, which reuses its workspace across calls.
func SolveFlat(cost []int64, n int) (total int64, rowToCol []int) {
	if n == 0 {
		return 0, nil
	}
	var s Solver
	return s.Solve(cost, n)
}

// Greedy computes a (suboptimal) matching by repeatedly taking each row's
// cheapest unused column. It exists only as an ablation baseline showing
// why TED* needs an optimal matcher; its result can exceed the optimum.
func Greedy(cost [][]int64) (total int64, rowToCol []int) {
	n := len(cost)
	rowToCol = make([]int, n)
	usedCol := make([]bool, n)
	for i := 0; i < n; i++ {
		best := -1
		for j := 0; j < n; j++ {
			if usedCol[j] {
				continue
			}
			if best == -1 || cost[i][j] < cost[i][best] {
				best = j
			}
		}
		rowToCol[i] = best
		usedCol[best] = true
		total += cost[i][best]
	}
	return total, rowToCol
}
