package hungarian

import (
	"math/rand"
	"slices"
	"testing"
)

// refSolveAtMost is the textbook loop Solver.SolveAtMost defers its
// dual updates from: every step scans the free columns, then moves the
// duals of every used column and the slack of every free one by the
// step's delta. Solver.SolveAtMost must return exactly what it does.
func refSolveAtMost(cost []int64, n int, budget int64) (total int64, rowToCol []int, complete bool) {
	if n == 0 {
		return 0, nil, true
	}
	u, v := make([]int64, n+1), make([]int64, n+1)
	p, way := make([]int, n+1), make([]int, n+1)
	minv, used := make([]int64, n+1), make([]bool, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = Inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			base := (i0 - 1) * n
			var delta int64 = Inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[base+j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
		if budget < Inf {
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

	rowToCol = make([]int, n)
	for j := 1; j <= n; j++ {
		rowToCol[p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		total += cost[i*n+rowToCol[i]]
	}
	return total, rowToCol, true
}

// sameSolve requires Solver.SolveAtMost to return exactly what
// refSolveAtMost does on cost at budget.
func sameSolve(t *testing.T, s *Solver, cost []int64, n int, budget int64) {
	t.Helper()
	wantTotal, wantAssign, wantComplete := refSolveAtMost(cost, n, budget)
	gotTotal, gotAssign, gotComplete := s.SolveAtMost(cost, n, budget)
	if gotTotal != wantTotal || gotComplete != wantComplete || !slices.Equal(gotAssign, wantAssign) {
		t.Fatalf("n=%d budget=%d cost=%v: got (%d, %v, %v), the textbook loop (%d, %v, %v)",
			n, budget, cost, gotTotal, gotAssign, gotComplete, wantTotal, wantAssign, wantComplete)
	}
}

// SolveAtMost returns the textbook loop's matching, total and abort
// partial on random matrices: tie-heavy ones of few distinct costs, where
// the order of the scan decides which optimum comes out, and wide-ranged
// ones, at budgets below, at and above the optimum, one Solver recycled
// across sizes.
func TestSolveAtMostMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var s Solver
	for trial := range 20000 {
		n := 1 + rng.Intn(12)
		if trial%50 == 0 {
			n = 13 + rng.Intn(52)
		}
		top := []int{2, 3, 5, 1000}[trial%4]
		cost := randomFlat(rng, n, top)
		opt, _, _ := refSolveAtMost(cost, n, Inf)
		for _, budget := range []int64{Inf, opt, opt - 1, rng.Int63n(opt + 2)} {
			sameSolve(t, &s, cost, n, budget)
		}
	}
}

// FuzzSolveAtMost: on any matrix of costs below 2¹⁶ and any budget,
// SolveAtMost returns exactly what the textbook loop does.
func FuzzSolveAtMost(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 2, 0, 1, 1, 1, 0}, int64(1))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0}, int64(-1))
	f.Add([]byte{5, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, int64(20))
	f.Add([]byte{4, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, int64(Inf))
	var s Solver
	f.Fuzz(func(t *testing.T, b []byte, budget int64) {
		if len(b) == 0 {
			return
		}
		n := int(b[0])%24 + 1
		cost := make([]int64, n*n)
		for i := range cost {
			if j := 1 + 2*i; j+1 < len(b) {
				cost[i] = int64(b[j]) | int64(b[j+1])<<8
			} else if j < len(b) {
				cost[i] = int64(b[j])
			}
		}
		sameSolve(t, &s, cost, n, min(max(budget, -1), Inf))
	})
}
