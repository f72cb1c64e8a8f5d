// Package ted implements TED*, the modified tree edit distance that is
// the primary contribution of the NED paper (§4–5): a polynomially
// computable metric on unordered, unlabeled rooted trees whose edit
// operations — insert a leaf, delete a leaf, move a node within its level
// — never change the depth of an existing node.
//
// The algorithm follows the paper's Algorithm 1 exactly: levels are
// processed bottom-up; each level contributes a padding cost P_i (leaf
// inserts/deletes) and a matching cost M_i = (m(G²_i) − P_{i+1})/2 (moves),
// where m(G²_i) is a minimum-weight bipartite matching between the two
// levels under children-label symmetric-difference weights. The overall
// complexity is O(k·n³) with k the tree height and n the maximum level
// width, dominated by the Hungarian matching.
//
// Level convention: depth 0 is the root (the paper's level 1), so the
// k-adjacent tree T(v,k) spans depths 0..k.
//
// # Faithfulness note
//
// Definition 3 of the paper (the minimum number of edit operations) is a
// true metric: the §7 proofs go through for any minimum-edit-script
// distance with reversible operations. Algorithm 1, however, commits to
// one minimum-weight bipartite matching per level, and when several
// optimal matchings exist the re-canonization outcome — and therefore the
// final value — depends on which one the solver returns. The value is
// always the cost of a concrete valid edit script, hence an upper bound
// on the Definition-3 optimum, and it coincides with the optimum in the
// overwhelming majority of cases (quantified against the exhaustive
// oracle in internal/exact; see EXPERIMENTS.md), but exact triangle
// inequality and the Lemma-5 monotonicity can be violated at a sub-percent
// rate by tie artifacts. This library makes the computed function
// deterministic and exactly symmetric by evaluating every pair in a
// canonical orientation; identity (zero iff isomorphic) holds exactly.
package ted

import (
	"fmt"

	"ned/internal/tree"
)

// LevelCost records the two cost components contributed by one depth of
// the comparison, making a TED* value interpretable as an edit script
// summary: Padding leaf-insert/delete operations and Matching move
// operations (§5.1).
type LevelCost struct {
	Depth    int
	Padding  int // P_i: number of "insert a leaf" / "delete a leaf" ops
	Matching int // M_i: number of "move a node at the same level" ops
}

// Report is the full breakdown of a TED* computation.
type Report struct {
	Distance int
	Levels   []LevelCost
}

// Distance returns the TED* distance between two unordered trees. The
// pair is evaluated in a canonical orientation (smaller tree first, ties
// broken by height then AHU encoding), which makes the function exactly
// symmetric and independent of argument order.
//
// Distance borrows a pooled Computer; hot loops that can hold one per
// worker should use Computer.Distance directly.
func Distance(t1, t2 *tree.Tree) int {
	c := computerPool.Get().(*Computer)
	d := c.Distance(t1, t2)
	computerPool.Put(c)
	return d
}

// DistanceOrdered runs Algorithm 1 on the pair exactly as given, without
// the canonical reorientation of Distance. Use it when a sweep must keep
// a fixed transformation direction (for example the Lemma-5 monotonicity
// experiments, which truncate the same oriented pair at increasing k).
// Under matching ties DistanceOrdered(a,b) may differ slightly from
// DistanceOrdered(b,a); both are valid edit-script costs.
func DistanceOrdered(t1, t2 *tree.Tree) int {
	c := computerPool.Get().(*Computer)
	d := c.DistanceOrdered(t1, t2)
	computerPool.Put(c)
	return d
}

// DistanceReport returns the TED* distance together with the per-level
// padding/matching breakdown, in the same canonical orientation used by
// Distance.
func DistanceReport(t1, t2 *tree.Tree) Report {
	t1, t2 = orient(t1, t2)
	_, rep := compute(t1, t2)
	return rep
}

// orient returns the pair in canonical order: by size, then height, then
// AHU canonical encoding. Equal trees compare equal on all three keys, in
// which case order is irrelevant (the computation is deterministic).
func orient(t1, t2 *tree.Tree) (*tree.Tree, *tree.Tree) {
	switch {
	case t1.Size() != t2.Size():
		if t1.Size() > t2.Size() {
			return t2, t1
		}
	case t1.Height() != t2.Height():
		if t1.Height() > t2.Height() {
			return t2, t1
		}
	default:
		if tree.Canonical(t1) > tree.Canonical(t2) {
			return t2, t1
		}
	}
	return t1, t2
}

// Weights supplies per-depth operation weights for the weighted TED* of
// §12: Pad(d) is the cost of inserting or deleting a leaf at depth d and
// Move(d) the cost of moving a node whose matching happens at depth d.
// Both must be strictly positive for the result to remain a metric
// (Lemma 6).
type Weights interface {
	Pad(depth int) float64
	Move(depth int) float64
}

// UnitWeights reproduces the unweighted TED* (every operation costs 1).
type UnitWeights struct{}

// Pad implements Weights.
func (UnitWeights) Pad(int) float64 { return 1 }

// Move implements Weights.
func (UnitWeights) Move(int) float64 { return 1 }

// UpperBoundWeights is the δT(W+) weighting of Definition 8 (w¹_i = 1,
// w²_i = 4i with the paper's 1-based level index), which upper-bounds the
// original unordered tree edit distance (Lemma 7).
type UpperBoundWeights struct{}

// Pad implements Weights.
func (UpperBoundWeights) Pad(int) float64 { return 1 }

// Move implements Weights. The paper indexes levels from 1 at the root;
// depth d is level d+1.
func (UpperBoundWeights) Move(depth int) float64 { return 4 * float64(depth+1) }

// LevelWeights is a Weights backed by explicit per-depth slices; depths
// beyond the slice reuse the last entry.
type LevelWeights struct {
	PadW  []float64
	MoveW []float64
}

// Pad implements Weights.
func (w LevelWeights) Pad(d int) float64 { return at(w.PadW, d) }

// Move implements Weights.
func (w LevelWeights) Move(d int) float64 { return at(w.MoveW, d) }

func at(s []float64, d int) float64 {
	if len(s) == 0 {
		return 1
	}
	if d >= len(s) {
		d = len(s) - 1
	}
	return s[d]
}

// WeightedDistance returns the weighted TED* δT(W) of §12, evaluated in
// the same canonical orientation as Distance. With UnitWeights it equals
// float64(Distance(t1, t2)).
func WeightedDistance(t1, t2 *tree.Tree, w Weights) float64 {
	if w == nil {
		w = UnitWeights{}
	}
	t1, t2 = orient(t1, t2)
	d, _ := computeWeighted(t1, t2, w)
	return d
}

// compute runs Algorithm 1 and returns the integer distance plus report.
// The matching machinery itself — children collections, canonization,
// equal-label pre-match, and the budgeted level sweep — lives on
// Computer (computer.go); this wrapper only arranges the report.
func compute(t1, t2 *tree.Tree) (int, Report) {
	c := computerPool.Get().(*Computer)
	rep := Report{}
	total, _ := c.run(t1, t2, int64(Unbounded), &rep)
	computerPool.Put(c)
	// Report levels in root-down order for readability.
	for i, j := 0, len(rep.Levels)-1; i < j; i, j = i+1, j-1 {
		rep.Levels[i], rep.Levels[j] = rep.Levels[j], rep.Levels[i]
	}
	rep.Distance = total
	return total, rep
}

func computeWeighted(t1, t2 *tree.Tree, w Weights) (float64, Report) {
	c := computerPool.Get().(*Computer)
	rep := Report{}
	c.run(t1, t2, int64(Unbounded), &rep)
	computerPool.Put(c)
	total := 0.0
	for _, lc := range rep.Levels {
		total += w.Pad(lc.Depth)*float64(lc.Padding) + w.Move(lc.Depth)*float64(lc.Matching)
	}
	rep.Distance = int(total)
	return total, rep
}

func equalCollections(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// symmetricDifference returns |A\B| + |B\A| for sorted multisets
// (Algorithm 3 line 6) via a linear merge.
func symmetricDifference(a, b []int32) int64 {
	i, j := 0, 0
	var diff int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			diff++
			i++
		default:
			diff++
			j++
		}
	}
	return diff + int64(len(a)-i) + int64(len(b)-j)
}

// Validate cross-checks a Report for internal consistency; used by tests
// and fuzzing harnesses.
func (r Report) Validate() error {
	sum := 0
	for _, lc := range r.Levels {
		if lc.Padding < 0 || lc.Matching < 0 {
			return fmt.Errorf("ted: negative cost at depth %d: %+v", lc.Depth, lc)
		}
		sum += lc.Padding + lc.Matching
	}
	if sum != r.Distance {
		return fmt.Errorf("ted: level costs sum to %d, distance is %d", sum, r.Distance)
	}
	return nil
}
