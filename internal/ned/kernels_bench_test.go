package ned

import (
	"slices"
	"testing"

	"ned/internal/graph"
	"ned/internal/ted"
	"ned/internal/tree"
)

// BenchmarkCascadeKernels isolates the filter-tier cost per candidate:
// the size and padding bounds of the columnar block kernels, the
// evaluation order by counting sort versus a comparison sort, the
// survivor bitmap, and the per-candidate degree tier through profiles
// and from the degree column. The scans' wall-clock win (BenchmarkCorpusKNN) mixes filter
// and verify work; this is the filter side alone, in ns per candidate.
// CI runs it at -benchtime=1x as a compile-and-smoke gate; the harness
// reads the block sweep at serving size as ned.sweep_ns_per_candidate.
func BenchmarkCascadeKernels(b *testing.B) {
	const nItems, k = 400, 2
	g := randomTestGraph(nItems, 2*nItems+nItems/2, 77)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	dict := tree.NewInterner()
	items := BuildProfiledItems(g, nodes, k, false, dict, 0)
	blk := compileBlock(items)
	q := NewItem(randomTestGraph(nItems/2, nItems, 78), 0, k, false)
	ProfileItem(&q, dict)

	n := len(items)
	perCand := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cand")
	}
	sizeB, padB := make([]int32, n), make([]int32, n)

	b.Run("bounds/block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blk.bounds(q, 0, int32(n), sizeB, padB)
		}
		perCand(b)
	})

	blk.bounds(q, 0, int32(n), sizeB, padB)
	rows := make([]int32, n)
	for r := range rows {
		rows[r] = int32(r)
	}
	var order, counts []int32
	b.Run("order/counting", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order, counts = orderBy(rows, padB, order, counts)
		}
		perCand(b)
	})
	b.Run("order/comparison", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order := slices.Clone(rows)
			slices.SortFunc(order, func(a, c int32) int {
				if padB[a] != padB[c] {
					return int(padB[a] - padB[c])
				}
				return int(a - c)
			})
		}
		perCand(b)
	})

	words := make([]uint64, (n+63)/64)
	b.Run("filter/bitmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tierFilterBlock(sizeB, padB, 4, words)
		}
		perCand(b)
	})

	// Unbounded, tier 2 walks every level of both trees — the most one
	// candidate can cost it — read through the items' profiles (the tree
	// backends' gate) or from the block's degree column (the scans).
	b.Run("degreetier/profiles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				degreeTierPrunes(q, items[j], paddingBound(q, items[j]), ted.Unbounded)
			}
		}
		perCand(b)
	})
	b.Run("degreetier/column", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := int32(0); r < int32(n); r++ {
				blk.degreeTierPrunes(q, r, int(padB[r]), ted.Unbounded)
			}
		}
		perCand(b)
	})
}
