package ned_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§13) at smoke-test scale. Each benchmark runs the same
// harness code that cmd/nedbench drives at paper scale, so `go test
// -bench=.` exercises the full experiment matrix quickly while
// `nedbench` prints the paper-shaped tables. The per-op time reported by
// a benchmark is the wall time of one full experiment at Quick scale.

import (
	"testing"

	"ned"
	"ned/internal/bench"
	"ned/internal/datasets"
)

// quick returns the smoke-test options shared by all benchmarks.
func quick() bench.Options { return bench.Quick() }

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table2(quick())
		if len(t.Rows) != 6 {
			b.Fatalf("Table 2 rows = %d, want 6", len(t.Rows))
		}
	}
}

func BenchmarkFigure5aComparisonTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tt, _ := bench.Figure5(quick())
		if len(tt.Rows) == 0 {
			b.Fatal("Figure 5a produced no rows")
		}
	}
}

func BenchmarkFigure5bDistanceValues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, tv := bench.Figure5(quick())
		if len(tv.Rows) == 0 {
			b.Fatal("Figure 5b produced no rows")
		}
	}
}

func BenchmarkFigure6aRelativeError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure6(quick())
		if len(t.Rows) == 0 {
			b.Fatal("Figure 6 produced no rows")
		}
	}
}

func BenchmarkFigure6bEquivalencyRatio(b *testing.B) {
	// Figure 6b shares Figure 6's computation; the equivalency column is
	// asserted non-degenerate here.
	for i := 0; i < b.N; i++ {
		t := bench.Figure6(quick())
		for _, row := range t.Rows {
			if row[3] == "" {
				b.Fatal("missing equivalency ratio")
			}
		}
	}
}

func BenchmarkFigure7aTEDStarByTreeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure7a(quick())
		if len(t.Rows) == 0 {
			b.Fatal("Figure 7a produced no rows")
		}
	}
}

func BenchmarkFigure7bNEDByK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure7b(quick())
		if len(t.Rows) != 8 {
			b.Fatalf("Figure 7b rows = %d, want 8 (k=1..8)", len(t.Rows))
		}
	}
}

func BenchmarkFigure8aNNSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure8(quick(), 10)
		if len(t.Rows) != 6 {
			b.Fatalf("Figure 8 rows = %d, want 6 (k=1..6)", len(t.Rows))
		}
	}
}

func BenchmarkFigure8bTopLTies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure8(quick(), 10)
		for _, row := range t.Rows {
			if row[2] == "" {
				b.Fatal("missing ties column")
			}
		}
	}
}

func BenchmarkFigure9aSimilarityComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure9a(quick())
		if len(t.Rows) != 6 {
			b.Fatalf("Figure 9a rows = %d, want 6", len(t.Rows))
		}
	}
}

func BenchmarkFigure9bNNQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure9b(quick())
		if len(t.Rows) != 6 {
			b.Fatalf("Figure 9b rows = %d, want 6", len(t.Rows))
		}
	}
}

func BenchmarkFigure10aDeanonPGP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure10(quick(), datasets.PGP, 5, 0.01)
		if len(t.Rows) != 3 {
			b.Fatalf("Figure 10a rows = %d, want 3 schemes", len(t.Rows))
		}
	}
}

func BenchmarkFigure10bDeanonDBLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure10(quick(), datasets.DBLP, 10, 0.05)
		if len(t.Rows) != 3 {
			b.Fatalf("Figure 10b rows = %d, want 3 schemes", len(t.Rows))
		}
	}
}

func BenchmarkFigure11aPermutationRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure11a(quick())
		if len(t.Rows) != 4 {
			b.Fatalf("Figure 11a rows = %d, want 4 ratios", len(t.Rows))
		}
	}
}

func BenchmarkFigure11bTopL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure11b(quick())
		if len(t.Rows) != 5 {
			b.Fatalf("Figure 11b rows = %d, want 5 values of l", len(t.Rows))
		}
	}
}

func BenchmarkAppendixHausdorff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AppendixHausdorff(quick())
		if len(t.Rows) != 5 {
			b.Fatalf("Hausdorff rows = %d, want 5 pairs", len(t.Rows))
		}
	}
}

func BenchmarkAblationMatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationMatching(quick())
		if len(t.Rows) != 3 {
			b.Fatalf("ablation rows = %d, want 3 widths", len(t.Rows))
		}
	}
}

func BenchmarkAblationIndexes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.AblationIndexes(quick())
		if len(t.Rows) != 4 {
			b.Fatalf("index ablation rows = %d, want 4 strategies", len(t.Rows))
		}
	}
}

func BenchmarkExtensionDirectedNED(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.ExtensionDirected(quick())
		if len(t.Rows) != 4 {
			b.Fatalf("directed rows = %d, want 4 (k=1..4)", len(t.Rows))
		}
	}
}

func BenchmarkExtensionWeightedTEDStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.ExtensionWeighted(quick())
		if len(t.Rows) == 0 {
			b.Fatal("weighted extension produced no rows")
		}
	}
}

// Micro-benchmarks of the core primitives, for profiling regressions.

func BenchmarkCoreTEDStar100(b *testing.B) {
	g := ned.MustGenerateDataset(ned.DatasetDBLP, ned.DatasetOptions{Scale: 0.25, Seed: 2})
	t1 := ned.KAdjacentTree(g, 1, 2)
	t2 := ned.KAdjacentTree(g, 2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ned.TEDStar(t1, t2)
	}
}

func BenchmarkCoreNEDRoadK5(b *testing.B) {
	g1 := ned.MustGenerateDataset(ned.DatasetCAR, ned.DatasetOptions{Scale: 0.25, Seed: 2})
	g2 := ned.MustGenerateDataset(ned.DatasetPAR, ned.DatasetOptions{Scale: 0.25, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ned.Distance(g1, ned.NodeID(i%g1.NumNodes()), g2, ned.NodeID(i%g2.NumNodes()), 5)
	}
}

func BenchmarkCoreSignatureExtraction(b *testing.B) {
	g := ned.MustGenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: 0.5, Seed: 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ned.NewSignature(g, ned.NodeID(i%g.NumNodes()), 3)
	}
}
