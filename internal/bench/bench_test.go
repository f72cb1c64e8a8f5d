package bench

import (
	"strings"
	"testing"
	"time"

	"ned/internal/datasets"
)

func tiny() Options {
	return Options{Scale: 0.1, Pairs: 10, Queries: 5, Candidates: 40, Seed: 1}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:  "Demo",
		Note:   "note line",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.String()
	for _, want := range []string{"== Demo ==", "note line", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestStopwatch(t *testing.T) {
	var w stopwatch
	w.time(func() { time.Sleep(time.Millisecond) })
	w.time(func() { time.Sleep(time.Millisecond) })
	if w.n != 2 {
		t.Errorf("n = %d", w.n)
	}
	if w.mean() < 500*time.Microsecond {
		t.Errorf("mean %v too small", w.mean())
	}
	var empty stopwatch
	if empty.mean() != 0 {
		t.Error("empty stopwatch mean should be 0")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if std < 1.99 || std > 2.01 {
		t.Errorf("std = %v, want 2", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty meanStd should be zero")
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2(tiny())
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if len(row) != 5 {
			t.Fatalf("row width = %d, want 5", len(row))
		}
	}
}

func TestFigure5And6Shapes(t *testing.T) {
	o := tiny()
	tt, tv := Figure5(o)
	if len(tt.Rows) == 0 || len(tv.Rows) == 0 {
		t.Fatal("Figure 5 produced empty tables")
	}
	t6 := Figure6(o)
	if len(t6.Rows) == 0 {
		t.Fatal("Figure 6 empty")
	}
}

func TestFigure7Shapes(t *testing.T) {
	o := tiny()
	if tb := Figure7a(o); len(tb.Rows) == 0 {
		t.Error("Figure 7a empty")
	}
	if tb := Figure7b(o); len(tb.Rows) != 8 {
		t.Errorf("Figure 7b rows = %d, want 8", len(tb.Rows))
	}
}

func TestFigure8Shape(t *testing.T) {
	tb := Figure8(tiny(), 5)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
}

func TestFigure10Shape(t *testing.T) {
	tb := Figure10(tiny(), datasets.PGP, 5, 0.01)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
	// Precisions parse as numbers within [0, 1].
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if !strings.HasPrefix(cell, "0") && !strings.HasPrefix(cell, "1") {
				t.Errorf("precision cell %q out of range", cell)
			}
		}
	}
}

func TestFigure9Shapes(t *testing.T) {
	o := tiny()
	t9a := Figure9a(o)
	if len(t9a.Rows) != 6 {
		t.Fatalf("Figure 9a rows = %d, want 6", len(t9a.Rows))
	}
	t9b := Figure9b(o)
	if len(t9b.Rows) != 6 {
		t.Fatalf("Figure 9b rows = %d, want 6", len(t9b.Rows))
	}
}

func TestFigure11Shapes(t *testing.T) {
	o := tiny()
	if tb := Figure11a(o); len(tb.Rows) != 4 {
		t.Errorf("Figure 11a rows = %d, want 4", len(tb.Rows))
	}
	if tb := Figure11b(o); len(tb.Rows) != 5 {
		t.Errorf("Figure 11b rows = %d, want 5", len(tb.Rows))
	}
}

func TestHausdorffShape(t *testing.T) {
	if tb := AppendixHausdorff(tiny()); len(tb.Rows) != 5 {
		t.Errorf("Hausdorff rows = %d, want 5", len(tb.Rows))
	}
}

func TestExtensionShapes(t *testing.T) {
	o := tiny()
	if tb := ExtensionDirected(o); len(tb.Rows) != 4 {
		t.Errorf("directed rows = %d, want 4", len(tb.Rows))
	}
	if tb := ExtensionWeighted(o); len(tb.Rows) == 0 {
		t.Error("weighted extension empty")
	}
	tb := AblationIndexes(o)
	if len(tb.Rows) != 4 {
		t.Fatalf("index ablation rows = %d, want 4", len(tb.Rows))
	}
	// The full scan is exhaustive and finds the cascade scan's optimum on
	// every query it times.
	if full := tb.Rows[0]; full[0] != "full scan" || full[2] != "40" || full[3] != "0" {
		t.Errorf("reference row = %v, want a full scan at 40 evals/query with 0 misses", full)
	}
	if pruned := tb.Rows[1]; pruned[0] != "pruned scan" || pruned[3] != "0" {
		t.Errorf("second row = %v, want a pruned scan with 0 misses", pruned)
	}
}

func TestAblationShape(t *testing.T) {
	tb := AblationMatching(tiny())
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tb.Rows))
	}
}

func TestCapGraph(t *testing.T) {
	g := datasets.MustGenerate(datasets.GNU, datasets.Options{Scale: 0.2, Seed: 1})
	capped := capGraph(g, 50)
	if capped.NumNodes() > 50 {
		t.Errorf("capGraph returned %d nodes, want <= 50", capped.NumNodes())
	}
	same := capGraph(g, g.NumNodes()+10)
	if same != g {
		t.Error("capGraph should return the graph unchanged when under the cap")
	}
}
