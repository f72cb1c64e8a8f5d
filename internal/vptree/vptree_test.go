package vptree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// point is a 2-D vector with L1 distance — an exact metric, so VP-tree
// results must match a linear scan bit-for-bit.
type point struct{ x, y float64 }

func l1(a, b point) float64 {
	return math.Abs(a.x-b.x) + math.Abs(a.y-b.y)
}

func randomPoints(rng *rand.Rand, n int) []point {
	pts := make([]point, n)
	for i := range pts {
		pts[i] = point{rng.Float64() * 100, rng.Float64() * 100}
	}
	return pts
}

func scanKNN(pts []point, q point, k int) []float64 {
	ds := make([]float64, len(pts))
	for i, p := range pts {
		ds[i] = l1(q, p)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestKNNMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		pts := randomPoints(rng, 1+rng.Intn(300))
		tr := New(pts, l1)
		for q := 0; q < 10; q++ {
			query := point{rng.Float64() * 100, rng.Float64() * 100}
			k := 1 + rng.Intn(10)
			got := tr.KNN(query, k)
			want := scanKNN(pts, query, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i]) > 1e-9 {
					t.Fatalf("trial %d: result %d dist %v, want %v", trial, i, got[i].Dist, want[i])
				}
			}
			// Ascending order.
			for i := 1; i < len(got); i++ {
				if got[i].Dist < got[i-1].Dist {
					t.Fatal("KNN results not sorted")
				}
			}
		}
	}
}

func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 400)
	tr := New(pts, l1)
	for trial := 0; trial < 20; trial++ {
		query := point{rng.Float64() * 100, rng.Float64() * 100}
		r := rng.Float64() * 30
		got := tr.Range(query, r)
		want := 0
		for _, p := range pts {
			if l1(query, p) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: range returned %d, scan found %d", trial, len(got), want)
		}
		for _, res := range got {
			if res.Dist > r {
				t.Fatalf("range result at distance %v > radius %v", res.Dist, r)
			}
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	empty := New(nil, l1)
	if res := empty.KNN(point{}, 3); res != nil {
		t.Error("empty tree KNN should be nil")
	}
	if res := empty.Range(point{}, 5); res != nil {
		t.Error("empty tree Range should be nil")
	}
	one := New([]point{{1, 1}}, l1)
	res := one.KNN(point{0, 0}, 5)
	if len(res) != 1 || res[0].Dist != 2 {
		t.Errorf("single-point KNN = %+v", res)
	}
	if one.Len() != 1 {
		t.Errorf("Len = %d", one.Len())
	}
}

func TestKNNZeroK(t *testing.T) {
	tr := New([]point{{1, 2}}, l1)
	if res := tr.KNN(point{}, 0); res != nil {
		t.Error("k=0 should return nil")
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []point{{5, 5}, {5, 5}, {5, 5}, {1, 1}}
	tr := New(pts, l1)
	res := tr.KNN(point{5, 5}, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 0; i < 3; i++ {
		if res[i].Dist != 0 {
			t.Errorf("duplicate point at distance %v", res[i].Dist)
		}
	}
}

func TestDistanceCallsSavedVsScan(t *testing.T) {
	// With a well-behaved metric, the VP-tree should evaluate far fewer
	// distances than a scan on clustered data.
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 2000)
	tr := New(pts, l1)
	tr.ResetStats()
	queries := 50
	for q := 0; q < queries; q++ {
		tr.KNN(point{rng.Float64() * 100, rng.Float64() * 100}, 1)
	}
	perQuery := tr.DistanceCalls() / int64(queries)
	if perQuery >= int64(len(pts)) {
		t.Errorf("VP-tree evaluated %d distances/query, no better than a %d-point scan",
			perQuery, len(pts))
	}
}

func TestDeterministicBuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 100)
		t1 := New(pts, l1)
		t2 := New(pts, l1)
		q := point{50, 50}
		a := t1.KNN(q, 5)
		b := t2.KNN(q, 5)
		for i := range a {
			if a[i].Dist != b[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegerMetric(t *testing.T) {
	// Integer-valued metrics (like TED*) must work unchanged.
	ints := []int{0, 3, 7, 12, 40, 41, 42}
	tr := New(ints, func(a, b int) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return float64(d)
	})
	res := tr.KNN(40, 3)
	if res[0].Item != 40 || res[0].Dist != 0 {
		t.Errorf("nearest to 40 = %+v", res[0])
	}
	if res[1].Dist != 1 || res[2].Dist != 2 {
		t.Errorf("next nearest distances = %v, %v", res[1].Dist, res[2].Dist)
	}
}
