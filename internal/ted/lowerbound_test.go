package ted

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ned/internal/tree"
)

func TestLowerBoundIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		a := randomTree(rng, 30, 5)
		b := randomTree(rng, 30, 5)
		lb := LowerBound(a, b)
		d := Distance(a, b)
		if lb > d {
			t.Fatalf("case %d: lower bound %d > distance %d\nA:\n%s\nB:\n%s",
				i, lb, d, a.Pretty(), b.Pretty())
		}
	}
}

func TestLowerBoundExactOnPurePadding(t *testing.T) {
	// Stars differ only in level sizes: the bound is tight.
	if lb, d := LowerBound(tree.Star(3), tree.Star(8)), Distance(tree.Star(3), tree.Star(8)); lb != d {
		t.Errorf("stars: bound %d != distance %d", lb, d)
	}
	if lb := LowerBound(tree.Path(5), tree.Path(5)); lb != 0 {
		t.Errorf("identical paths: bound %d", lb)
	}
}

func TestSizeLowerBoundDominated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTree(rng, 25, 4)
		b := randomTree(rng, 25, 4)
		return max(a.Size()-b.Size(), b.Size()-a.Size()) <= LowerBound(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTree(rng, 25, 4)
		b := randomTree(rng, 25, 4)
		return LowerBound(a, b) == LowerBound(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
