package tree

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode exercises the tree parser with arbitrary inputs: it must
// either return an error or a tree that re-validates and round-trips.
func FuzzDecode(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("0,0,1")
	f.Add("0,0,1,1,2,2,3")
	f.Add("-1")
	f.Add("0,,1")
	f.Add("0,999")
	// Level order but not BFS order: children of a level's later
	// nodes come before those of its earlier ones.
	f.Add("0,0,2,1")
	f.Add("0,0,2,2,1,4,3")
	f.Add("0,1,1,0")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := Decode(s)
		if parent, ok := parseParents(s); ok {
			// Accepts exactly what the depth-array validator accepted.
			checkAgainstReference(t, parent)
		}
		if err != nil {
			return
		}
		if _, err := New(tr.ParentVector()); err != nil {
			t.Fatalf("Decode(%q) produced invalid tree: %v", s, err)
		}
		back, err := Decode(Encode(tr))
		if err != nil {
			t.Fatalf("re-decoding %q failed: %v", Encode(tr), err)
		}
		if back.Size() != tr.Size() {
			t.Fatalf("round trip changed size for %q", s)
		}
	})
}

// parseParents parses the Encode format without validating the tree;
// ok is false when an element is not an int32.
func parseParents(s string) ([]int32, bool) {
	parent := []int32{-1}
	if strings.TrimSpace(s) == "" {
		return parent, true
	}
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, false
		}
		parent = append(parent, int32(v))
	}
	return parent, true
}
