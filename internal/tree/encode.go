package tree

import (
	"fmt"
	"strconv"
	"strings"
)

// Encode serializes a tree as a compact single-line string: the
// level-order parent vector, comma-separated, with the root's -1
// omitted (e.g. "0,0,1" is a root, two children, one grandchild).
// A single-node tree encodes as "".
func Encode(t *Tree) string {
	var b []byte
	for i, p := range t.ParentVector()[1:] {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
}

// Decode parses the Encode format back into a tree.
func Decode(s string) (*Tree, error) {
	if strings.TrimSpace(s) == "" {
		return MustNew([]int32{-1}), nil
	}
	parts := strings.Split(s, ",")
	parent := make([]int32, len(parts)+1)
	parent[0] = -1
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("tree: decoding element %d %q: %w", i, p, err)
		}
		parent[i+1] = int32(v)
	}
	t, err := New(parent)
	if err != nil {
		return nil, fmt.Errorf("tree: decoding %q: %w", s, err)
	}
	return t, nil
}

// Stats summarizes a tree's shape: the level-width profile that governs
// TED* cost, plus aggregate counts.
type Stats struct {
	Nodes       int
	Height      int
	Leaves      int
	MaxWidth    int
	LevelWidths []int
	AvgBranch   float64 // mean children per internal node
}

// ComputeStats measures a tree.
func ComputeStats(t *Tree) Stats {
	s := Stats{Nodes: t.Size(), Height: t.Height(), Leaves: t.Leaves()}
	internal := 0
	for v := 0; v < t.Size(); v++ {
		if t.NumChildren(int32(v)) > 0 {
			internal++
		}
	}
	if internal > 0 {
		s.AvgBranch = float64(t.Size()-1) / float64(internal)
	}
	for d := 0; d <= t.Height(); d++ {
		w := t.LevelSize(d)
		s.LevelWidths = append(s.LevelWidths, w)
		if w > s.MaxWidth {
			s.MaxWidth = w
		}
	}
	return s
}
