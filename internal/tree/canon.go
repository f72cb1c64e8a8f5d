package tree

import (
	"sort"
	"strings"
)

// Canonical returns the AHU canonical encoding of the unordered tree: a
// parenthesization in which each node's child encodings are sorted, so
// two trees are isomorphic iff their encodings are equal. The encoding
// is derived once per tree and cached (TED*'s canonical pair
// orientation consults it on every same-size, same-height comparison),
// so repeated queries against the same signatures never re-derive it.
//
// This is the test oracle for TED* identity (δ = 0 iff isomorphic, §7.1)
// and for Lemma 1's canonization-label semantics.
func Canonical(t *Tree) string {
	t.canonOnce.Do(func() {
		t.canon = computeCanonical(t)
		t.canonSet.Store(true)
	})
	return t.canon
}

// CanonicalUncached is Canonical derived afresh and not cached on t:
// for a tree that must not grow by being compared, such as an indexed
// row's.
func CanonicalUncached(t *Tree) string {
	if t.canonSet.Load() {
		return t.canon
	}
	return computeCanonical(t)
}

// computeCanonical derives the AHU encoding in O(n log n) amortized.
func computeCanonical(t *Tree) string {
	enc := make([]string, t.Size())
	// Level order guarantees children have larger IDs, so a reverse
	// sweep sees every child before its parent.
	for v := t.Size() - 1; v >= 0; v-- {
		kids := t.Children(int32(v))
		if len(kids) == 0 {
			enc[v] = "()"
			continue
		}
		parts := make([]string, len(kids))
		for i, c := range kids {
			parts[i] = enc[c]
		}
		sort.Strings(parts)
		var sb strings.Builder
		sb.Grow(2 + len(parts)*2)
		sb.WriteByte('(')
		for _, p := range parts {
			sb.WriteString(p)
		}
		sb.WriteByte(')')
		enc[v] = sb.String()
	}
	return enc[0]
}

// Isomorphic reports whether two unordered rooted trees are isomorphic
// with roots corresponding.
func Isomorphic(a, b *Tree) bool {
	if a.Size() != b.Size() || a.Height() != b.Height() {
		return false
	}
	return Canonical(a) == Canonical(b)
}

// CanonicalLabels assigns every node an integer such that two nodes carry
// equal labels iff their subtrees are isomorphic (Definition 5 applied to
// the whole tree at once). Labels are dense and deterministic. This is
// the whole-tree counterpart of the per-level canonization inside TED*.
func CanonicalLabels(t *Tree) []int32 {
	labels := make([]int32, t.Size())
	codes := map[string]int32{}
	enc := make([]string, t.Size())
	for v := t.Size() - 1; v >= 0; v-- {
		kids := t.Children(int32(v))
		parts := make([]string, len(kids))
		for i, c := range kids {
			parts[i] = enc[c]
		}
		sort.Strings(parts)
		key := "(" + strings.Join(parts, "") + ")"
		enc[v] = key
		id, ok := codes[key]
		if !ok {
			id = int32(len(codes))
			codes[key] = id
		}
		labels[v] = id
	}
	return labels
}
