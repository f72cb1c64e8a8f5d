package ned

import (
	"iter"
	"runtime"

	"ned/internal/ned"
)

// items builds every indexed row of the epoch into an item of its own —
// trees and profiles — in ascending node order (none before
// materialization).
func (e *corpusEpoch) items() iter.Seq[ned.Item] {
	return func(yield func(ned.Item) bool) {
		if e.ix == nil {
			return
		}
		for it := range e.ix.Items() {
			full, _ := e.ix.Item(it.Node)
			if !yield(full) {
				return
			}
		}
	}
}

// itemTables splits node-ascending items into the item tables
// segment.Write takes, as segment.WriteRows splits rows.
func itemTables(items iter.Seq[ned.Item]) [][]ned.Item {
	n := min(runtime.GOMAXPROCS(0), 16)
	tables := make([][]ned.Item, n)
	for it := range items {
		ti := ned.ShardOf(it.Node, n)
		tables[ti] = append(tables[ti], it)
	}
	return tables
}
