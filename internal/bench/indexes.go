package bench

import (
	"context"
	"fmt"
	"math/rand"

	"ned/internal/datasets"
	"ned/internal/ned"
)

// AblationIndexes compares the nearest-neighbor query paths this library
// offers on the same NED workload: the exhaustive full scan (ned.TopL,
// one unbudgeted TED* per candidate), then the cascade scan, the VP-tree
// and the BK-tree behind the unified ned.Index interface the Corpus
// query engine serves from. The table reports per-query time and metric
// evaluations. The optimum each row is held to is the cascade scan's,
// which is exact: the full scan, timed on the first scanQueries queries
// as Fig. 9b times it, checks that on those, and the other rows count
// any optimum misses they incur (the metric trees can, from TED*
// triangle-tie artifacts — see the ted package faithfulness note)
// instead of asserting equality.
func AblationIndexes(o Options) Table {
	o.defaults()
	t := Table{
		Title: "Ablation: NN query backends over NED (per-query mean)",
		Note: fmt.Sprintf("%d candidates, %d queries, PGP analog, k=3; full scan timed on the first %d of them",
			o.Candidates, o.Queries, min(scanQueries, o.Queries)),
		Header: []string{"backend", "time (ms)", "TED* evals/query", "optimum misses"},
	}
	g1 := o.dataset(datasets.PGP)
	g2 := datasets.MustGenerate(datasets.PGP, datasets.Options{Scale: o.Scale, Seed: o.Seed + 999})
	rng := rand.New(rand.NewSource(o.Seed + 61))
	queries := sampleNodes(g1, o.Queries, rng)
	cands := sampleNodes(g2, o.Candidates, rng)
	qs := ned.Signatures(g1, queries, 3)
	cs := ned.Signatures(g2, cands, 3)

	ctx := context.Background()
	items, dict := ned.ProfileSignatures(cs)
	var best []int // the cascade scan's nearest distance per query
	var rows [][]string
	for _, b := range []struct {
		name string
		ix   ned.Index
	}{
		{"pruned scan", ned.NewPrunedLinearBackend(items)},
		{"VP-tree", ned.NewVPBackend(items)},
		{"BK-tree", ned.NewBKBackend(items)},
	} {
		b.ix.ResetStats()
		var w stopwatch
		misses, first := 0, best == nil
		for i, q := range qs {
			var res []ned.Neighbor
			w.time(func() { res, _ = b.ix.KNN(ctx, ned.QueryItem(q, dict), 1) })
			if first {
				best = append(best, res[0].Dist)
			} else if res[0].Dist != best[i] {
				misses++
			}
		}
		rows = append(rows, []string{b.name, ms(w.mean()),
			fmt.Sprint(b.ix.DistanceCalls() / int64(len(qs))), fmt.Sprint(misses)})
	}

	var w stopwatch
	misses := 0
	for i, q := range qs[:min(scanQueries, len(qs))] {
		var d int
		w.time(func() { d = ned.TopL(q, cs, 1)[0].Dist })
		if d != best[i] {
			misses++
		}
	}
	t.AddRow("full scan", ms(w.mean()), fmt.Sprint(len(cs)), fmt.Sprint(misses))
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}
