package bench

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"ned/internal/datasets"
	"ned/internal/deanon"
	"ned/internal/graph"
	"ned/internal/ned"
)

func allNodes(g *graph.Graph) []graph.NodeID {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

// TestEngineRankingMatchesExhaustive pins Figs. 8, 10 and 11 to the
// exhaustive reference over the same whole-graph pool: every query's
// Corpus top-l is node-identical to ned.TopL, every Corpus NearestSet
// equals ned.NearestSet, and each printed cell equals the value the
// exhaustive ranking gives.
func TestEngineRankingMatchesExhaustive(t *testing.T) {
	for _, run := range []struct {
		name string
		o    Options
	}{{"tiny", tiny()}, {"quick", Quick()}} {
		o := run.o
		t.Run(run.name+"/fig8", func(t *testing.T) { checkFigure8(t, o) })
		t.Run(run.name+"/fig10-PGP", func(t *testing.T) {
			train := o.dataset(datasets.PGP)
			checkDeanon(t, Figure10(o, datasets.PGP, 5, 0.01), train, figure10Cases(o, train, 5, 0.01))
		})
		t.Run(run.name+"/fig10-DBLP", func(t *testing.T) {
			train := o.dataset(datasets.DBLP)
			checkDeanon(t, Figure10(o, datasets.DBLP, 10, 0.05), train, figure10Cases(o, train, 10, 0.05))
		})
		t.Run(run.name+"/fig11", func(t *testing.T) {
			train := o.dataset(datasets.PGP)
			checkDeanon(t, Figure11a(o), train, figure11aCases(o, train))
			checkDeanon(t, Figure11b(o), train, figure11bCases(o, train))
		})
	}
}

func checkFigure8(t *testing.T, o Options) {
	const topL = 10
	tb := Figure8(o, topL)
	ga, gb, queries := figure8Workload(o)
	ctx := context.Background()
	for k := 1; k <= 6; k++ {
		c := wholeGraph(gb, k)
		pool := ned.Signatures(gb, allNodes(gb), k)
		var sumNN, sumTies float64
		for _, q := range ned.Signatures(ga, queries, k) {
			wantNN := ned.NearestSet(q, pool)
			if got := must(c.NearestSet(ctx, q)); !slices.Equal(got, wantNN) {
				t.Errorf("k=%d query %d: NearestSet %v, exhaustive %v", k, q.Node, got, wantNN)
			}
			want := ned.TopL(q, pool, topL)
			if got := must(c.KNNSignature(ctx, q, topL)); !slices.Equal(got, want) {
				t.Errorf("k=%d query %d: top-%d %v, exhaustive %v", k, q.Node, topL, got, want)
			}
			sumNN += float64(len(wantNN))
			sumTies += float64(ned.Ties(want))
		}
		n := float64(len(queries))
		want := []string{fmt.Sprint(k), fmt.Sprintf("%.1f", sumNN/n), fmt.Sprintf("%.1f", sumTies/n)}
		if !slices.Equal(tb.Rows[k-1], want) {
			t.Errorf("Figure 8 row %v, exhaustive %v", tb.Rows[k-1], want)
		}
	}
}

func checkDeanon(t *testing.T, tb Table, train *graph.Graph, cases []deanonCase) {
	c := wholeGraph(train, deanonK)
	pool := ned.Signatures(train, allNodes(train), deanonK)
	for i, dc := range cases {
		var want [][]graph.NodeID
		exhaustive := func(q graph.NodeID, l int) []graph.NodeID {
			var nodes []graph.NodeID
			for _, n := range ned.TopL(ned.NewSignature(dc.test, q, deanonK), pool, l) {
				nodes = append(nodes, n.Node)
			}
			want = append(want, nodes)
			return nodes
		}
		if p := fmt.Sprintf("%.2f", deanon.Precision(dc.e, exhaustive)); tb.Rows[i][1] != p {
			t.Errorf("%s row %s: NED precision %s, exhaustive %s", tb.Title, dc.label, tb.Rows[i][1], p)
		}
		rank := deanon.NED(c, dc.test, deanonK)
		for j, q := range dc.e.Queries {
			if got := rank(q, dc.e.TopL); !slices.Equal(got, want[j]) {
				t.Errorf("%s row %s query %d: top-%d %v, exhaustive %v", tb.Title, dc.label, q, dc.e.TopL, got, want[j])
			}
		}
	}
}
