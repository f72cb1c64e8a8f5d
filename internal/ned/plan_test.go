package ned

import (
	"context"
	"fmt"
	"testing"

	"ned/internal/graph"
)

// TestPlannerEquivalence pins the planner's only acceptable behavior:
// pure strategy, zero answer drift. Whatever fan-out mode a plan runs
// in, Plan.KNN and Plan.Range must be node-identical to the
// reference all-shards fan-out (FanKNN / FanRange) over the same shard
// indexes — on every backend, before and after churn leaves the tree
// backends with tombstones and append tails.
func TestPlannerEquivalence(t *testing.T) {
	ctx := context.Background()
	g := randomTestGraph(240, 720, 11)
	gq := randomTestGraph(60, 130, 12)
	var nodes []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	items := BuildItems(g, nodes, 2, false, 0)
	exec := NewExecutor(4)

	backends := map[string]func([]Item) DynamicIndex{
		"vp":     func(it []Item) DynamicIndex { return NewVPBackend(it) },
		"bk":     func(it []Item) DynamicIndex { return NewBKBackend(it) },
		"linear": func(it []Item) DynamicIndex { return NewLinearBackend(it, 2) },
		"pruned": func(it []Item) DynamicIndex { return NewPrunedLinearBackend(it) },
	}
	for name, mk := range backends {
		for _, n := range []int{1, 4} {
			// per[si] is shard si's live items, node-ascending.
			per := make([][]Item, n)
			for _, it := range items {
				si := ShardOf(it.Node, n)
				per[si] = append(per[si], it)
			}
			shards := make([]DynamicIndex, n)
			for i := range per {
				shards[i] = mk(per[i])
			}
			check := func(stage string) {
				t.Helper()
				ixs := make([]Index, n)
				for i := range shards {
					ixs[i] = shards[i]
				}
				for _, mode := range []PlanMode{PlanParallel, PlanSequential, PlanSingle} {
					if mode == PlanSingle && n > 1 {
						continue // single is the one-live-shard plan
					}
					p := &Plan{Mode: mode}
					for i := range shards {
						p.Shards = append(p.Shards, PlanShard{Ix: shards[i], N: len(per[i])})
					}
					label := fmt.Sprintf("%s/shards=%d/%s/%v", name, n, stage, mode)
					for q := 0; q < 8; q++ {
						query := NewItem(gq, graph.NodeID(q*7), 2, false)
						for _, l := range []int{1, 5, 300} {
							want, err := FanKNN(ctx, exec, ixs, query, l)
							if err != nil {
								t.Fatal(err)
							}
							got, err := p.KNN(ctx, exec, query, l)
							if err != nil {
								t.Fatal(err)
							}
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Errorf("%s l=%d: Plan.KNN %v, FanKNN %v", label, l, got, want)
							}
						}
						for _, r := range []int{0, 3, 6} {
							want, err := FanRange(ctx, exec, ixs, query, r)
							if err != nil {
								t.Fatal(err)
							}
							got, err := p.Range(ctx, exec, query, r)
							if err != nil {
								t.Fatal(err)
							}
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Errorf("%s r=%d: Plan.Range %v, FanRange %v", label, r, got, want)
							}
						}
					}
				}
			}
			check("static")

			// Churn: drop every fifth node, bring every tenth back.
			for si := range per {
				var keep, back []Item
				var gone []graph.NodeID
				for _, it := range per[si] {
					switch {
					case it.Node%10 == 0:
						back = append(back, it)
						gone = append(gone, it.Node)
						keep = append(keep, it)
					case it.Node%5 == 0:
						gone = append(gone, it.Node)
					default:
						keep = append(keep, it)
					}
				}
				shards[si].Remove(gone...)
				shards[si].Insert(back...)
				per[si] = keep
			}
			check("churned")
		}
	}
}
