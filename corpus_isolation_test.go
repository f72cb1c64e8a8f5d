package ned

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// The read-consistency contract, model-checked: every query observes
// exactly one committed prefix of mutation calls. One writer drives a
// seeded random history of multi-shard Inserts and Removes, graph
// updates, rebuilds and checkpoints against a
// sequential model (graph version + live set), while concurrent readers
// record what they saw together with the window of calls that could
// have been visible. Afterwards every answer must equal the exhaustive
// TED* scan of ONE model state inside its window — an answer mixing
// shards from before and after a call matches none.

// withExtraEdges returns g plus count seeded random edges it lacks.
func withExtraEdges(g *Graph, seed int64, count int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	have := map[[2]NodeID]bool{}
	b := NewGraphBuilder(n, false)
	for _, e := range g.Edges() {
		have[[2]NodeID{e.U, e.V}], have[[2]NodeID{e.V, e.U}] = true, true
		b.AddEdge(e.U, e.V)
	}
	for count > 0 {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v || have[[2]NodeID{u, v}] {
			continue
		}
		have[[2]NodeID{u, v}], have[[2]NodeID{v, u}] = true, true
		b.AddEdge(u, v)
		count--
	}
	return b.Build()
}

// isoState is one model state: the graph version and which nodes are
// indexed.
type isoState struct {
	gv   int
	live []bool
}

// isoObs is one reader observation. lo is the number of calls committed
// before the read began, hi the number started when it ended: the read
// saw the state after some call in [lo, hi].
type isoObs struct {
	lo, hi int64
	kind   int // 0 KNNSignature, 1 Range, 2 KNN by node, 3 Stats().Nodes
	q      int
	got    []Neighbor
	nodes  int
}

func TestCorpusSnapshotIsolation(t *testing.T) {
	t.Run("pruned", func(t *testing.T) { snapshotIsolation(t, false) })
	t.Run("pruned-durable", func(t *testing.T) { snapshotIsolation(t, true) })
}

func snapshotIsolation(t *testing.T, durable bool) {
	const (
		k, l, r = 2, 5, 3
		n       = 160
		calls   = 120
		readers = 3
	)
	base := randomGraph(n, 2*n, 77)
	graphs := []*Graph{base, withExtraEdges(base, 78, 8), withExtraEdges(base, 79, 8)}
	gQuery := randomGraph(40, 80, 80)
	all := make([]NodeID, n)
	for v := range all {
		all[v] = NodeID(v)
	}

	// Queries 0..3 are signatures of a foreign graph; 4..7 are corpus
	// nodes, whose signature follows the graph version. dist[gv][q][v]
	// is the exhaustive TED* table every oracle answer is read from.
	const nSig, nQ = 4, 8
	sigQ := make([]Signature, nSig)
	for q := range sigQ {
		sigQ[q] = NewSignature(gQuery, NodeID(q*9), k)
	}
	nodeQ := []NodeID{3, 41, 97, 150}
	dist := make([][nQ][]int, len(graphs))
	for gv, g := range graphs {
		cands := Signatures(g, all, k)
		for q := 0; q < nQ; q++ {
			query := sigQ[q%nSig]
			if q >= nSig {
				query = cands[nodeQ[q-nSig]]
			}
			dist[gv][q] = make([]int, n)
			for v := range cands {
				dist[gv][q][v] = SignatureDistance(query, cands[v])
			}
		}
	}

	c, err := NewCorpus(base, k, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if durable {
		if err := c.MakeDurable(t.TempDir(), FsyncNone); err != nil {
			t.Fatal(err)
		}
		defer c.CloseDurable()
	}
	ctx := context.Background()
	if _, err := c.KNN(ctx, 0, 1); err != nil { // build before the storm
		t.Fatal(err)
	}

	states := make([]isoState, calls+1)
	states[0] = isoState{live: make([]bool, n)}
	for v := range states[0].live {
		states[0].live[v] = true
	}
	var started, committed atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup

	stop := func() {
		done.Store(true)
		wg.Wait()
	}
	defer stop() // also on a failed call below

	obs := make([][]isoObs, readers)
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + ri)))
			for !done.Load() {
				o := isoObs{kind: rng.Intn(4), lo: committed.Load()}
				var err error
				switch o.kind {
				case 0:
					o.q = rng.Intn(nSig)
					o.got, err = c.KNNSignature(ctx, sigQ[o.q], l)
				case 1:
					o.q = rng.Intn(nSig)
					o.got, err = c.Range(ctx, sigQ[o.q], r)
				case 2:
					o.q = nSig + rng.Intn(nQ-nSig)
					o.got, err = c.KNN(ctx, nodeQ[o.q-nSig], l)
				default:
					o.nodes = c.Stats().Nodes
				}
				o.hi = started.Load()
				if err != nil {
					t.Errorf("reader %d kind %d: %v", ri, o.kind, err)
					return
				}
				obs[ri] = append(obs[ri], o)
			}
		}(ri)
	}

	// The writer. pick draws a multi-shard batch of nodes whose live
	// flag is want.
	rng := rand.New(rand.NewSource(901))
	cur := isoState{live: append([]bool(nil), states[0].live...)}
	pick := func(want bool) []NodeID {
		var pool []NodeID
		for v, on := range cur.live {
			if on == want {
				pool = append(pool, NodeID(v))
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		return pool[:min(len(pool), 12+rng.Intn(28))]
	}
	for i := 1; i <= calls; i++ {
		started.Store(int64(i))
		var err error
		switch p := rng.Intn(100); {
		case p < 35:
			batch := pick(true)
			err = c.Remove(batch...)
			for _, v := range batch {
				cur.live[v] = false
			}
		case p < 70:
			batch := pick(false)
			err = c.Insert(batch...)
			for _, v := range batch {
				cur.live[v] = true
			}
		case p < 80:
			cur.gv = (cur.gv + 1) % len(graphs)
			_, err = c.UpdateGraph(graphs[cur.gv])
		case p < 95 || !durable:
			c.Rebuild()
		default:
			err = c.Checkpoint()
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		states[i] = isoState{gv: cur.gv, live: append([]bool(nil), cur.live...)}
		committed.Store(int64(i))
	}
	stop()

	// oracle answers query q of the given kind over state j by sorting
	// the exhaustive distance table, memoized per (state, kind, query).
	type key struct{ j, kind, q int }
	memo := map[key]string{}
	oracle := func(j, kind, q int) string {
		if s, ok := memo[key{j, kind, q}]; ok {
			return s
		}
		st := states[j]
		var ns []Neighbor
		for v, on := range st.live {
			if d := dist[st.gv][q][v]; on && (kind != 1 || d <= r) {
				ns = append(ns, Neighbor{Node: NodeID(v), Dist: d})
			}
		}
		sort.Slice(ns, func(a, b int) bool {
			if ns[a].Dist != ns[b].Dist {
				return ns[a].Dist < ns[b].Dist
			}
			return ns[a].Node < ns[b].Node
		})
		if kind != 1 && len(ns) > l {
			ns = ns[:l]
		}
		memo[key{j, kind, q}] = fmt.Sprint(ns)
		return memo[key{j, kind, q}]
	}
	total := 0
	for ri := range obs {
		total += len(obs[ri])
		for _, o := range obs[ri] {
			ok := false
			for j := o.lo; j <= o.hi && !ok; j++ {
				if o.kind == 3 {
					size := 0
					for _, on := range states[j].live {
						if on {
							size++
						}
					}
					ok = size == o.nodes
				} else {
					ok = fmt.Sprint(o.got) == oracle(int(j), o.kind, o.q)
				}
			}
			if !ok {
				t.Fatalf("reader %d: kind %d query %d observed between calls %d and %d matches no single committed state: nodes=%d answer=%v",
					ri, o.kind, o.q, o.lo, o.hi, o.nodes, o.got)
			}
		}
	}
	if total < calls {
		t.Fatalf("only %d reads raced %d calls; the check would be vacuous", total, calls)
	}
}
