package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"ned"
	"ned/internal/datasets"
	"ned/internal/graph"
	"ned/internal/serve"
	"ned/internal/ted"
	"ned/internal/tree"
)

// Every input is made here, from the seed, before any timed window.
// The daemon only ever sees the generated requests.
//
// The corpus graph itself is the PGP analog at a FIXED generator seed:
// it plays the part of the paper's fixed datasets. The run seed picks
// the operations on it (query nodes, the perturbed second graph,
// mutation nodes, updated edges). Letting the seed redraw the graph
// moves the hub structure enough to swing corpus build time threefold
// between seeds, which would drown every bound.
const (
	graphSeed  = 42
	tenantName = "bench"
	corpusK    = 3
	topL       = 5
)

type opKind int

const (
	opKNN opKind = iota
	opKNNSig
	opInsert
	opRemove
	opUpdateGraph
)

// op is one prepared request.
type op struct {
	kind opKind
	path string
	body []byte
	// node is the queried or mutated corpus node; for knnsig it is the
	// corpus node the query signature truly corresponds to.
	node graph.NodeID
	// want is the exhaustive answer, nil for unchecked queries.
	want []serve.NeighborJSON
	// first is the answer the first replay got (static corpora only).
	first []serve.NeighborJSON
	// sig is a query's signature, for the traced run's in-process replay.
	sig ned.Signature
}

func (o *op) isQuery() bool { return o.kind == opKNN || o.kind == opKNNSig }

// corpusInput is a corpus graph with every node's signature.
type corpusInput struct {
	g      *graph.Graph
	sigs   []ned.Signature // by node
	bySize []graph.NodeID  // ascending (tree size, node)
	// identity maps a perturbed graph's node to the corpus node it was
	// made from; nil for the corpus graph itself.
	identity []graph.NodeID
}

func newCorpusInput(scale float64) *corpusInput {
	return signed(datasets.MustGenerate(datasets.PGP, datasets.Options{Scale: scale, Seed: graphSeed}))
}

// perturbed is the second graph of the inter-graph workload: g with 5 %
// of its edges rewired and its node IDs permuted, seeded.
func perturbed(g *graph.Graph, seed int64) *corpusInput {
	anon := ned.AnonymizePerturb(g, 0.05, seed)
	in := signed(anon.Graph)
	in.identity = anon.Identity
	return in
}

func signed(g *graph.Graph) *corpusInput {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	in := &corpusInput{g: g, sigs: ned.SignaturesParallel(g, nodes, corpusK, ned.BatchOptions{})}
	in.bySize = nodes
	sort.SliceStable(in.bySize, func(i, j int) bool {
		return in.sigs[in.bySize[i]].Tree.Size() < in.sigs[in.bySize[j]].Tree.Size()
	})
	return in
}

// pool is the nodes operations are drawn from: all but the largest 2 %
// of signatures. One query or insert of a hub costs as much as a
// hundred median ones, and a round's throughput would be a lottery on
// which of them the seed drew.
func (in *corpusInput) pool() []graph.NodeID {
	return in.bySize[:len(in.bySize)*98/100]
}

func graphSpec(g *graph.Graph) *serve.GraphSpec {
	es := g.Edges()
	gs := &serve.GraphSpec{Nodes: g.NumNodes(), Edges: make([][2]int, len(es))}
	for i, e := range es {
		gs.Edges[i] = [2]int{int(e.U), int(e.V)}
	}
	return gs
}

// createBody is the POST /v1/corpora request for the input graph. The
// backend is pinned to the pruned scan: it is what serves at every
// measured size (ROADMAP item 2), and the tree backends are measured
// per layer instead.
func (in *corpusInput) createBody() []byte {
	return mustJSON(serve.CreateRequest{
		Name: tenantName, K: corpusK, Backend: "pruned", Shards: 2, Workers: 2,
		Graph: graphSpec(in.g),
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only harness-built values reach here
	}
	return b
}

// stratified draws n nodes from pool (ascending by tree size): one per
// equal-width stratum, then shuffled. Query and mutation cost follows
// tree size with a heavy tail; stratifying keeps every seed's sample
// representative of the whole distribution instead of hostage to how
// many hubs it happened to draw.
func stratified(rng *rand.Rand, pool []graph.NodeID, n int) []graph.NodeID {
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		lo, hi := i*len(pool)/n, (i+1)*len(pool)/n
		out[i] = pool[lo+rng.Intn(hi-lo)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func corpusPath(endpoint string) string {
	return "/v1/corpora/" + tenantName + "/" + endpoint
}

func knnOp(sig ned.Signature) *op {
	return &op{kind: opKNN, path: corpusPath("knn"), node: sig.Node, sig: sig,
		body: mustJSON(serve.KNNRequest{Node: int(sig.Node), L: topL})}
}

func knnSigOp(sig ned.Signature, truth graph.NodeID) *op {
	return &op{kind: opKNNSig, path: corpusPath("knnsig"), node: truth, sig: sig,
		body: mustJSON(serve.KNNSigRequest{
			Signature: serve.SignatureJSON{K: sig.K, Tree: tree.Encode(sig.Tree)}, L: topL})}
}

// probeOp is the range-0 query that tells whether v is indexed.
func probeOp(sig ned.Signature) *op {
	return &op{kind: opKNNSig, path: corpusPath("range"), node: sig.Node,
		body: mustJSON(serve.RangeRequest{
			Signature: serve.SignatureJSON{K: sig.K, Tree: tree.Encode(sig.Tree)}, R: 0})}
}

func mutOp(kind opKind, v graph.NodeID) *op {
	ep := "insert"
	if kind == opRemove {
		ep = "remove"
	}
	return &op{kind: kind, path: corpusPath(ep), node: v,
		body: mustJSON(serve.NodesRequest{Nodes: []int{int(v)}})}
}

// oracleTopL is the answer oracle: TED* against every candidate — no
// lower bound, no cascade, no index, no shard — keeping the canonical
// (distance, node) top l. The only shortcut is TED*'s own budget: once l
// answers are held, a candidate is evaluated under the l-th best
// distance and dropped the moment it provably exceeds it (ted's
// exact-or-above-budget contract). Candidates are visited nearest tree
// size first so that budget tightens early; the order prunes nothing.
// A fully unbudgeted scan, which a test holds this one equal to, costs
// ~5 s per query at the large size.
func oracleTopL(c *ted.Computer, q *tree.Tree, cands []ned.Signature, l int) []serve.NeighborJSON {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	gap := func(i int) int { return max(cands[i].Tree.Size()-q.Size(), q.Size()-cands[i].Tree.Size()) }
	sort.SliceStable(order, func(i, j int) bool { return gap(order[i]) < gap(order[j]) })
	less := func(a, b serve.NeighborJSON) bool {
		return a.Dist < b.Dist || (a.Dist == b.Dist && a.Node < b.Node)
	}
	var top []serve.NeighborJSON
	for _, i := range order {
		budget := ted.Unbounded
		if len(top) == l {
			budget = top[l-1].Dist
		}
		d, outcome := c.DistanceAtMost(q, cands[i].Tree, budget)
		nb := serve.NeighborJSON{Node: int(cands[i].Node), Dist: d}
		if outcome != ted.OutcomeExact || (len(top) == l && !less(nb, top[l-1])) {
			continue
		}
		at := sort.Search(len(top), func(j int) bool { return less(nb, top[j]) })
		top = slices.Insert(top, at, nb)
		top = top[:min(l, len(top))]
	}
	return top
}

// inputs is everything one workload run replays.
type inputs struct {
	corpus *corpusInput
	// queries are the reads, in order. A round reads the next `reads` of
	// them and the list wraps: serve-wire replays all of it every round;
	// serve-read and crash-recover take a quarter a round, so a quarter
	// that drew a few very costly queries (one in a hundred costs thirty
	// times the mean) slows the rounds that read it, not every round.
	// serve-mixed's reader walks on through the list for as long as the
	// writer writes.
	queries []*op
	reads   int
	oracle  []*op // the subset of queries carrying exhaustive answers
	// pairs are remove-v/insert-v node pairs: every round ends on the
	// corpus it started from.
	pairs []graph.NodeID
	// held are removed before a crash and re-inserted after the
	// restart was verified (crash-recover only).
	held []graph.NodeID
	// graphAdd / graphBase are serve-mixed's two updategraph requests:
	// the corpus graph plus the seeded new edges, then the corpus graph
	// again.
	graphAdd, graphBase *op
}

// sizes of one workload, before the smoke test's divisor: the query
// list, how much of it one round reads, and the rest per round.
type roundShape struct {
	queries, reads, oracle, pairs, held, newEdges int
}

var shapes = map[string]roundShape{
	wlWire:    {queries: 400, reads: 400, oracle: 32, pairs: 64},
	wlRead:    {queries: 1600, reads: 400, oracle: 8, pairs: 48},
	wlMixed:   {queries: 400, oracle: 8, pairs: 96, newEdges: 8},
	wlRecover: {queries: 480, reads: 120, oracle: 8, pairs: 16, held: 16},
}

func (s roundShape) scaled(div int) roundShape {
	f := func(n, floor int) int {
		if n == 0 {
			return 0
		}
		return max(n/div, floor)
	}
	return roundShape{f(s.queries, 8), f(s.reads, 8), f(s.oracle, 2), f(s.pairs, 2), f(s.held, 2), f(s.newEdges, 4)}
}

// makeInputs prepares one workload's requests and oracle.
func makeInputs(workload string, corpus *corpusInput, seed int64, opsDiv int) (*inputs, error) {
	shape, ok := shapes[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	shape = shape.scaled(opsDiv)
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{corpus: corpus, reads: shape.reads}

	pool := corpus.pool()
	if workload == wlRead {
		// The inter-graph query of the paper: signatures of nodes of a
		// second, perturbed graph against the corpus. Strata are cut on
		// the second graph's own signature sizes — one rewired edge can
		// land a quiet node next to a hub.
		second := perturbed(corpus.g, seed)
		for _, a := range stratified(rng, second.pool(), shape.queries) {
			in.queries = append(in.queries, knnSigOp(second.sigs[a], second.identity[a]))
		}
	} else {
		for _, v := range stratified(rng, pool, shape.queries) {
			in.queries = append(in.queries, knnOp(corpus.sigs[v]))
		}
	}

	// Mutated nodes stay clear of every oracle query and answer, so the
	// exhaustive answers hold whatever the index currently contains.
	busy := in.solveOracle(shape.oracle)
	var free []graph.NodeID
	for _, v := range pool {
		if !busy[v] {
			free = append(free, v)
		}
	}
	muts := stratified(rng, free, shape.pairs+shape.held)
	in.pairs, in.held = muts[:shape.pairs], muts[shape.pairs:]

	if shape.newEdges > 0 {
		in.graphAdd, in.graphBase = graphUpdateOps(corpus.g, rng, shape.newEdges)
	}
	return in, nil
}

// solveOracle computes the exhaustive answer of n evenly spaced queries
// and returns the nodes those queries and answers involve.
func (in *inputs) solveOracle(n int) map[graph.NodeID]bool {
	step := max(len(in.queries)/n, 1)
	var picked []int
	for i := 0; i < len(in.queries) && len(picked) < n; i += step {
		picked = append(picked, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := ted.NewComputer()
			for j := w; j < len(picked); j += 2 {
				o := in.queries[picked[j]]
				o.want = oracleTopL(c, o.sig.Tree, in.corpus.sigs, topL)
			}
		}()
	}
	wg.Wait()
	busy := make(map[graph.NodeID]bool)
	for _, i := range picked {
		o := in.queries[i]
		in.oracle = append(in.oracle, o)
		if o.kind == opKNN {
			busy[o.node] = true
		}
		for _, nb := range o.want {
			busy[graph.NodeID(nb.Node)] = true
		}
	}
	return busy
}

// graphUpdateOps are serve-mixed's two updategraph requests: g plus n
// seeded new edges, then g again.
func graphUpdateOps(g *graph.Graph, rng *rand.Rand, n int) (add, base *op) {
	gs := graphSpec(g)
	base = &op{kind: opUpdateGraph, path: corpusPath("updategraph"), body: mustJSON(gs)}
	seen := make(map[[2]graph.NodeID]bool)
	for added := 0; added < n; {
		u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		gs.Edges = append(gs.Edges, [2]int{int(u), int(v)})
		added++
	}
	return &op{kind: opUpdateGraph, path: corpusPath("updategraph"), body: mustJSON(gs)}, base
}

// model is the harness's record of which nodes the daemon has
// acknowledged as indexed.
type model struct {
	present []bool
	count   int
}

func newModel(n int) *model {
	m := &model{present: make([]bool, n), count: n}
	for i := range m.present {
		m.present[i] = true
	}
	return m
}

// ack applies an acknowledged insert or remove.
func (m *model) ack(o *op) {
	want := o.kind == opInsert
	if m.present[o.node] != want {
		m.present[o.node] = want
		if want {
			m.count++
		} else {
			m.count--
		}
	}
}
