package ned

import (
	"context"
	"runtime"

	"ned/internal/graph"
)

// BatchOptions controls parallel batch computations. The zero value uses
// all CPUs.
type BatchOptions struct {
	// Workers is the goroutine count; <= 0 means GOMAXPROCS.
	Workers int
}

func (o BatchOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SignaturesParallel extracts k-adjacent tree signatures for many nodes
// concurrently. Extraction is read-only on the graph, so workers share
// it safely. Output order matches the input order.
func SignaturesParallel(g *graph.Graph, nodes []graph.NodeID, k int, opts BatchOptions) []Signature {
	out := make([]Signature, len(nodes))
	parallelFor(len(nodes), opts.workers(), func(i int) {
		out[i] = NewSignature(g, nodes[i], k)
	})
	return out
}

// DistanceMatrix computes the full NED matrix between two signature
// sets in parallel: m[i][j] = NED(as[i], bs[j]). Row-major [len(as)][len(bs)].
// Useful for the Hausdorff distance, clustering, and assignment-based
// graph matching on top of NED. Each worker goroutine owns one pooled
// ted.Computer, so the whole matrix reuses a fixed set of TED* scratch
// buffers.
func DistanceMatrix(as, bs []Signature, opts BatchOptions) [][]int {
	m := make([][]int, len(as))
	workers := opts.workers()
	comps := acquireComputers(workers)
	defer releaseComputers(comps)
	parallelForWorkers(len(as), workers, func(w, i int) {
		row := make([]int, len(bs))
		for j, b := range bs {
			row[j] = comps[w].Distance(as[i].Tree, b.Tree)
		}
		m[i] = row
	})
	return m
}

// TopLParallel is TopL answered by the cascade scan with opts.Workers
// sweepers sharing the query's candidates: PrunedTopL at a wider
// width. Results are identical to TopL.
func TopLParallel(query Signature, candidates []Signature, l int, opts BatchOptions) []Neighbor {
	res, _, _ := scanKNN(context.Background(), query.Item(), ItemsOf(candidates), nil, l, opts.workers(), nil)
	return res
}

// parallelFor runs fn(i) for i in [0, n) across the given worker count.
func parallelFor(n, workers int, fn func(i int)) {
	parallelForWorkers(n, workers, func(_, i int) { fn(i) })
}

// parallelForWorkers is parallelFor with the worker index exposed, so
// callers can hand each goroutine its own scratch state. Worker indexes
// are dense in [0, workers). It is the uncancellable form of
// ParallelForCtxWorkers (index.go), which owns the loop implementation.
func parallelForWorkers(n, workers int, fn func(worker, i int)) {
	_ = ParallelForCtxWorkers(context.Background(), n, workers, fn)
}
