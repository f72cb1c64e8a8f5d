package ned

import (
	"context"
	"runtime"

	"ned/internal/graph"
	"ned/internal/ted"
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
// graph matching on top of NED. Each row borrows one pooled
// ted.Computer, so the whole matrix reuses a fixed set of TED* scratch
// buffers.
func DistanceMatrix(as, bs []Signature, opts BatchOptions) [][]int {
	m := make([][]int, len(as))
	parallelFor(len(as), opts.workers(), func(i int) {
		comp := tedComputers.Get().(*ted.Computer)
		defer tedComputers.Put(comp)
		row := make([]int, len(bs))
		for j, b := range bs {
			row[j] = comp.Distance(as[i].Tree, b.Tree)
		}
		m[i] = row
	})
	return m
}

// TopLParallel is TopL answered by the cascade scan with opts.Workers
// sweepers sharing the query's candidates: PrunedTopL at a wider
// width. Results are identical to TopL.
func TopLParallel(query Signature, candidates []Signature, l int, opts BatchOptions) []Neighbor {
	res, _ := signatureTopL(query, candidates, l, opts.workers())
	return res
}

// parallelFor runs fn(i) for i in [0, n) across the given worker count:
// the uncancellable form of ParallelForCtx (index.go), which owns the
// loop implementation.
func parallelFor(n, workers int, fn func(i int)) {
	_ = ParallelForCtx(context.Background(), n, workers, fn)
}
