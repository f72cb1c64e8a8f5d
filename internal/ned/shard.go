package ned

import (
	"context"

	"ned/internal/graph"
)

// This file is the shard router behind the sharded Corpus engine: the
// deterministic node -> shard hash that is the whole placement, and
// query fan-out/merge that keeps sharded answers node-identical to a
// single index over the union of the shards' items.
//
// Exactness of the merge: each shard answers over a disjoint item
// subset with the shared canonical (distance, node) order, so
//   - the global top-l is contained in the union of per-shard top-l's
//     (any global winner beats at least the l-th best of its own shard),
//   - a range result is exactly the union of per-shard range results,
// and re-sorting the union canonically and trimming reproduces the
// unsharded answer bit for bit. Disjointness is the caller's contract:
// the Corpus hands every query the shards of one published view, in
// which each node lives in exactly one shard.

// ShardOf deterministically maps a node to one of n shards. The
// splitmix64 finalizer scrambles the (typically dense, clustered) node
// IDs so shards stay balanced regardless of how a graph numbers its
// nodes; the assignment depends only on (node, n), so equal corpora
// have identical layouts across processes, and a snapshot loads into any
// shard count by re-hashing.
func ShardOf(v graph.NodeID, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(v) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// mergeSorted concatenates per-shard answers and sorts the union
// canonically — a range query's whole merge.
func mergeSorted(per [][]Neighbor) []Neighbor {
	var out []Neighbor
	for _, ns := range per {
		out = append(out, ns...)
	}
	sortNeighborsCanonical(out)
	return out
}

// MergeTopL merges per-shard KNN answers (each canonically sorted) into
// the global canonical top-l.
func MergeTopL(per [][]Neighbor, l int) []Neighbor {
	out := mergeSorted(per)
	if len(out) > l {
		out = out[:l]
	}
	return out
}

// FanKNN answers a KNN query over a sharded index: one KNN(l) per
// non-empty shard, in parallel on the executor, merged canonically. A
// single shard short-circuits to a direct call.
func FanKNN(ctx context.Context, exec *Executor, shards []Index, query Item, l int) ([]Neighbor, error) {
	if len(shards) == 1 {
		return shards[0].KNN(ctx, query, l)
	}
	per, err := fanOut(ctx, exec, shards, func(ctx context.Context, ix Index) ([]Neighbor, error) {
		return ix.KNN(ctx, query, l)
	})
	if err != nil {
		return nil, err
	}
	return MergeTopL(per, l), nil
}

// FanRange answers a range query over a sharded index: per-shard ranges
// in parallel, union re-sorted canonically.
func FanRange(ctx context.Context, exec *Executor, shards []Index, query Item, r int) ([]Neighbor, error) {
	if len(shards) == 1 {
		return shards[0].Range(ctx, query, r)
	}
	per, err := fanOut(ctx, exec, shards, func(ctx context.Context, ix Index) ([]Neighbor, error) {
		return ix.Range(ctx, query, r)
	})
	if err != nil {
		return nil, err
	}
	return mergeSorted(per), nil
}

// fanOut runs one query per non-empty shard across the executor and
// collects the per-shard answers (empty shards are skipped entirely —
// their slot stays nil). The first per-shard error wins.
func fanOut(ctx context.Context, exec *Executor, shards []Index,
	query func(ctx context.Context, ix Index) ([]Neighbor, error)) ([][]Neighbor, error) {
	live := make([]int, 0, len(shards))
	for i, ix := range shards {
		if ix.Len() > 0 {
			live = append(live, i)
		}
	}
	per := make([][]Neighbor, len(shards))
	if len(live) == 0 {
		return per, ctx.Err()
	}
	if len(live) == 1 {
		res, err := query(ctx, shards[live[0]])
		if err != nil {
			return nil, err
		}
		per[live[0]] = res
		return per, nil
	}
	errs := make([]error, len(shards))
	if err := exec.Do(ctx, len(live), 0, func(i int) {
		si := live[i]
		per[si], errs[si] = query(ctx, shards[si])
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return per, nil
}
