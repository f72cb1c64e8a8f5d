package ned

import (
	"context"

	"ned/internal/graph"
)

// This file is the read side over a list of disjoint indexes: the
// deterministic node -> shard hash that files a segment's item tables
// (and a shard of the benchmark harness's replay), and FanKNN, which
// sweeps every scan's blocks in one best-first pass under one top-l
// collector (scanKNN), so its threshold tightens once for the whole
// item set. The Corpus hands FanKNN its one scan.
//
// Exactness: each index holds a disjoint item subset, so one collector
// over their union answers what one index over all items would.
// Disjointness is the caller's contract.

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

// MergeTopL merges per-shard KNN answers (each canonically sorted) into
// the global canonical top-l: fanKNNMerge's merge, and a name the
// benchmark harness times as ned.mergetopl_ns.
func MergeTopL(per [][]Neighbor, l int) []Neighbor {
	var out []Neighbor
	for _, ns := range per {
		out = append(out, ns...)
	}
	sortNeighborsCanonical(out)
	if len(out) > l {
		out = out[:l]
	}
	return out
}

// FanKNN answers a KNN query over a sharded index: one sweep over every
// shard's candidates — each scan's base and delta — under one top-l
// collector (scanKNN), on up to the executor's width of sweepers drawn
// from its pool — a pool other queries already fill runs the sweep on
// the caller. Each shard's counters receive its own candidates' work.
// Shards that are not the cascade scan (the low-level VP and BK indexes,
// which no Corpus builds) keep the per-shard KNN and canonical merge.
func FanKNN(ctx context.Context, exec *Executor, shards []Index, query Item, l int) ([]Neighbor, error) {
	parts := make([]sweepPart, 0, 2*len(shards))
	for _, ix := range shards {
		sb, ok := ix.(*Scan)
		if !ok {
			return fanKNNMerge(ctx, exec, shards, query, l)
		}
		parts = sb.appendParts(parts)
	}
	res, _, err := scanKNN(ctx, query, parts, l, exec.Workers(), exec.sweepers(ctx))
	return res, err
}

// fanKNNMerge is FanKNN over shards that are not all scans: one KNN(l)
// per non-empty shard, in parallel on the executor, merged canonically.
func fanKNNMerge(ctx context.Context, exec *Executor, shards []Index, query Item, l int) ([]Neighbor, error) {
	per, err := fanOut(ctx, exec, shards, func(ctx context.Context, ix Index) ([]Neighbor, error) {
		return ix.KNN(ctx, query, l)
	})
	if err != nil {
		return nil, err
	}
	return MergeTopL(per, l), nil
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
