package ned

import (
	"context"
	"fmt"

	"ned/internal/graph"
)

// This file is the shard router behind the sharded Corpus engine: a
// deterministic node -> shard hash, the directory-based placement table
// the rebalancer edits on top of it, and query fan-out/merge that keeps
// sharded answers node-identical to a single index over the union of
// the shards' items.
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
// seed identical layouts across processes — a snapshot with no recorded
// placement (or loaded under a shard-count override) reshards by
// re-hashing.
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

// Placement is the directory-based node -> shard map. The seed layout
// is pure hash: Base redirect buckets (one per seed shard), bucket b
// routing to shard Redirect[b], plus node-level Moves overrides. A
// fresh corpus starts with the identity redirect and no moves —
// byte-for-byte the old blind-hash behavior — and the rebalancer edits
// only the table: splitting a hot shard adds Moves entries for the
// nodes it relocates, merging a cold shard repoints its redirect
// buckets and rewrites its moves. Lookup cost is one map probe (skipped
// entirely while Moves is nil) plus one hash.
//
// A Placement is immutable once published (the Corpus shares it through
// the same atomic-epoch discipline as shard indexes); mutators Clone
// first. Snapshots and segments record non-trivial placements so a
// rebalanced corpus restores into the same layout.
type Placement struct {
	Base     int                    // redirect bucket count (the hash domain)
	Shards   int                    // shard slots the table routes into
	Redirect []int32                // len Base: bucket -> shard slot
	Moves    map[graph.NodeID]int32 // node-level overrides; nil when none
}

// NewHashPlacement returns the identity placement over n shards — the
// blind-hash seed layout.
func NewHashPlacement(n int) *Placement {
	if n < 1 {
		n = 1
	}
	p := &Placement{Base: n, Shards: n, Redirect: make([]int32, n)}
	for i := range p.Redirect {
		p.Redirect[i] = int32(i)
	}
	return p
}

// Of returns the shard slot owning node v.
func (p *Placement) Of(v graph.NodeID) int {
	if p.Moves != nil {
		if s, ok := p.Moves[v]; ok {
			return int(s)
		}
	}
	return int(p.Redirect[ShardOf(v, p.Base)])
}

// Trivial reports whether the placement is exactly the blind-hash seed
// layout, in which case persistence layers omit it and readers re-derive
// placement by hashing — the pre-directory format, byte for byte.
func (p *Placement) Trivial() bool {
	if p == nil {
		return true
	}
	if p.Shards != p.Base || len(p.Moves) != 0 {
		return false
	}
	for i, s := range p.Redirect {
		if int(s) != i {
			return false
		}
	}
	return true
}

// Clone returns a deep, independently mutable copy.
func (p *Placement) Clone() *Placement {
	np := &Placement{Base: p.Base, Shards: p.Shards, Redirect: append([]int32(nil), p.Redirect...)}
	if len(p.Moves) > 0 {
		np.Moves = make(map[graph.NodeID]int32, len(p.Moves))
		for v, s := range p.Moves {
			np.Moves[v] = s
		}
	}
	return np
}

// SetMove routes node v to shard s, dropping the override when the
// redirect table already routes it there (so Moves stays minimal and a
// placement whose every move is undone compacts back to trivial).
func (p *Placement) SetMove(v graph.NodeID, s int) {
	if int(p.Redirect[ShardOf(v, p.Base)]) == s {
		delete(p.Moves, v)
		return
	}
	if p.Moves == nil {
		p.Moves = make(map[graph.NodeID]int32)
	}
	p.Moves[v] = int32(s)
}

// Referenced reports which shard slots the table can route a node to.
// Unreferenced slots are retired (their items were merged away); the
// rebalancer reuses them for splits.
func (p *Placement) Referenced() []bool {
	ref := make([]bool, p.Shards)
	for _, s := range p.Redirect {
		if int(s) >= 0 && int(s) < p.Shards {
			ref[s] = true
		}
	}
	for _, s := range p.Moves {
		if int(s) >= 0 && int(s) < p.Shards {
			ref[s] = true
		}
	}
	return ref
}

// Validate checks internal consistency — persistence layers call it on
// loaded placements so corrupt tables fail loudly instead of routing
// nodes out of range.
func (p *Placement) Validate() error {
	if p.Base < 1 || p.Shards < 1 {
		return fmt.Errorf("placement: base=%d shards=%d", p.Base, p.Shards)
	}
	if len(p.Redirect) != p.Base {
		return fmt.Errorf("placement: %d redirect buckets for base %d", len(p.Redirect), p.Base)
	}
	for b, s := range p.Redirect {
		if int(s) < 0 || int(s) >= p.Shards {
			return fmt.Errorf("placement: bucket %d routes to shard %d of %d", b, s, p.Shards)
		}
	}
	for v, s := range p.Moves {
		if v < 0 {
			return fmt.Errorf("placement: move for negative node %d", v)
		}
		if int(s) < 0 || int(s) >= p.Shards {
			return fmt.Errorf("placement: node %d moved to shard %d of %d", v, s, p.Shards)
		}
	}
	return nil
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
