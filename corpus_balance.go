package ned

import (
	"sort"
	"sync"
	"time"

	"ned/internal/ned"
)

// Adaptive shard rebalancing. The fixed splitmix hash that seeds the
// layout is blind to load: one hot graph region lands all its writers
// on one shard, where every mutation pays an epoch clone proportional
// to that shard's size while cold shards idle. The rebalancer watches
// the per-shard contention counters the mutation paths maintain
// (lock-wait time, mutation counts, clone bytes) and edits the
// placement directory MRV-style: split the shard carrying most of the
// write load, fold quiet dwarf shards back together. Each edit is the
// standard mutation protocol: prepare both shards' successor epochs and
// the new placement, publish them in one view — a reader sees the
// layout before the move or after it, so readers never block and
// answers stay node-identical.
//
// Placement edits are deliberately not WAL-logged: they change where
// nodes live, never which nodes live, so a crash before the next
// checkpoint merely recovers into the older layout with identical
// answers.

// RebalancePolicy configures StartRebalancer / RebalanceTick. The zero
// value takes every default; see ned.BalancePolicy for the knobs'
// semantics.
type RebalancePolicy struct {
	// Interval between background ticks (StartRebalancer only);
	// default 2s.
	Interval time.Duration

	MaxShards         int
	MinShardNodes     int
	SplitFraction     float64
	SplitMinMutations int64
	MergeMaxMutations int64
}

func (p RebalancePolicy) withDefaults() RebalancePolicy {
	if p.Interval <= 0 {
		p.Interval = 2 * time.Second
	}
	return p
}

func (p RebalancePolicy) balancePolicy() ned.BalancePolicy {
	return ned.BalancePolicy{
		MaxShards:         p.MaxShards,
		MinShardNodes:     p.MinShardNodes,
		SplitFraction:     p.SplitFraction,
		SplitMinMutations: p.SplitMinMutations,
		MergeMaxMutations: p.MergeMaxMutations,
	}
}

// RebalanceResult reports what one tick did.
type RebalanceResult struct {
	// Split is the shard slot that was split (-1 if none); NewShard the
	// slot its moved nodes went to, and Moved how many moved.
	Split    int
	NewShard int
	Moved    int
	// MergedSrc/MergedDst are the fold's source and destination slots
	// (-1/-1 if none).
	MergedSrc int
	MergedDst int
}

// balanceSnap is one shard's contention reading at the previous tick;
// the next tick differences against it.
type balanceSnap struct {
	lockWaitNS int64
	mutations  int64
	cloneBytes int64
}

// RebalanceTick runs one rebalancing step synchronously: read the
// contention deltas since the previous tick, ask the policy for a
// verdict, and apply at most one split and one merge. A no-op (and no
// error) on corpora whose indexes have not been built yet — there is
// no load to observe. Ticks serialize with mutations and each other
// under the engine write gate; queries keep serving throughout.
func (c *Corpus) RebalanceTick(pol RebalancePolicy) RebalanceResult {
	res := RebalanceResult{Split: -1, NewShard: -1, MergedSrc: -1, MergedDst: -1}
	if !c.built.Load() {
		return res
	}
	c.gmu.Lock()
	defer c.gmu.Unlock()

	view := c.view.Load()
	if c.balPrev == nil {
		c.balPrev = make(map[*corpusShard]balanceSnap)
	}
	ref := view.place.Referenced()
	loads := make([]ned.ShardLoad, len(view.shards))
	for i, sh := range view.shards {
		prev := c.balPrev[sh]
		cur := balanceSnap{
			lockWaitNS: sh.lockWaitNS.Load(),
			mutations:  sh.mutations.Load(),
			cloneBytes: sh.cloneBytes.Load(),
		}
		c.balPrev[sh] = cur
		loads[i] = ned.ShardLoad{
			Shard:      i,
			Live:       ref[i],
			Nodes:      view.eps[i].size(),
			LockWaitNS: clampDelta(cur.lockWaitNS - prev.lockWaitNS),
			Mutations:  clampDelta(cur.mutations - prev.mutations),
			CloneBytes: clampDelta(cur.cloneBytes - prev.cloneBytes),
		}
	}

	d := ned.Decide(loads, pol.balancePolicy())
	changed := false
	if d.Split >= 0 {
		if moved, dst := c.applySplit(d.Split); moved > 0 {
			res.Split, res.NewShard, res.Moved = d.Split, dst, moved
			c.shardSplits.Add(1)
			changed = true
		}
	}
	if d.MergeSrc >= 0 {
		c.applyMerge(d.MergeSrc, d.MergeDst)
		res.MergedSrc, res.MergedDst = d.MergeSrc, d.MergeDst
		c.shardMerges.Add(1)
		changed = true
	}
	if changed {
		c.rebalances.Add(1)
	}
	return res
}

func clampDelta(d int64) int64 {
	if d < 0 {
		return 0
	}
	return d
}

// applySplit moves roughly half of shard si's nodes — alternating
// through its recently-hot set so the write pressure itself is what
// halves — to a retired husk (placement-unreferenced, empty: reused so
// the slots slice stays as short as the live layout needs) or else a
// fresh slot. Callers hold gmu for writing.
func (c *Corpus) applySplit(si int) (moved int, dst int) {
	view := c.view.Load()
	ep := view.eps[si]
	nodes := make([]NodeID, 0, len(ep.byNode))
	for v := range ep.byNode {
		nodes = append(nodes, v)
	}
	sortNodeIDs(nodes)
	stay, move := ned.SplitPartition(nodes, view.shards[si].hotSet(), uint64(c.rebalances.Load())+0x9e37)
	if len(move) == 0 || len(stay) == 0 {
		return 0, -1
	}

	dst = len(view.shards)
	for i, ok := range view.place.Referenced() {
		if !ok && view.eps[i].size() == 0 {
			dst = i
			break
		}
	}
	place := view.place.Clone()
	if dst >= place.Shards {
		place.Shards = dst + 1
	}
	srcEp := &shardEpoch{byNode: make(map[NodeID]ned.Item, len(stay))}
	dstEp := &shardEpoch{byNode: make(map[NodeID]ned.Item, len(move))}
	for _, v := range stay {
		srcEp.byNode[v] = ep.byNode[v]
	}
	for _, v := range move {
		dstEp.byNode[v] = ep.byNode[v]
		place.SetMove(v, dst)
	}
	// Fresh indexes for both halves; counters continue the lineages —
	// the source's totals stay with its slot, the destination extends
	// whatever the reused husk accumulated before retirement (or starts
	// fresh on a new slot), keeping Stats monotone per slot.
	srcEp.ix = newShardIndex(srcEp.byNode)
	ned.ShareCounters(srcEp.ix, ep.ix)
	dstEp.ix = newShardIndex(dstEp.byNode)
	if dst < len(view.eps) {
		ned.ShareCounters(dstEp.ix, view.eps[dst].ix)
	}
	c.publish(func(nv *corpusView) {
		if dst == len(nv.shards) {
			nv.shards = append(append([]*corpusShard(nil), nv.shards...), &corpusShard{})
			nv.eps = append(nv.eps, nil)
		}
		nv.eps[si], nv.eps[dst], nv.place = srcEp, dstEp, place
	})
	return len(move), dst
}

// applyMerge folds shard src's nodes into dst, leaving src behind as
// an empty husk the next split can reuse. Placement rewrite: every
// redirect bucket and move that routed to src now routes to dst.
// Callers hold gmu for writing.
func (c *Corpus) applyMerge(src, dst int) {
	view := c.view.Load()
	srcEp := view.eps[src]

	place := view.place.Clone()
	for b, s := range place.Redirect {
		if int(s) == src {
			place.Redirect[b] = int32(dst)
		}
	}
	// Collect first: SetMove may delete entries mid-iteration.
	var moved []NodeID
	for v, s := range place.Moves {
		if int(s) == src {
			moved = append(moved, v)
		}
	}
	for _, v := range moved {
		place.SetMove(v, dst)
	}

	merged := c.splice(view.eps[dst], sortedShardItems(srcEp.byNode), nil)
	husk := &shardEpoch{byNode: map[NodeID]ned.Item{}, ix: newShardIndex(nil)}
	ned.ShareCounters(husk.ix, srcEp.ix)
	c.publish(func(nv *corpusView) {
		nv.eps[src], nv.eps[dst], nv.place = husk, merged, place
	})
}

// sortNodeIDs sorts ascending — the deterministic partition order.
func sortNodeIDs(nodes []NodeID) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
}

// StartRebalancer runs RebalanceTick on a background goroutine every
// pol.Interval until the returned stop function is called (idempotent,
// and it waits for an in-flight tick to finish). The engine stays
// fully serviceable throughout; ticks that find nothing to do cost one
// pass over the contention counters.
func (c *Corpus) StartRebalancer(pol RebalancePolicy) (stop func()) {
	pol = pol.withDefaults()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(pol.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.RebalanceTick(pol)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
