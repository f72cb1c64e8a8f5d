package ned

import (
	"sort"

	"ned/internal/graph"
)

// Rebalancing policy. The Corpus's background rebalancer samples
// per-shard contention (write-lock wait, mutation counts, epoch-clone
// bytes) between ticks and asks Decide what to do; the mechanics of
// actually moving items — clone-and-publish per shard, placement table
// edit, never blocking readers — live in the Corpus. This file is the
// pure policy: given the loads, pick at most one split and one merge
// per tick, MRV-style (split the contended unit behind the scenes,
// fold quiet fragments back together), so the layout converges in
// small, cheap, always-consistent steps instead of one stop-the-world
// reshard.

// ShardLoad is one shard slot's observed load since the previous
// rebalancer tick. Counters are deltas, not totals. A slot with Live
// false is a retired husk (merged away, kept so placement indices stay
// stable) and is skipped by the policy except as a split target.
type ShardLoad struct {
	Shard      int
	Live       bool
	Nodes      int
	LockWaitNS int64
	Mutations  int64
	CloneBytes int64
}

// score collapses a shard's contention signals into one comparable
// cost: clone bytes are the dominant term on this engine (every
// mutation pays an epoch clone proportional to shard size), lock wait
// is nanoseconds scaled down to roughly byte-cost parity, and each
// mutation carries a fixed overhead floor.
func (s ShardLoad) score() int64 {
	return s.CloneBytes + s.LockWaitNS/16 + s.Mutations*64
}

// BalancePolicy bounds what the rebalancer may do. Zero values take
// the defaults below.
type BalancePolicy struct {
	// MaxShards caps live shards; splits stop there.
	MaxShards int
	// MinShardNodes is the merge size ceiling and half the split size
	// floor: a shard splits only above 2*MinShardNodes, merges only at
	// or below MinShardNodes.
	MinShardNodes int
	// SplitFraction is the share of the total tick score one shard must
	// carry to be declared hot.
	SplitFraction float64
	// SplitMinMutations is the minimum mutation delta for a split —
	// a shard that is large but quiet is left alone.
	SplitMinMutations int64
	// MergeMaxMutations is the maximum mutation delta for a merge
	// participant — only quiet shards fold together.
	MergeMaxMutations int64
}

func (p BalancePolicy) withDefaults() BalancePolicy {
	if p.MaxShards <= 0 {
		p.MaxShards = 32
	}
	if p.MinShardNodes <= 0 {
		p.MinShardNodes = 16
	}
	if p.SplitFraction <= 0 {
		p.SplitFraction = 0.5
	}
	if p.SplitMinMutations <= 0 {
		p.SplitMinMutations = 8
	}
	// MergeMaxMutations: 0 is the default (merge only untouched shards).
	return p
}

// Decision is one tick's verdict: Split is the shard slot to split
// (-1 for none), MergeSrc/MergeDst the pair to fold (src's items move
// into dst; -1/-1 for none). A tick never splits and merges the same
// slot.
type Decision struct {
	Split    int
	MergeSrc int
	MergeDst int
}

// Decide picks at most one split and one merge from a tick's loads.
// Split: the highest-scoring live shard, if it is hot (carries at
// least SplitFraction of the total score), busy (SplitMinMutations),
// big enough to split (> 2*MinShardNodes), and the live count is below
// MaxShards. Merge: the two smallest quiet live shards at or below
// MinShardNodes, smaller folding into larger so the lighter epoch is
// the one cloned around.
func Decide(loads []ShardLoad, pol BalancePolicy) Decision {
	pol = pol.withDefaults()
	d := Decision{Split: -1, MergeSrc: -1, MergeDst: -1}
	live := 0
	var total int64
	for _, l := range loads {
		if !l.Live {
			continue
		}
		live++
		total += l.score()
	}
	if live == 0 {
		return d
	}

	if live < pol.MaxShards && total > 0 {
		best, bestScore := -1, int64(0)
		for _, l := range loads {
			if !l.Live || l.Nodes < 2*pol.MinShardNodes || l.Mutations < pol.SplitMinMutations {
				continue
			}
			if s := l.score(); s > bestScore {
				best, bestScore = l.Shard, s
			}
		}
		if best >= 0 && float64(bestScore) >= pol.SplitFraction*float64(total) {
			d.Split = best
		}
	}

	if live > 1 {
		var quiet []ShardLoad
		for _, l := range loads {
			if l.Live && l.Shard != d.Split &&
				l.Nodes > 0 && l.Nodes <= pol.MinShardNodes &&
				l.Mutations <= pol.MergeMaxMutations {
				quiet = append(quiet, l)
			}
		}
		if len(quiet) >= 2 {
			sort.Slice(quiet, func(i, j int) bool {
				if quiet[i].Nodes != quiet[j].Nodes {
					return quiet[i].Nodes < quiet[j].Nodes
				}
				return quiet[i].Shard < quiet[j].Shard
			})
			d.MergeSrc, d.MergeDst = quiet[0].Shard, quiet[1].Shard
		}
	}
	return d
}

// SplitPartition divides a hot shard's nodes (sorted ascending) into
// the set that stays and the set that moves to the new shard. Nodes in
// hot — the shard's recently mutated set — alternate stay/move so the
// write pressure itself is what gets halved, not just the node count;
// the cold remainder splits by a salted hash so repeated splits of the
// same shard cut along different lines.
func SplitPartition(nodes []graph.NodeID, hot map[graph.NodeID]bool, salt uint64) (stay, move []graph.NodeID) {
	toggle := false
	for _, v := range nodes {
		if hot[v] {
			if toggle {
				move = append(move, v)
			} else {
				stay = append(stay, v)
			}
			toggle = !toggle
			continue
		}
		x := uint64(v) ^ salt
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x&1 == 1 {
			move = append(move, v)
		} else {
			stay = append(stay, v)
		}
	}
	// A split that moves nothing (or everything) is useless; force at
	// least one node each way so the split always makes progress.
	if len(move) == 0 && len(stay) > 1 {
		move = append(move, stay[len(stay)-1])
		stay = stay[:len(stay)-1]
	}
	if len(stay) == 0 && len(move) > 1 {
		stay = append(stay, move[len(move)-1])
		move = move[:len(move)-1]
	}
	return stay, move
}
