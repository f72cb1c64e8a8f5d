package ned

import (
	"context"
	"sort"
)

// Query planning. A Plan is the explicit, inspectable form of "how this
// query will execute over the shards": which shards participate, in
// what mode the fan-out runs. The Corpus builds one from live shard
// sizes per query or per batch; the planner exists because the fixed all-shards fan-out that is optimal
// for large balanced corpora costs small or skewed ones real latency
// (BenchmarkCorpusParallelChurn read +66% per op at shards=4 against
// shards=1 on one core), and the statistics to do better are already
// being collected.
//
// Every mode answers node-identically to the naive all-shards fan-out:
//   - PlanParallel IS that fan-out;
//   - PlanSequential visits shards one by one, largest first, and once
//     l results are held it narrows each remaining shard to a range
//     query at the current l-th distance t. Any candidate that enters
//     the global top-l has distance <= t, and Range includes distance
//     == t, so no winner is missed and the canonical merge reproduces
//     the parallel answer exactly;
//   - PlanSingle is the one-live-shard (or empty) degenerate case.

// PlanMode is the fan-out strategy a plan executes.
type PlanMode int

const (
	// PlanParallel queries every live shard concurrently on the
	// executor and merges canonically — the classic fan-out.
	PlanParallel PlanMode = iota
	// PlanSequential visits live shards largest-first, carrying the
	// running l-th distance as a range bound into later shards. Cheaper
	// than parallel when the corpus is small or the executor has one
	// worker (fan-out overhead with no concurrency to buy).
	PlanSequential
	// PlanSingle short-circuits to a direct call on the only live
	// shard (or answers empty when none is live).
	PlanSingle
)

func (m PlanMode) String() string {
	switch m {
	case PlanParallel:
		return "parallel"
	case PlanSequential:
		return "sequential"
	default:
		return "single"
	}
}

// PlanShard is one shard's slice of a plan: its index and live item
// count.
type PlanShard struct {
	Ix Index
	N  int
}

// Plan is an executable query plan over a fixed set of live shards.
// Plans are built per query (or once per batch) and are immutable.
type Plan struct {
	Mode   PlanMode
	Shards []PlanShard
}

// PlanInput is what BuildPlan decides from: the live shards (N > 0
// each), the executor width available to a parallel fan-out, the
// result size l (0 for range queries), and the sequential-total
// threshold (<= 0 takes the default).
type PlanInput struct {
	Shards  []PlanShard
	Workers int
	L       int
	SeqMax  int
}

// defaultSeqMax is the total-corpus-size threshold below which a
// sequential visit beats the parallel fan-out when no corpus-derived
// value is supplied.
const defaultSeqMax = 1024

// BuildPlan picks the fan-out mode: single for <= 1 live shard,
// sequential when there is no concurrency to buy (one worker) or the
// whole corpus is small enough that fan-out overhead dominates, and
// parallel otherwise. Sequential plans order shards largest-first so
// the range-narrowing threshold tightens as early as possible.
func BuildPlan(in PlanInput) *Plan {
	p := &Plan{Shards: in.Shards}
	if len(in.Shards) <= 1 {
		p.Mode = PlanSingle
		return p
	}
	total := 0
	for i := range in.Shards {
		total += in.Shards[i].N
	}
	seqMax := in.SeqMax
	if seqMax <= 0 {
		seqMax = defaultSeqMax
	}
	if in.Workers <= 1 || total <= seqMax {
		p.Mode = PlanSequential
		sort.SliceStable(p.Shards, func(i, j int) bool { return p.Shards[i].N > p.Shards[j].N })
		return p
	}
	p.Mode = PlanParallel
	return p
}

// KNN executes the plan for a top-l query. Answers are node-identical
// to FanKNN over the same shards (see the file comment for why).
func (p *Plan) KNN(ctx context.Context, exec *Executor, query Item, l int) ([]Neighbor, error) {
	switch p.Mode {
	case PlanSingle:
		if len(p.Shards) == 0 {
			return nil, ctx.Err()
		}
		return p.Shards[0].Ix.KNN(ctx, query, l)
	case PlanSequential:
		var acc []Neighbor
		for i := range p.Shards {
			ix := p.Shards[i].Ix
			var res []Neighbor
			var err error
			if len(acc) < l {
				res, err = ix.KNN(ctx, query, l)
			} else {
				// acc already holds l results; anything that still enters
				// the top-l is within the current l-th distance, and Range
				// is inclusive, so ties survive for the canonical merge.
				res, err = ix.Range(ctx, query, acc[len(acc)-1].Dist)
			}
			if err != nil {
				return nil, err
			}
			acc = MergeTopL([][]Neighbor{acc, res}, l)
		}
		return acc, nil
	default:
		per := make([][]Neighbor, len(p.Shards))
		errs := make([]error, len(p.Shards))
		if err := exec.Do(ctx, len(p.Shards), 0, func(i int) {
			per[i], errs[i] = p.Shards[i].Ix.KNN(ctx, query, l)
		}); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return MergeTopL(per, l), nil
	}
}

// Range executes the plan for a range query: the exact union of
// per-shard range results, canonically sorted.
func (p *Plan) Range(ctx context.Context, exec *Executor, query Item, r int) ([]Neighbor, error) {
	switch p.Mode {
	case PlanSingle:
		if len(p.Shards) == 0 {
			return nil, ctx.Err()
		}
		return p.Shards[0].Ix.Range(ctx, query, r)
	case PlanSequential:
		per := make([][]Neighbor, len(p.Shards))
		for i := range p.Shards {
			var err error
			if per[i], err = p.Shards[i].Ix.Range(ctx, query, r); err != nil {
				return nil, err
			}
		}
		return mergeSorted(per), nil
	default:
		per := make([][]Neighbor, len(p.Shards))
		errs := make([]error, len(p.Shards))
		if err := exec.Do(ctx, len(p.Shards), 0, func(i int) {
			per[i], errs[i] = p.Shards[i].Ix.Range(ctx, query, r)
		}); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return mergeSorted(per), nil
	}
}
