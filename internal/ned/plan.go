package ned

import "sort"

// What is left of query planning, kept only because the benchmark
// harness compiles against it (benchmark/trace.go and layers.go call
// BuildPlan and time it as ned.plan_build_ns): nothing in the engine
// plans any more. A sharded query is one sweep over every shard's block
// under one top-l collector (scanKNN via FanKNN), so there is no fan-out
// mode left to choose, and Plan has nothing to execute. ROADMAP item 4
// deletes this file once the harness stops naming it (item 1a).

// PlanMode names the fan-out strategies the retired planner chose
// between; BuildPlan still reports one.
type PlanMode int

const (
	PlanParallel   PlanMode = iota // every live shard at once
	PlanSequential                 // shards one by one, largest first
	PlanSingle                     // one live shard, or none
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

// Plan is BuildPlan's answer: a mode and the live shards. Harness-pinned;
// nothing executes it.
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

// defaultSeqMax is the SeqMax a zero PlanInput.SeqMax takes.
const defaultSeqMax = 1024

// BuildPlan applies the retired planner's rule: single for <= 1 live
// shard, sequential (shards largest first) with one worker or at most
// SeqMax items in all, parallel otherwise.
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
