package ned

import "testing"

// Plan.KNN / Plan.Range being node-identical to the reference fan-out
// in every mode is pinned by TestPlannerEquivalence in internal/ned;
// the shard-count, churn, and snapshot equivalence suites here all
// answer through plans.

// TestPlannerStatsCounters: every query is accounted to exactly one
// plan mode, and ResetStats zeroes the plan counters.
func TestPlannerStatsCounters(t *testing.T) {
	g := randomGraph(120, 360, 7)
	c, err := NewCorpus(g, 2, WithShards(4))
	if err != nil {
		t.Fatalf("NewCorpus: %v", err)
	}
	queryFingerprint(t, c, g, 2)

	s := c.Stats()
	planned := s.PlanParallel + s.PlanSequential + s.PlanSingle
	if planned == 0 {
		t.Error("corpus served queries but recorded no plan modes")
	}
	if planned != s.Queries {
		t.Errorf("plan modes (%d) do not account for every query (%d)", planned, s.Queries)
	}

	c.ResetStats()
	s = c.Stats()
	if n := s.PlanParallel + s.PlanSequential + s.PlanSingle + s.PlanScans; n != 0 {
		t.Errorf("ResetStats left plan counters at %d", n)
	}
}
