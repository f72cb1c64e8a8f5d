package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ned"
)

// latencyBuckets are the request-duration histogram bounds in seconds,
// spanning sub-millisecond cache-hot KNN up to multi-second batch and
// snapshot work.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is a fixed-bucket, lock-free latency histogram in the
// Prometheus cumulative style.
type histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64 // +Inf tail
	sumNS  atomic.Int64
	count  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], s)
	h.counts[i].Add(1)
	h.sumNS.Add(d.Nanoseconds())
	h.count.Add(1)
}

// metrics holds the server-side counters: per-endpoint request counts
// keyed by outcome code, and per-endpoint latency histograms. Endpoint
// names are a fixed set, so the maps are built once and only their
// values mutate (atomically).
type metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]*atomic.Int64 // endpoint -> HTTP status -> count
	latency  map[string]*histogram
	panics   atomic.Int64 // handler + background panics recovered
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]*atomic.Int64),
		latency:  make(map[string]*histogram),
	}
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	byStatus := m.requests[endpoint]
	if byStatus == nil {
		byStatus = make(map[int]*atomic.Int64)
		m.requests[endpoint] = byStatus
	}
	ctr := byStatus[status]
	if ctr == nil {
		ctr = &atomic.Int64{}
		byStatus[status] = ctr
	}
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	ctr.Add(1)
	h.observe(d)
}

// requestTotals returns a stable-ordered copy of the request counters.
func (m *metrics) requestTotals() (endpoints []string, rows map[string]map[int]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows = make(map[string]map[int]int64, len(m.requests))
	for ep, byStatus := range m.requests {
		endpoints = append(endpoints, ep)
		rows[ep] = make(map[int]int64, len(byStatus))
		for status, ctr := range byStatus {
			rows[ep][status] = ctr.Load()
		}
	}
	sort.Strings(endpoints)
	return endpoints, rows
}

// WriteMetrics renders the full exposition in Prometheus text format:
// the server's request/latency/in-flight/overload/coalescing counters,
// then every registered corpus's engine counters — the filter-cascade
// tier prunes, node count and write-contention counters — labeled by
// corpus.
func (s *Server) WriteMetrics(w io.Writer) {
	// --- server counters ---
	fmt.Fprintf(w, "# HELP nedserve_requests_total Requests served, by endpoint and HTTP status.\n")
	fmt.Fprintf(w, "# TYPE nedserve_requests_total counter\n")
	endpoints, rows := s.met.requestTotals()
	for _, ep := range endpoints {
		statuses := make([]int, 0, len(rows[ep]))
		for st := range rows[ep] {
			statuses = append(statuses, st)
		}
		sort.Ints(statuses)
		for _, st := range statuses {
			fmt.Fprintf(w, "nedserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, st, rows[ep][st])
		}
	}

	fmt.Fprintf(w, "# HELP nedserve_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE nedserve_request_duration_seconds histogram\n")
	s.met.mu.Lock()
	histEndpoints := make([]string, 0, len(s.met.latency))
	hists := make(map[string]*histogram, len(s.met.latency))
	for ep, h := range s.met.latency {
		histEndpoints = append(histEndpoints, ep)
		hists[ep] = h
	}
	s.met.mu.Unlock()
	sort.Strings(histEndpoints)
	for _, ep := range histEndpoints {
		h := hists[ep]
		var cum int64
		for i, bound := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "nedserve_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "nedserve_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "nedserve_request_duration_seconds_sum{endpoint=%q} %g\n",
			ep, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "nedserve_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.count.Load())
	}

	ss := s.Stats()
	fmt.Fprintf(w, "# HELP nedserve_inflight_queries Queries currently admitted and executing.\n")
	fmt.Fprintf(w, "# TYPE nedserve_inflight_queries gauge\n")
	fmt.Fprintf(w, "nedserve_inflight_queries %d\n", ss.Inflight)
	fmt.Fprintf(w, "# HELP nedserve_inflight_limit Admission-control in-flight query capacity.\n")
	fmt.Fprintf(w, "# TYPE nedserve_inflight_limit gauge\n")
	fmt.Fprintf(w, "nedserve_inflight_limit %d\n", ss.InflightLimit)
	fmt.Fprintf(w, "# HELP nedserve_overloads_total Queries refused with 429 by admission control.\n")
	fmt.Fprintf(w, "# TYPE nedserve_overloads_total counter\n")
	fmt.Fprintf(w, "nedserve_overloads_total %d\n", ss.Overloads)
	fmt.Fprintf(w, "# HELP nedserve_coalesce_batches_total Multi-request BatchKNN passes run by the coalescer.\n")
	fmt.Fprintf(w, "# TYPE nedserve_coalesce_batches_total counter\n")
	fmt.Fprintf(w, "nedserve_coalesce_batches_total %d\n", ss.CoalesceBatches)
	fmt.Fprintf(w, "# HELP nedserve_coalesced_requests_total KNN requests served by a shared coalesced pass.\n")
	fmt.Fprintf(w, "# TYPE nedserve_coalesced_requests_total counter\n")
	fmt.Fprintf(w, "nedserve_coalesced_requests_total %d\n", ss.CoalescedRequests)
	fmt.Fprintf(w, "# HELP nedserve_coalesce_queue_wait_seconds Time KNN requests spent queued before their batch pass started; requests that ran at once are not observed.\n")
	fmt.Fprintf(w, "# TYPE nedserve_coalesce_queue_wait_seconds summary\n")
	fmt.Fprintf(w, "nedserve_coalesce_queue_wait_seconds_sum %g\n", float64(ss.CoalesceQueueWaitNS)/1e9)
	fmt.Fprintf(w, "nedserve_coalesce_queue_wait_seconds_count %d\n", ss.CoalesceQueueWaits)
	fmt.Fprintf(w, "# HELP nedserve_corpora Registered corpora.\n")
	fmt.Fprintf(w, "# TYPE nedserve_corpora gauge\n")
	fmt.Fprintf(w, "nedserve_corpora %d\n", s.reg.Len())
	fmt.Fprintf(w, "# HELP ned_server_panics_total Panics recovered by the serving tier (handlers and background flushes).\n")
	fmt.Fprintf(w, "# TYPE ned_server_panics_total counter\n")
	fmt.Fprintf(w, "ned_server_panics_total %d\n", ss.Panics)

	// --- per-corpus engine counters ---
	// One Stats snapshot per tenant, then metric by metric: the text
	// format wants every sample of a metric name in one block.
	tenants := s.reg.All()
	stats := make([]ned.CorpusStats, len(tenants))
	for i, t := range tenants {
		stats[i] = t.Corpus.Stats()
	}
	emit := func(name, typ, help string, sample func(i int)) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i := range tenants {
			sample(i)
		}
	}
	emit("ned_corpus_nodes", "gauge", "Indexed node count.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_nodes{corpus=%q} %d\n", tenants[i].Name, stats[i].Nodes)
	})
	emit("ned_corpus_lock_wait_ns_total", "counter", "Nanoseconds mutators spent waiting on the corpus write lock.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_lock_wait_ns_total{corpus=%q} %d\n", tenants[i].Name, stats[i].ShardLockWaitNS[0])
	})
	emit("ned_corpus_mutations_total", "counter", "Nodes mutated (inserted, removed, or refreshed).", func(i int) {
		fmt.Fprintf(w, "ned_corpus_mutations_total{corpus=%q} %d\n", tenants[i].Name, stats[i].ShardMutations[0])
	})
	emit("ned_corpus_clone_bytes_total", "counter", "Approximate bytes of epoch state copied by mutations.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_clone_bytes_total{corpus=%q} %d\n", tenants[i].Name, stats[i].ShardCloneBytes[0])
	})
	emit("ned_corpus_plan_scans_total", "counter", "Scan-over-tree decisions of the retired planner; always 0.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_plan_scans_total{corpus=%q} %d\n", tenants[i].Name, stats[i].PlanScans)
	})
	emit("ned_corpus_queries_total", "counter", "Queries served by the engine.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_queries_total{corpus=%q} %d\n", tenants[i].Name, stats[i].Queries)
	})
	emit("ned_corpus_distance_calls_total", "counter", "TED* evaluations started.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_distance_calls_total{corpus=%q} %d\n", tenants[i].Name, stats[i].DistanceCalls)
	})
	emit("ned_corpus_early_exits_total", "counter", "TED* evaluations abandoned by the budget mid-computation.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_early_exits_total{corpus=%q} %d\n", tenants[i].Name, stats[i].EarlyExits)
	})
	emit("ned_corpus_lower_bound_prunes_total", "counter", "Candidates dismissed by a precompiled lower bound (sum of the cascade tiers).", func(i int) {
		fmt.Fprintf(w, "ned_corpus_lower_bound_prunes_total{corpus=%q} %d\n", tenants[i].Name, stats[i].LowerBoundPrunes)
	})
	emit("ned_corpus_cascade_prunes_total", "counter", "Candidates dismissed per filter-cascade tier (size, padding, label = tier 2 (degree sequence)).", func(i int) {
		n := tenants[i].Name
		fmt.Fprintf(w, "ned_corpus_cascade_prunes_total{corpus=%q,tier=\"size\"} %d\n", n, stats[i].SizePrunes)
		fmt.Fprintf(w, "ned_corpus_cascade_prunes_total{corpus=%q,tier=\"padding\"} %d\n", n, stats[i].PaddingPrunes)
		fmt.Fprintf(w, "ned_corpus_cascade_prunes_total{corpus=%q,tier=\"label\"} %d\n", n, stats[i].LabelPrunes)
	})
	emit("ned_corpus_block_candidates_total", "counter", "Live candidates of the cascade scan's queries.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_block_candidates_total{corpus=%q} %d\n", tenants[i].Name, stats[i].BlockCandidates)
	})
	emit("ned_corpus_rows_bound_total", "counter", "Block rows whose size and padding bounds the queries' kernels computed (each query's size window).", func(i int) {
		fmt.Fprintf(w, "ned_corpus_rows_bound_total{corpus=%q} %d\n", tenants[i].Name, stats[i].RowsBound)
	})
	emit("ned_corpus_hungarian_cells_total", "counter", "Cost-matrix cells the verify stage's TED* computations handed the Hungarian solver.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_hungarian_cells_total{corpus=%q} %d\n", tenants[i].Name, stats[i].HungarianCells)
	})
	emit("ned_corpus_verify_levels_total", "counter", "Tree levels the verify stage's TED* computations swept.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_verify_levels_total{corpus=%q} %d\n", tenants[i].Name, stats[i].VerifyLevels)
	})
	emit("ned_corpus_block_survivors_total", "counter", "Block-kernel candidates that passed each cascade tier (label = tier 2 (degree sequence); its survivors reached verify).", func(i int) {
		n := tenants[i].Name
		fmt.Fprintf(w, "ned_corpus_block_survivors_total{corpus=%q,tier=\"size\"} %d\n", n, stats[i].BlockSizeSurvivors)
		fmt.Fprintf(w, "ned_corpus_block_survivors_total{corpus=%q,tier=\"padding\"} %d\n", n, stats[i].BlockPaddingSurvivors)
		fmt.Fprintf(w, "ned_corpus_block_survivors_total{corpus=%q,tier=\"label\"} %d\n", n, stats[i].BlockLabelSurvivors)
	})

	// --- per-corpus durability health ---
	healths := make([]ned.DurableHealth, len(tenants))
	for i, t := range tenants {
		healths[i] = t.Corpus.DurableHealth()
	}
	emit("ned_corpus_durable", "gauge", "1 when the corpus persists mutations to a durable directory.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_durable{corpus=%q} %d\n", tenants[i].Name, b2i(healths[i].Durable))
	})
	emit("ned_corpus_degraded", "gauge", "1 while durable storage failure has the corpus refusing mutations (reads unaffected).", func(i int) {
		fmt.Fprintf(w, "ned_corpus_degraded{corpus=%q} %d\n", tenants[i].Name, b2i(healths[i].Degraded))
	})
	emit("ned_corpus_degraded_seconds", "gauge", "Seconds since the corpus degraded; 0 while healthy.", func(i int) {
		secs := 0.0
		if healths[i].Degraded {
			secs = time.Since(healths[i].Since).Seconds()
		}
		fmt.Fprintf(w, "ned_corpus_degraded_seconds{corpus=%q} %g\n", tenants[i].Name, secs)
	})
	emit("ned_corpus_recovery_attempts_total", "counter", "Verified-rewrite recovery attempts made while degraded.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_recovery_attempts_total{corpus=%q} %d\n", tenants[i].Name, healths[i].RecoveryAttempts)
	})
	emit("ned_corpus_quarantined_checkpoints_total", "counter", "Checkpoint generations renamed aside as unreadable.", func(i int) {
		fmt.Fprintf(w, "ned_corpus_quarantined_checkpoints_total{corpus=%q} %d\n", tenants[i].Name, healths[i].QuarantinedCheckpoints)
	})
	emit("ned_corpus_wal_records", "gauge", "Mutation records in the active log generation (replay debt at next recovery).", func(i int) {
		fmt.Fprintf(w, "ned_corpus_wal_records{corpus=%q} %d\n", tenants[i].Name, healths[i].WALRecords)
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
