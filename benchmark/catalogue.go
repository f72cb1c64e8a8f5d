package main

// The metric catalogue: every name the harness can emit, with its unit
// and the layer it belongs to. BENCHMARK.json at the repository root
// lists the same names (a test keeps the two and README.md in step);
// the bound of each end-to-end metric lives only there.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; end-to-end metrics only
}

// Workload names are fixed: later issues cite them.
const (
	wlWire    = "serve-wire"
	wlRead    = "serve-read"
	wlMixed   = "serve-mixed"
	wlRecover = "crash-recover"
)

var workloadNames = []string{wlWire, wlRead, wlMixed, wlRecover}

// endToEnd lists what a user of the daemon sees. Every workload reports
// every one of them (each workload runs queries, mutations and one
// restart on a durable tenant; they differ in which phase dominates, at
// what corpus size and with what concurrency).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_qps", "1/s", "higher"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"wal_bytes_per_mut", "B", "lower"},
	{"disk_bytes_per_node", "B", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// perLayer lists the metrics of single layers, emitted by the traced
// run. The prefix before the first dot is the layer.
var perLayer = []metricDef{
	// hungarian
	{Name: "hungarian.solve_ns.n8", Unit: "ns"},
	{Name: "hungarian.solve_ns.n32", Unit: "ns"},
	{Name: "hungarian.solve_ns.n128", Unit: "ns"},
	{Name: "hungarian.solve_atmost_ns.n32", Unit: "ns"},
	// ted
	{Name: "ted.distance_ns_p50", Unit: "ns"},
	{Name: "ted.distance_ns_p95", Unit: "ns"},
	{Name: "ted.atmost_ns_p50", Unit: "ns"},
	{Name: "ted.early_exit_ratio", Unit: "ratio"},
	{Name: "ted.bound_ns", Unit: "ns"},
	{Name: "ted.bound_tightness", Unit: "ratio"},
	// tree
	{Name: "tree.kadjacent_us", Unit: "us"},
	{Name: "tree.profile_us", Unit: "us"},
	{Name: "tree.compile_arena_ms.shard", Unit: "ms"},
	{Name: "tree.decode_us", Unit: "us"},
	{Name: "tree.encode_us", Unit: "us"},
	{Name: "tree.nodes_p50", Unit: "count"},
	{Name: "tree.nodes_p95", Unit: "count"},
	// graph
	{Name: "graph.edgediff_ms", Unit: "ms"},
	{Name: "graph.nodeswithin_us", Unit: "us"},
	// ned (internal/ned): one shard's items per backend
	{Name: "ned.build_ms.pruned.n512", Unit: "ms"},
	{Name: "ned.build_ms.linear.n512", Unit: "ms"},
	{Name: "ned.build_ms.vp.n512", Unit: "ms"},
	{Name: "ned.build_ms.bk.n512", Unit: "ms"},
	{Name: "ned.knn_us.pruned.n512", Unit: "us"},
	{Name: "ned.knn_us.linear.n512", Unit: "us"},
	{Name: "ned.knn_us.vp.n512", Unit: "us"},
	{Name: "ned.knn_us.bk.n512", Unit: "us"},
	{Name: "ned.knn_ted_calls.pruned.n512", Unit: "count"},
	{Name: "ned.knn_ted_calls.linear.n512", Unit: "count"},
	{Name: "ned.knn_ted_calls.vp.n512", Unit: "count"},
	{Name: "ned.knn_ted_calls.bk.n512", Unit: "count"},
	{Name: "ned.knn_us.pruned.shard", Unit: "us"},
	{Name: "ned.knn_us.linear.shard", Unit: "us"},
	{Name: "ned.knn_ted_calls.pruned.shard", Unit: "count"},
	{Name: "ned.knn_ted_calls.linear.shard", Unit: "count"},
	{Name: "ned.sweep_ns_per_candidate", Unit: "ns"},
	{Name: "ned.size_survivor_ratio", Unit: "ratio"},
	{Name: "ned.padding_survivor_ratio", Unit: "ratio"},
	{Name: "ned.label_survivor_ratio", Unit: "ratio"},
	{Name: "ned.early_exit_ratio", Unit: "ratio"},
	{Name: "ned.fanknn_us.s1", Unit: "us"},
	{Name: "ned.fanknn_us.s2", Unit: "us"},
	{Name: "ned.fanknn_us.s4", Unit: "us"},
	{Name: "ned.fanknn_ted_calls.s1", Unit: "count"},
	{Name: "ned.fanknn_ted_calls.s2", Unit: "count"},
	{Name: "ned.fanknn_ted_calls.s4", Unit: "count"},
	{Name: "ned.mergetopl_ns", Unit: "ns"},
	{Name: "ned.plan_build_ns", Unit: "ns"},
	{Name: "ned.insert_us.pruned.shard", Unit: "us"},
	{Name: "ned.remove_us.pruned.shard", Unit: "us"},
	{Name: "ned.clone_ms.pruned.shard", Unit: "ms"},
	// vptree
	{Name: "vptree.build_dist_calls.n512", Unit: "count"},
	{Name: "vptree.knn_dist_calls.n512", Unit: "count"},
	// corpus (root package)
	{Name: "corpus.build_ms", Unit: "ms"},
	{Name: "corpus.knn_us_p50", Unit: "us"},
	{Name: "corpus.knn_us_p95", Unit: "us"},
	{Name: "corpus.knnsig_us_p50", Unit: "us"},
	{Name: "corpus.knnsig_us_p95", Unit: "us"},
	{Name: "corpus.batchknn_us_per_sig", Unit: "us"},
	{Name: "corpus.range_us_p50", Unit: "us"},
	{Name: "corpus.insert_us_p50", Unit: "us"},
	{Name: "corpus.remove_us_p50", Unit: "us"},
	{Name: "corpus.updategraph_ms", Unit: "ms"},
	{Name: "corpus.updategraph_refreshed", Unit: "count"},
	{Name: "corpus.ted_calls_per_query", Unit: "count"},
	{Name: "corpus.block_candidates_per_query", Unit: "count"},
	{Name: "corpus.plan_scans_per_query", Unit: "count"},
	{Name: "corpus.lock_wait_us_per_mut", Unit: "us"},
	{Name: "corpus.clone_bytes_per_mut", Unit: "B"},
	{Name: "corpus.makedurable_ms", Unit: "ms"},
	{Name: "corpus.checkpoint_ms", Unit: "ms"},
	{Name: "corpus.checkpoint_bytes", Unit: "B"},
	{Name: "corpus.opendurable_ms", Unit: "ms"},
	{Name: "corpus.first_query_after_open_ms", Unit: "ms"},
	// segment
	{Name: "segment.write_ms", Unit: "ms"},
	{Name: "segment.read_ms", Unit: "ms"},
	{Name: "segment.verify_ms", Unit: "ms"},
	{Name: "segment.bytes_per_node", Unit: "B"},
	{Name: "segment.wal_commit_us_p50.always", Unit: "us"},
	{Name: "segment.wal_commit_us_p95.always", Unit: "us"},
	{Name: "segment.wal_commit_us_p50.none", Unit: "us"},
	{Name: "segment.wal_bytes_per_record", Unit: "B"},
	{Name: "segment.wal_replay_us_per_record", Unit: "us"},
	{Name: "segment.fsyncs_per_commit", Unit: "count"},
	{Name: "segment.fsyncs_per_checkpoint", Unit: "count"},
	{Name: "segment.write_calls_per_checkpoint", Unit: "count"},
	// serve (internal/serve)
	{Name: "serve.decode_us.knn", Unit: "us"},
	{Name: "serve.decode_us.knnsig", Unit: "us"},
	{Name: "serve.encode_us.query", Unit: "us"},
	{Name: "serve.req_bytes.knnsig", Unit: "B"},
	{Name: "serve.resp_bytes", Unit: "B"},
	{Name: "serve.handler_us_p50.knn", Unit: "us"},
	{Name: "serve.handler_us_p50.knnsig", Unit: "us"},
	{Name: "serve.coalesce_wait_us_p50", Unit: "us"},
	{Name: "serve.coalesced_ratio", Unit: "ratio"},
	{Name: "serve.coalesce_batch_mean", Unit: "count"},
	{Name: "serve.overloads", Unit: "count"},
	{Name: "serve.metrics_scrape_ms", Unit: "ms"},
	// nedserve (the process)
	{Name: "nedserve.boot_ms", Unit: "ms"},
	{Name: "nedserve.create_ms", Unit: "ms"},
	{Name: "nedserve.cpu_s", Unit: "s"},
	{Name: "nedserve.restart_to_first_query_s", Unit: "s"},
	{Name: "nedserve.socket_us_p50", Unit: "us"},
	// client (the harness's load generator)
	{Name: "client.sent", Unit: "count"},
	{Name: "client.ok", Unit: "count"},
	{Name: "client.failed", Unit: "count"},
	{Name: "client.wrong", Unit: "count"},
	{Name: "client.fail_ratio", Unit: "ratio"},
	{Name: "client.acked_lost", Unit: "count"},
	{Name: "client.query_p95_ms", Unit: "ms"},
	{Name: "client.query_p99_ms", Unit: "ms"},
	{Name: "client.mut_p50_ms", Unit: "ms"},
	{Name: "client.mut_mean_ms", Unit: "ms"},
	{Name: "client.updategraph_ms_p50", Unit: "ms"},
	{Name: "client.cpu_share", Unit: "ratio"},
	{Name: "client.deanon_precision_at5", Unit: "ratio"},
	{Name: "client.trace_overhead_pct", Unit: "%"},
	// host
	{Name: "host.nproc", Unit: "count"},
	{Name: "host.steal_pct", Unit: "%"},
	{Name: "host.calib_ms", Unit: "ms"},
}
