package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ned/internal/graph"
)

// config is one invocation's settings. The zero values below trace are
// filled by withDefaults; the smoke test shrinks them.
type config struct {
	nedserve string // daemon binary
	workDir  string // scratch for data directories and logs
	outDir   string // where trace files go
	seed     int64
	seconds  float64 // measured-phase budget of one workload
	trace    bool

	toyScale             float64 // test-only: every corpus at this PGP scale
	opsDiv               int     // divides every round's op counts
	minRounds, maxRounds int
	setups               int  // repetitions of the measured set-up
	corruptOracle        bool // test-only: see conn.corrupt
}

// Corpus sizes. Small is the PGP analog as the repo ships it; large is
// four times that, 10 680 nodes — the size of the real PGP web of trust
// the paper measures. (PGP×10 takes ~6 s per daemon set-up on this
// host; with set-up measured five times a run it does not fit the
// driver's budget.)
const (
	smallScale = 1
	largeScale = 4
	// closingRestarts is how often the three serving workloads repeat
	// their closing SIGKILL-and-restart.
	closingRestarts = 3
	// workloadCap aborts a workload that hangs instead of hanging the
	// caller.
	workloadCap = 150 * time.Second
)

func (c config) withDefaults() config {
	if c.opsDiv == 0 {
		c.opsDiv = 1
	}
	if c.minRounds == 0 {
		c.minRounds = 3
	}
	if c.maxRounds == 0 {
		c.maxRounds = 40
	}
	if c.setups == 0 {
		c.setups = 3
	}
	return c
}

// outcome is what one workload run reports.
type outcome struct {
	Workload  string    `json:"workload"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Rounds    int       `json:"rounds"`
	Metrics   metricSet `json:"metrics"`
	Flagged   []string  `json:"flagged,omitempty"`
}

// round is the raw material of one measured round (one crash cycle of
// crash-recover).
type round struct {
	qLat, mLat []time.Duration
	qWall      time.Duration // window the queries ran in
	qOK        int           // correct query answers in it
	cpu        time.Duration // daemon CPU charged to cpuOps
	cpuOps     int
	walBytes   int64 // WAL growth over walMuts mutations
	walMuts    int
	restart    time.Duration // crash-recover only
	steal      float64
}

// runner drives one workload against one daemon at a time.
type runner struct {
	cfg   config
	wl    string
	ctx   context.Context
	hc    *http.Client
	in    *inputs
	first *op // the oracle query that proves a daemon answers correctly
	// createBody is the POST /v1/corpora request, encoded once.
	createBody []byte
	t          tally
	model      *model
	conns      []*conn // conns[0] also mutates and probes
	flags      []string

	d       *daemon
	dataDir string
	deadCPU time.Duration // CPU of daemons already reaped
	peakRSS float64
	lastWAL int64 // WAL bytes after the previous mutation; -1 unknown
	// checkpoints counts the log rotations the WAL samples have shown.
	checkpoints int

	bootMS    []float64
	createMS  float64 // the durable create request
	diskBytes int64

	// cursor is where the reads are in the query list: in rounds read
	// (nextReads), or for serve-mixed's reader in queries sent.
	cursor int

	// graphEpoch is odd while serve-mixed has the corpus graph changed
	// (updateGraph); the reader's oracle checks pause for it.
	graphEpoch atomic.Int64
}

// scratch returns an empty directory of the given name for this
// workload under the run's work directory.
func (r *runner) scratch(name string) (string, error) {
	dir := filepath.Join(r.cfg.workDir, r.wl+"-"+name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// tenantDir is where the daemon keeps the tenant's durable state.
func (r *runner) tenantDir() string { return filepath.Join(r.dataDir, tenantName) }

func (r *runner) cpuNow() time.Duration { return r.deadCPU + r.d.cpu() }

func (r *runner) notePeak() {
	if rss, err := procPeakRSS(r.d.pid()); err == nil && rss > r.peakRSS {
		r.peakRSS = rss
	}
}

// boot starts a daemon on r.dataDir and points the clients at it.
func (r *runner) boot() error {
	d, err := startDaemon(r.ctx, r.cfg.nedserve, r.dataDir,
		filepath.Join(r.cfg.workDir, "nedserve-"+r.wl+".log"), r.hc, r.flags...)
	if err != nil {
		return err
	}
	r.d = d
	for _, c := range r.conns {
		c.base = d.base
	}
	return nil
}

// reap kills the daemon and keeps its CPU and memory on the books.
func (r *runner) reap() time.Time {
	r.notePeak()
	at := r.d.kill()
	r.deadCPU += r.d.cpu()
	r.hc.CloseIdleConnections()
	return at
}

// firstAnswer sends the proving query; anything but a correct answer is
// an error.
func (r *runner) firstAnswer() error {
	if _, v := r.conns[0].do(r.first, nil); v != vOK {
		return fmt.Errorf("first query not answered correctly: %w", r.conns[0].firstErr)
	}
	return nil
}

// setupOnce boots a daemon, creates the corpus on it and waits for the
// first correct answer, and returns how long that took. With durable
// false the daemon keeps the tenant in memory — the interval setup_s
// measures; with durable true the create request also materialises the
// corpus into a fresh data directory (checkpoint 0 plus an empty log),
// which is the daemon the rounds then run against.
func (r *runner) setupOnce(durable bool) (time.Duration, error) {
	r.dataDir = ""
	if durable {
		var err error
		if r.dataDir, err = r.scratch("data"); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if err := r.boot(); err != nil {
		return 0, err
	}
	status, resp, lat, err := r.conns[0].post("/v1/corpora", r.createBody)
	if err != nil || status != http.StatusCreated {
		return 0, fmt.Errorf("creating corpus: status %d, %v: %s", status, err, resp)
	}
	if err := r.firstAnswer(); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	r.bootMS = append(r.bootMS, r.d.bootMS)
	if durable {
		r.createMS = ms(lat)
		// Right after create the directory holds exactly generation 0's
		// checkpoint and an empty log.
		r.diskBytes, err = dirBytes(r.tenantDir(), "")
		r.lastWAL = -1
	}
	return took, err
}

// restart is the interval nedserve.restart_to_first_query_s measures: SIGKILL
// delivered → first correct answer from the restarted daemon.
func (r *runner) restart() (time.Duration, error) {
	at := r.reap()
	if err := r.boot(); err != nil {
		return 0, err
	}
	r.lastWAL = -1
	if err := r.firstAnswer(); err != nil {
		return 0, err
	}
	return time.Since(at), nil
}

// verifyModel checks a restarted daemon against the acknowledged
// mutations: the indexed node count, and a range-0 probe per touched
// node. Every disagreement is an acknowledged mutation lost.
func (r *runner) verifyModel(touched []graph.NodeID) {
	c := r.conns[0]
	count := func(err error) {
		r.t.sent.Add(1)
		if err != nil {
			c.note(err)
			r.t.failed.Add(1)
		} else {
			r.t.ok.Add(1)
		}
	}
	n, err := c.statsNodes()
	count(err)
	if err == nil && n != r.model.count {
		c.note(fmt.Errorf("restarted daemon indexes %d nodes, acknowledged mutations leave %d", n, r.model.count))
		r.t.lost.Add(int64(max(n-r.model.count, r.model.count-n)))
	}
	for _, v := range touched {
		got, err := c.indexed(probeOp(r.in.corpus.sigs[v]))
		count(err)
		if err == nil && got != r.model.present[v] {
			c.note(fmt.Errorf("node %d indexed=%v after restart, acknowledged state is %v", v, got, r.model.present[v]))
			r.t.lost.Add(1)
		}
	}
}

// queryPhase replays ops closed-loop over the given clients (client i
// takes every len(conns)-th op) and records the window.
func (r *runner) queryPhase(ops []*op, conns []*conn, rd *round) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats := make([]time.Duration, 0, len(ops)/len(conns)+1)
			for i := ci; i < len(ops) && r.ctx.Err() == nil; i += len(conns) {
				if lat, v := c.do(ops[i], nil); v == vOK {
					lats = append(lats, lat)
				}
			}
			mu.Lock()
			rd.qLat = append(rd.qLat, lats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	rd.qWall = time.Since(t0)
	rd.qOK = len(rd.qLat)
}

// mutate sends one insert or remove from the writing client, applies
// the acknowledgement to the model, and samples the WAL's growth.
func (r *runner) mutate(kind opKind, v graph.NodeID, rd *round) {
	o := mutOp(kind, v)
	lat, verdict := r.conns[0].do(o, nil)
	if verdict != vOK {
		r.lastWAL = -1
		return
	}
	r.model.ack(o)
	wal, err := dirBytes(r.tenantDir(), "wal-")
	if err != nil {
		wal = -1
	}
	// A checkpoint rotates the log: the sample shrinks, and that one step
	// is left out of the growth per mutation.
	grew := r.lastWAL >= 0 && wal >= r.lastWAL
	if r.lastWAL >= 0 && wal >= 0 && !grew {
		r.checkpoints++
	}
	if rd != nil {
		rd.mLat = append(rd.mLat, lat)
		if grew {
			rd.walBytes += wal - r.lastWAL
			rd.walMuts++
		}
	}
	r.lastWAL = wal
}

func (r *runner) churnPairs(rd *round) {
	for _, v := range r.in.pairs {
		if r.ctx.Err() != nil {
			return
		}
		r.mutate(opRemove, v, rd)
		r.mutate(opInsert, v, rd)
	}
}

// nextReads is the part of the query list the next round reads.
func (r *runner) nextReads() []*op {
	n := r.in.reads
	at := r.cursor % (len(r.in.queries) / n) * n
	r.cursor++
	return r.in.queries[at : at+n]
}

// roundSeparate is a serve-wire / serve-read round: the read phase,
// then the mutation pairs on their own. CPU per op is charged over the
// read phase only.
func (r *runner) roundSeparate(rd *round) error {
	reads := r.nextReads()
	c0 := r.cpuNow()
	r.queryPhase(reads, r.conns, rd)
	rd.cpu, rd.cpuOps = r.cpuNow()-c0, len(reads)
	r.churnPairs(rd)
	return nil
}

// timedRead is one correct read of serve-mixed's client A.
type timedRead struct {
	start time.Time
	lat   time.Duration
}

// readBeside keeps client A reading, walking on through the query list,
// while write runs on client B, and returns A's correct reads.
func (r *runner) readBeside(write func()) []timedRead {
	a := r.conns[1]
	done := make(chan struct{})
	var reads []timedRead
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ; ; r.cursor++ {
			select {
			case <-done:
				return
			default:
			}
			e0 := r.graphEpoch.Load()
			clean := func() bool { return e0%2 == 0 && r.graphEpoch.Load() == e0 }
			t0 := time.Now()
			if lat, v := a.do(r.in.queries[r.cursor%len(r.in.queries)], clean); v == vOK {
				reads = append(reads, timedRead{t0, lat})
			}
		}
	}()
	write()
	close(done)
	wg.Wait()
	return reads
}

// roundMixed is a serve-mixed round: client A reads without a pause
// while client B writes. The measured window is B's remove/insert pairs
// and nothing else — A's latencies, answers per second and the daemon's
// CPU per operation are taken over it. The round's one full-segment
// checkpoint follows the window, on a pair of its own:
// -checkpoint-every is two more than the window logs, so the log fills
// up exactly there. The checkpoint is one request of 0.2–0.9 s, most of
// it a 60 MB fsync whose length is the device's; inside the window it
// decided how many of A's reads ran beside a mutation and how many
// beside a stalled writer, and with that every figure of the round.
func (r *runner) roundMixed(rd *round) error {
	var w0, w1 time.Time
	var c0, c1 time.Duration
	before, muts := r.checkpoints, 0
	var err error
	reads := r.readBeside(func() {
		w0, c0 = time.Now(), r.cpuNow()
		r.churnPairs(rd)
		w1, c1 = time.Now(), r.cpuNow()
		muts = len(rd.mLat)
		if r.checkpoints != before {
			err = errors.New("a checkpoint fell inside the measured window")
			return
		}
		v := r.in.pairs[0]
		for try := 0; r.checkpoints == before && try < 3 && r.ctx.Err() == nil; try++ {
			r.mutate(opRemove, v, rd)
			r.mutate(opInsert, v, rd)
		}
		if r.checkpoints == before {
			err = errors.New("no checkpoint followed the measured window")
		}
	})
	for _, rt := range reads {
		if !rt.start.Before(w0) && !rt.start.Add(rt.lat).After(w1) {
			rd.qLat = append(rd.qLat, rt.lat)
		}
	}
	rd.qWall, rd.qOK = w1.Sub(w0), len(rd.qLat)
	rd.cpu, rd.cpuOps = c1-c0, len(rd.qLat)+muts
	return err
}

// updateGraph swaps the corpus graph for one with a few more edges and
// back, client A reading beside it, and returns the two requests'
// latencies. It runs once, after the rounds: a swap refreshes every
// signature within k hops of a changed edge and takes 0.5–1 s, and as
// part of every round it halved the rounds a run has time for.
func (r *runner) updateGraph() []float64 {
	var lats []float64
	r.readBeside(func() {
		r.graphEpoch.Add(1)
		for _, o := range []*op{r.in.graphAdd, r.in.graphBase} {
			if lat, v := r.conns[0].do(o, nil); v == vOK {
				lats = append(lats, ms(lat))
			}
		}
		r.graphEpoch.Add(1)
	})
	r.lastWAL = -1 // updategraph logged records of its own
	return lats
}

// roundRecover is one crash cycle: acknowledged mutations (some nodes
// left removed, so the state at the kill differs from every
// checkpoint), SIGKILL, restart, verification, a read phase on the
// recovered daemon, and the held nodes put back.
func (r *runner) roundRecover(rd *round) error {
	c0 := r.cpuNow()
	for _, v := range r.in.held {
		r.mutate(opRemove, v, rd)
	}
	r.churnPairs(rd)
	took, err := r.restart()
	if err != nil {
		return err
	}
	rd.restart = took
	r.verifyModel(slices.Concat(r.in.held, r.in.pairs))
	r.queryPhase(r.nextReads(), r.conns[:1], rd)
	for _, v := range r.in.held {
		r.mutate(opInsert, v, rd)
	}
	rd.cpu, rd.cpuOps = r.cpuNow()-c0, len(rd.qLat)+len(rd.mLat)
	return nil
}

// runWorkload runs one workload end to end and reports its metrics.
func runWorkload(cfg config, wl string) (*outcome, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), workloadCap)
	defer cancel()

	began := time.Now()
	phase := func(what string) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s at %.1fs\n", wl, what, time.Since(began).Seconds())
	}
	nproc := runtime.NumCPU()
	// Two clients whatever the host: serve-mixed is a reader beside a
	// writer. On a one-core host they take turns on the one connection
	// newHTTPClient allows.
	clients, scale := 2, float64(largeScale)
	if wl == wlWire {
		clients, scale = 1, smallScale
	}
	if cfg.toyScale != 0 {
		scale = cfg.toyScale
	}
	corpus := newCorpusInput(scale)
	in, err := makeInputs(wl, corpus, cfg.seed, cfg.opsDiv)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, wl: wl, ctx: ctx, in: in, hc: newHTTPClient(nproc),
		createBody: corpus.createBody(), model: newModel(corpus.g.NumNodes()), lastWAL: -1}
	defer r.hc.CloseIdleConnections()
	for i := 0; i < clients; i++ {
		r.conns = append(r.conns, &conn{hc: r.hc, t: &r.t, corrupt: cfg.corruptOracle,
			stable: wl == wlWire || wl == wlRead})
	}
	// The proving query is the oracle entry with the smallest request,
	// so set-up and restart times are not hostage to a large signature.
	r.first = slices.MinFunc(in.oracle, func(a, b *op) int { return len(a.body) - len(b.body) })

	roundFn := r.roundSeparate
	r.flags = []string{"-fsync", "always"}
	switch wl {
	case wlMixed:
		// One synchronous full-segment checkpoint per round, on the pair
		// that follows the measured window (see roundMixed).
		roundFn = r.roundMixed
		r.flags = append(r.flags, "-checkpoint-every", strconv.Itoa(2*len(in.pairs)+2))
	case wlRecover:
		// Never during the run: the log tail a restart replays grows
		// cycle by cycle.
		roundFn = r.roundRecover
		r.flags = append(r.flags, "-checkpoint-every", "1024")
	}
	phase("inputs ready")
	calib := []float64{calibrate(nproc)}

	// Set-up, several times over on in-memory daemons, then once more on
	// the durable daemon the rounds run against.
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
	}()
	var setups []float64
	for i := 0; i <= cfg.setups; i++ {
		took, err := r.setupOnce(i == cfg.setups)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", wl, i, err)
		}
		if i < cfg.setups {
			setups = append(setups, took.Seconds())
			r.reap()
		}
	}
	phase("set up")

	// One warm-up round, checked but not measured; then the rounds.
	if err := roundFn(&round{}); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", wl, err)
	}
	scrape0, _ := scrapeMetrics(r.hc, r.d.base)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget = 0 // the traced run only needs a baseline
	}
	var rounds []*round
	selfCPU0, daemonCPU0, phase0 := selfCPU(), r.cpuNow(), time.Now()
	for len(rounds) < cfg.minRounds || (time.Since(phase0) < budget && len(rounds) < cfg.maxRounds) {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: aborted at the %s wall cap after %d rounds", wl, workloadCap, len(rounds))
		}
		rd := &round{}
		s0, _ := readCPUTimes()
		if err := roundFn(rd); err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", wl, len(rounds), err)
		}
		s1, _ := readCPUTimes()
		rd.steal = stealPct(s0, s1)
		rounds = append(rounds, rd)
	}
	selfUsed, daemonUsed := selfCPU()-selfCPU0, r.cpuNow()-daemonCPU0
	r.notePeak()
	scrape1, scrapeMS := scrapeMetrics(r.hc, r.d.base)
	phase(fmt.Sprintf("%d rounds measured", len(rounds)))

	// serve-mixed's graph updates, then the closing restarts: leave half
	// the pairs removed, kill, and see the acknowledged state come back,
	// a few times over. crash-recover restarted once per round already.
	updates := []float64{0} // only serve-mixed updates the graph
	if wl == wlMixed {
		if got := r.updateGraph(); len(got) > 0 { // a failed one is in the tally
			updates = got
		}
	}
	var restarts []float64
	if wl != wlRecover {
		for _, v := range r.in.pairs[:len(r.in.pairs)/2] {
			r.mutate(opRemove, v, nil)
		}
		for i := 0; i < closingRestarts; i++ {
			took, err := r.restart()
			if err != nil {
				return nil, fmt.Errorf("%s: closing restart: %w", wl, err)
			}
			r.verifyModel(r.in.pairs)
			restarts = append(restarts, took.Seconds())
		}
	} else {
		for _, rd := range rounds {
			restarts = append(restarts, rd.restart.Seconds())
		}
	}
	r.notePeak()
	phase("restarts verified")
	calib = append(calib, calibrate(nproc))

	out := &outcome{Workload: wl, Rounds: len(rounds), Metrics: metricSet{}}
	m := out.Metrics
	m.setBest("setup_s", setups)
	m.setBest("nedserve.restart_to_first_query_s", restarts)
	m.setRounds("client.updategraph_ms_p50", updates)
	m.set("disk_bytes_per_node", float64(r.diskBytes)/float64(len(r.model.present)))
	m.set("rss_peak_mb", r.peakRSS)
	m.setRounds("host.calib_ms", calib)
	m.set("host.nproc", float64(nproc))
	m.setBest("nedserve.boot_ms", r.bootMS)
	m.set("nedserve.create_ms", r.createMS)
	m.set("nedserve.cpu_s", r.cpuNow().Seconds())
	share := selfUsed.Seconds() / (selfUsed + daemonUsed).Seconds()
	m.set("client.cpu_share", share)
	if share >= 0.35 {
		out.Flagged = append(out.Flagged, fmt.Sprintf("client.cpu_share %.2f: the load generator competes with the daemon", share))
	}
	scrape1.report(scrape0, m)
	m.set("serve.metrics_scrape_ms", scrapeMS)
	errs := []error{reportRounds(m, rounds), r.reportTally(out)}
	if cfg.trace {
		if err := r.traced(out); err != nil {
			errs = append(errs, fmt.Errorf("traced run: %w", err))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return out, fmt.Errorf("%s: %w", wl, err)
	}
	return out, nil
}

// reportRounds turns the rounds into metrics: each figure per round,
// then the best round of a timing (see setBest) and the median round of
// a count. A figure no round produced is an error — every workload
// exercises every end-to-end metric.
func reportRounds(m metricSet, rounds []*round) error {
	var missing []string
	emit := func(name string, set func(string, []float64), f func(*round) (float64, bool)) {
		var xs []float64
		for _, rd := range rounds {
			if x, ok := f(rd); ok {
				xs = append(xs, x)
			}
		}
		if len(xs) > 0 {
			set(name, xs)
		} else {
			missing = append(missing, name)
		}
	}
	quantileOf := func(lat func(*round) []time.Duration, q float64) func(*round) (float64, bool) {
		return func(rd *round) (float64, bool) {
			ls := lat(rd)
			return quantile(sortedCopy(durationsMS(ls)), q), len(ls) > 0
		}
	}
	qLat := func(rd *round) []time.Duration { return rd.qLat }
	mLat := func(rd *round) []time.Duration { return rd.mLat }
	emit("query_p50_ms", m.setBest, quantileOf(qLat, 0.50))
	emit("query_qps", m.setBest, func(rd *round) (float64, bool) {
		return float64(rd.qOK) / rd.qWall.Seconds(), rd.qWall > 0
	})
	emit("server_cpu_ms_per_op", m.setBest, func(rd *round) (float64, bool) {
		return ms(rd.cpu) / float64(rd.cpuOps), rd.cpuOps > 0
	})
	emit("client.mut_p50_ms", m.setBest, quantileOf(mLat, 0.50))
	emit("client.mut_mean_ms", m.setBest, func(rd *round) (float64, bool) {
		return mean(durationsMS(rd.mLat)), len(rd.mLat) > 0
	})
	emit("wal_bytes_per_mut", m.setRounds, func(rd *round) (float64, bool) {
		return float64(rd.walBytes) / float64(rd.walMuts), rd.walMuts > 0
	})
	emit("host.steal_pct", m.setRounds, func(rd *round) (float64, bool) { return rd.steal, true })
	if len(missing) > 0 {
		return fmt.Errorf("no round produced %v", missing)
	}
	// The tail is what the best round leaves out, so it is read off every
	// measured query of the run together.
	var all []time.Duration
	for _, rd := range rounds {
		all = append(all, rd.qLat...)
	}
	pooled := sortedCopy(durationsMS(all))
	m.set("client.query_p95_ms", quantile(pooled, 0.95))
	m.set("client.query_p99_ms", quantile(pooled, 0.99))
	return nil
}

// reportTally writes what the load generator counted and decides
// whether the run was correct.
func (r *runner) reportTally(out *outcome) error {
	m := out.Metrics
	sent, failed, wrong, lost := r.t.sent.Load(), r.t.failed.Load(), r.t.wrong.Load(), r.t.lost.Load()
	m.set("client.sent", float64(sent))
	m.set("client.ok", float64(r.t.ok.Load()))
	m.set("client.failed", float64(failed))
	m.set("client.wrong", float64(wrong))
	m.set("client.fail_ratio", float64(failed+wrong)/float64(sent))
	m.set("client.acked_lost", float64(lost))
	precision := 0.0 // only serve-read asks inter-graph queries
	if n := r.t.scored.Load(); n > 0 {
		precision = float64(r.t.hit.Load()) / float64(n)
	}
	m.set("client.deanon_precision_at5", precision)
	out.Attempted, out.Failed = sent, failed+wrong+lost
	out.Correct = out.Failed == 0
	if out.Correct {
		return nil
	}
	errs := []error{fmt.Errorf("%d failed, %d wrong, %d acknowledged mutations lost of %d operations", failed, wrong, lost, sent)}
	for _, c := range r.conns {
		if c.firstErr != nil {
			errs = append(errs, fmt.Errorf("first on a connection: %w", c.firstErr))
		}
	}
	return errors.Join(errs...)
}
