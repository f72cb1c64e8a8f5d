package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ned"
	"ned/internal/faultfs"
	"ned/internal/serve"
	"ned/internal/ted"
)

const repoRoot = ".."

func mustManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := readManifest(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestCatalogueMatchesManifest keeps the three listings of the metrics
// in step: the harness's catalogue, BENCHMARK.json, and README.md.
func TestCatalogueMatchesManifest(t *testing.T) {
	man := mustManifest(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	documented := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not a legal metric or workload name", n)
		}
		if !strings.Contains(string(readme), "`"+n+"`") {
			t.Errorf("README.md does not document %q", n)
		}
	}

	if len(man.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(man.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := man.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, got, d)
		}
		if got.Bound <= 0 {
			t.Errorf("%s: bound %v", d.Name, got.Bound)
		}
		documented(d.Name)
	}
	if len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(man.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := man.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, got, d)
		}
		documented(d.Name)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
		documented(w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	if !slices.Equal(man.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", man.Paths)
	}
}

// TestOracleMatchesTopL holds the budgeted oracle equal to the
// unbudgeted exhaustive ranking it stands in for.
func TestOracleMatchesTopL(t *testing.T) {
	in := newCorpusInput(0.1)
	c := ted.NewComputer()
	for v := 0; v < len(in.sigs); v += len(in.sigs) / 12 {
		var want []serve.NeighborJSON
		for _, nb := range ned.TopL(in.sigs[v], in.sigs, topL) {
			want = append(want, serve.NeighborJSON{Node: int(nb.Node), Dist: nb.Dist})
		}
		if got := oracleTopL(c, in.sigs[v].Tree, in.sigs, topL); !slices.Equal(got, want) {
			t.Errorf("node %d: oracle %v, exhaustive TopL %v", v, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	v := func(x, lo, hi float64) value { return value{Value: x, Min: lo, Max: hi} }
	for _, c := range []struct {
		name           string
		parent, change value
		higher         bool
		want           string
	}{
		{"small rise", v(10, 9, 11), v(10.5, 10, 11), false, "within"},
		{"big rise", v(10, 9, 11), v(13, 12, 14), false, "worse"},
		{"big rise, intervals overlap", v(10, 9, 12.5), v(13, 12, 14), false, "unresolved"},
		{"big drop", v(10, 9, 11), v(7, 6, 8), false, "better"},
		{"big drop, intervals overlap", v(10, 7.5, 11), v(7, 6, 8), false, "unresolved"},
		{"throughput drop", v(100, 95, 105), v(70, 65, 75), true, "worse"},
		{"throughput rise", v(100, 95, 105), v(130, 125, 135), true, "better"},
	} {
		if _, got := judge(c.parent, c.change, c.higher, 0.2); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRefuses holds -compare to what it may not wave through:
// wrong answers, a missing workload or metric, different settings. It
// also checks that several records per side are judged by their median.
func TestCompareRefuses(t *testing.T) {
	man := mustManifest(t)
	dir := t.TempDir()
	n := 0
	write := func(seed int64, p50 float64, edit func(*record)) string {
		r := &record{Schema: schema, Seed: seed, Seconds: 10, Nproc: 2, Workloads: map[string]*outcome{}}
		for _, wl := range workloadNames {
			o := &outcome{Workload: wl, Correct: true, Attempted: 100, Metrics: metricSet{}}
			for _, d := range endToEnd {
				o.Metrics.set(d.Name, 10)
			}
			o.Metrics.set("query_p50_ms", p50)
			r.Workloads[wl] = o
		}
		if edit != nil {
			edit(r)
		}
		n++
		path := filepath.Join(dir, "rec"+strconv.Itoa(n)+".json")
		if err := writeRecord(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write(1, 10, nil)
	for name, bad := range map[string]string{
		"failed operations": write(1, 10, func(r *record) { r.Workloads[wlMixed].Failed, r.Workloads[wlMixed].Correct = 3, false }),
		"missing workload":  write(1, 10, func(r *record) { delete(r.Workloads, wlRecover) }),
		"missing metric":    write(1, 10, func(r *record) { delete(r.Workloads[wlRead].Metrics, "query_qps") }),
		"another seed":      write(2, 10, nil),
		"another duration":  write(1, 10, func(r *record) { r.Seconds = 5 }),
		"another schema":    write(1, 10, func(r *record) { r.Schema++ }),
		"a regression":      write(1, 14, nil),
	} {
		if err := compareRecords(man, []string{good}, []string{bad}, io.Discard); err == nil {
			t.Errorf("%s: compared clean", name)
		}
	}
	if err := compareRecords(man, []string{good}, []string{write(1, 11, nil)}, io.Discard); err != nil {
		t.Errorf("a move inside the bound: %v", err)
	}
	// One slow run of three moves neither the median nor the exit code.
	three := []string{write(1, 10, nil), write(2, 14, nil), write(3, 10.5, nil)}
	if err := compareRecords(man, []string{write(1, 10, nil), write(2, 10, nil), write(3, 10, nil)}, three, io.Discard); err != nil {
		t.Errorf("median of three: %v", err)
	}
}

// TestCountingFS checks that the wrapper counts per path class and
// passes every byte through.
func TestCountingFS(t *testing.T) {
	cfs := newCountingFS()
	dir := t.TempDir()
	for _, name := range []string{"wal-00000000.log", "checkpoint-00000001.nedseg.tmp", "notes"} {
		f, err := cfs.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("abc")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if b, _ := os.ReadFile(filepath.Join(dir, name)); string(b) != "abc" {
			t.Errorf("%s holds %q", name, b)
		}
	}
	if err := cfs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*fsCounts{"wal": &cfs.wal, "checkpoint": &cfs.checkpoint, "other": &cfs.other} {
		if c.writes.Load() != 1 || c.bytes.Load() != 3 || c.syncs.Load() != 1 {
			t.Errorf("%s: %d writes, %d bytes, %d syncs", name, c.writes.Load(), c.bytes.Load(), c.syncs.Load())
		}
	}
	if cfs.checkpoint.dirSyncs.Load() != 1 {
		t.Errorf("dir syncs = %d", cfs.checkpoint.dirSyncs.Load())
	}
	var _ faultfs.FS = cfs
}

// smokeConfig shrinks everything: PGP×0.05 (133 nodes), one set-up, one
// round of at most 40 operations.
func smokeConfig(t *testing.T) config {
	t.Helper()
	if testing.Short() {
		t.Skip("starts nedserve child processes")
	}
	bin := filepath.Join(t.TempDir(), "nedserve")
	if err := buildNedserve(repoRoot, bin); err != nil {
		t.Fatal(err)
	}
	return config{nedserve: bin, workDir: t.TempDir(), outDir: t.TempDir(), seed: 1,
		trace: true, toyScale: 0.05, opsDiv: 10, minRounds: 1, maxRounds: 1, setups: 1}
}

// TestSmoke runs all four workloads, traced, at toy scale, and checks
// the contract of the output rather than any number in it.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	man := mustManifest(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			o, err := runWorkload(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
			}
			for _, d := range man.EndToEnd {
				v, ok := o.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite %s", d.Name, v, ok, d.Unit)
				}
			}
			for _, d := range man.PerLayer {
				v, ok := o.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s = %+v (present %v), want a finite %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(o.Metrics) != len(man.EndToEnd)+len(man.PerLayer) {
				t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(o.Metrics), len(man.EndToEnd)+len(man.PerLayer))
			}
			for _, zero := range []string{"client.fail_ratio", "client.acked_lost", "client.wrong", "client.failed"} {
				if o.Metrics[zero].Value != 0 {
					t.Errorf("%s = %v", zero, o.Metrics[zero].Value)
				}
			}
			if got := o.Metrics["segment.fsyncs_per_commit"].Value; got != 1 {
				t.Errorf("segment.fsyncs_per_commit = %v under fsync always", got)
			}
			checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+wl+".jsonl"))
		})
	}
}

// checkTraceFile parses a span file: every line a span, IDs unique,
// every parent present in the same trace, children inside nothing
// earlier than their parent's start.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, dup := byID[s.Span]; dup || s.Span == 0 {
			t.Fatalf("%s: span id %d repeated or zero", path, s.Span)
		}
		if s.Layer == "" || s.Name == "" || s.End < s.Start {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		byID[s.Span] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Trace != s.Trace || s.Start < p.Start {
			t.Errorf("%s: span %+v has no proper parent (%+v)", path, s, p)
		}
	}
}

// TestWrongOracleFails proves the answer check reaches the exit code: a
// deliberately wrong oracle entry must fail the run.
func TestWrongOracleFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.trace, cfg.corruptOracle = false, true
	if o, err := runWorkload(cfg, wlWire); err == nil {
		t.Errorf("a corrupted oracle went unnoticed: %+v", o)
	}
}
