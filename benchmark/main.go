// Command benchmark is the repository's one benchmark: it builds
// cmd/nedserve, runs it as a child process on a loopback port, drives
// it closed-loop over HTTP with inputs it generates from -seed, checks
// every answer it can, and prints every metric by name with its unit.
// See README.md beside this file for the workloads and the metric
// catalogue, and BENCHMARK.json at the repository root for the bounds.
//
//	bash benchmark/run.sh -workload all -seed 1 -out record.json
//	bash benchmark/run.sh -workload serve-read -trace 1
//	bash benchmark/run.sh -compare parent.json change.json
//	bash benchmark/run.sh -compare p1.json,p2.json,p3.json c1.json,c2.json,c3.json
//
// The driver's form is
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// schema is bumped whenever a metric's definition or a workload's
// shape changes; records of different schemas refuse to compare.
const schema = 1

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// record is what -out writes: one run of some workloads, with enough
// context to judge it against another.
type record struct {
	Schema    int                 `json:"schema"`
	Commit    string              `json:"commit"`
	Go        string              `json:"go"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Nproc     int                 `json:"nproc"`
	Workloads map[string]*outcome `json:"workloads"`
}

func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	compare  bool
	root     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured-phase budget per workload (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the run's record to this file")
	flag.BoolVar(&o.compare, "compare", false, "judge records: -compare parent.json[,parent2.json...] change.json[,change2.json...]")
	flag.StringVar(&o.root, "root", ".", "repository checkout (holds BENCHMARK.json and cmd/nedserve)")
	flag.Parse()
	o.trace = trace != 0
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	man, err := readManifest(o.root)
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two comma-separated lists of record files: the parent's, then the change's")
		}
		return compareRecords(man, strings.Split(args[0], ","), strings.Split(args[1], ","), os.Stdout)
	}
	if o.seconds <= 0 {
		o.seconds = float64(man.RunSeconds)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if _, ok := shapes[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	nedserve := filepath.Join(build, "nedserve")
	if err := buildNedserve(o.root, nedserve); err != nil {
		return err
	}
	cfg := config{nedserve: nedserve, workDir: workDir, outDir: filepath.Join(o.root, "benchmark", "out"),
		seed: o.seed, seconds: o.seconds, trace: o.trace}

	rec := &record{Schema: schema, Commit: commitOf(o.root), Go: runtime.Version(), Seed: o.seed,
		Seconds: o.seconds, Nproc: runtime.NumCPU(), Workloads: map[string]*outcome{}}
	var failed []error
	for _, wl := range names {
		out, err := runWorkload(cfg, wl)
		if err != nil {
			failed = append(failed, err)
		}
		if out == nil {
			break // nothing measured; what ran before it is still recorded
		}
		rec.Workloads[wl] = out
		printOutcome(out)
	}
	if o.out != "" {
		if err := writeRecord(o.out, rec); err != nil {
			failed = append(failed, err)
		}
	}
	// The driver's result line, unless the workload produced no outcome.
	if out := rec.Workloads[names[0]]; len(names) == 1 && out != nil {
		printDriverLine(out, o.trace)
	}
	return errors.Join(failed...)
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printOutcome lists every metric of a workload by name with its unit.
func printOutcome(o *outcome) {
	fmt.Printf("# %s: %d rounds, %d operations, %d failed\n", o.Workload, o.Rounds, o.Attempted, o.Failed)
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := o.Metrics[n]
		fmt.Printf("%-44s %14.6g %-6s [%.6g, %.6g]\n", n, v.Value, v.Unit, v.Min, v.Max)
	}
	for _, f := range o.Flagged {
		fmt.Println("# flagged:", f)
	}
}

// printDriverLine prints the one-object last line the driver reads:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func printDriverLine(o *outcome, trace bool) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]mv{}}
	for _, d := range defs {
		if v, ok := o.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = mv{v.Value, v.Unit}
		}
	}
	b, _ := json.Marshal(line) // plain numbers and strings
	fmt.Println(string(b))
}
