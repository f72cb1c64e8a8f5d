// Command nedbench regenerates the tables and figures of the NED paper's
// evaluation section (§13) on the synthetic dataset analogs and prints
// them as plain-text tables (see EXPERIMENTS.md for the catalog). That is
// its one job: engine and serving performance is measured by the
// repository benchmark (bash benchmark/run.sh) and the Go benchmarks.
//
// Usage:
//
//	nedbench [-exp all|table2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|hausdorff|directed|weighted|ablation]
//	         [-scale 1.0] [-pairs 400] [-queries 100] [-candidates 1000] [-seed 1]
//	         [-json results.json]
//
// -candidates sizes the candidate pool of Fig. 9b and the index ablation
// only, which compare a full scan against the indexes; Figs. 8, 10 and
// 11 rank every node of the graph through the query engine.
//
// At the defaults, -exp all takes about 7 minutes on 2 vCPUs; fig9b's
// and the ablation's full scans, TED* against every candidate, are most
// of it (fig9b times its scan on the first 10 sampled queries). -scale
// trades fidelity for speed. -json additionally writes every produced table to
// a machine-readable JSON file (use "-" for stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ned/internal/bench"
	"ned/internal/datasets"
)

// experiments lists the valid -exp names besides "all", in run order.
const experiments = "table2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 hausdorff directed weighted ablation"

// jsonResult is the machine-readable form of one nedbench invocation.
type jsonResult struct {
	Experiment string        `json:"experiment"`
	Scale      float64       `json:"scale"`
	Seed       int64         `json:"seed"`
	ElapsedMS  float64       `json:"elapsed_ms"`
	Tables     []bench.Table `json:"tables"`
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: all, or one of "+experiments)
		scale      = flag.Float64("scale", 1.0, "dataset scale factor")
		pairs      = flag.Int("pairs", 400, "node pairs per timing experiment")
		queries    = flag.Int("queries", 100, "query nodes per query experiment")
		candidates = flag.Int("candidates", 1000, "candidate pool size of fig9b and the index ablation (figs. 8, 10 and 11 rank the whole graph)")
		seed       = flag.Int64("seed", 1, "random seed")
		jsonPath   = flag.String("json", "", "also write results as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()

	o := bench.Options{
		Scale:      *scale,
		Pairs:      *pairs,
		Queries:    *queries,
		Candidates: *candidates,
		Seed:       *seed,
	}

	var tables []bench.Table
	emit := func(ts ...bench.Table) {
		for _, t := range ts {
			t.Fprint(os.Stdout)
			tables = append(tables, t)
		}
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()
	ran := 0

	if run("table2") {
		emit(bench.Table2(o))
		ran++
	}
	if run("fig5") {
		t1, t2 := bench.Figure5(o)
		emit(t1, t2)
		ran++
	}
	if run("fig6") {
		emit(bench.Figure6(o))
		ran++
	}
	if run("fig7") {
		emit(bench.Figure7a(o), bench.Figure7b(o))
		ran++
	}
	if run("fig8") {
		emit(bench.Figure8(o, 10))
		ran++
	}
	if run("fig9") {
		emit(bench.Figure9a(o), bench.Figure9b(o))
		ran++
	}
	if run("fig10") {
		emit(bench.Figure10(o, datasets.PGP, 5, 0.01))
		emit(bench.Figure10(o, datasets.DBLP, 10, 0.05))
		ran++
	}
	if run("fig11") {
		emit(bench.Figure11a(o), bench.Figure11b(o))
		ran++
	}
	if run("hausdorff") {
		emit(bench.AppendixHausdorff(o))
		ran++
	}
	if run("directed") {
		emit(bench.ExtensionDirected(o))
		ran++
	}
	if run("weighted") {
		emit(bench.ExtensionWeighted(o))
		ran++
	}
	if run("ablation") {
		emit(bench.AblationMatching(o), bench.AblationIndexes(o))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "nedbench: unknown experiment %q\n", *exp)
		fmt.Fprintf(os.Stderr, "valid: all %s\n", experiments)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	fmt.Printf("%s\ncompleted in %s\n", strings.Repeat("-", 40), elapsed.Round(time.Millisecond))

	if *jsonPath != "" {
		res := jsonResult{
			Experiment: *exp,
			Scale:      *scale,
			Seed:       *seed,
			ElapsedMS:  float64(elapsed.Nanoseconds()) / 1e6,
			Tables:     tables,
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: encoding JSON: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "nedbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
