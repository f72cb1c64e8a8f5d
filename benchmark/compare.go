package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("%s: record of schema %d does not compare under harness schema %d", path, r.Schema, schema)
	}
	return &r, nil
}

// side is one side of a comparison: one or more records of the same
// code, each a whole run.
type side []*record

func readSide(paths []string) (side, error) {
	var s side
	for _, p := range paths {
		r, err := readRecord(p)
		if err != nil {
			return nil, err
		}
		s = append(s, r)
	}
	return s, nil
}

func (s side) seeds() []int64 {
	var out []int64
	for _, r := range s {
		out = append(out, r.Seed)
	}
	slices.Sort(out)
	return out
}

// of gives a side's reading of one metric on one workload: the median
// over its records, and the interval the verdict weighs it by — the
// extreme records, or with a single record its extreme rounds.
func (s side) of(wl, metric string) value {
	if len(s) == 1 {
		return s[0].Workloads[wl].Metrics[metric]
	}
	var xs []float64
	for _, r := range s {
		xs = append(xs, r.Workloads[wl].Metrics[metric].Value)
	}
	xs = sortedCopy(xs)
	return value{Value: quantile(xs, 0.5), Min: xs[0], Max: xs[len(xs)-1]}
}

// checkComparable refuses records that cannot be judged against each other:
// different settings, a workload or metric one of them lacks, or a run
// that answered anything wrong. A regression in correctness is not a
// number to weigh against a bound.
func checkComparable(man *manifest, parent, change side, paths []string) error {
	var errs []error
	if !slices.Equal(parent.seeds(), change.seeds()) {
		errs = append(errs, fmt.Errorf("parent ran seeds %v, change %v", parent.seeds(), change.seeds()))
	}
	first := parent[0]
	for i, r := range slices.Concat(parent, change) {
		if r.Seconds != first.Seconds || r.Nproc != first.Nproc {
			errs = append(errs, fmt.Errorf("%s: %v s on %d cores, %s ran %v s on %d",
				paths[i], r.Seconds, r.Nproc, paths[0], first.Seconds, first.Nproc))
		}
		for _, wl := range workloadNames {
			o, want := r.Workloads[wl], first.Workloads[wl] != nil
			if (o != nil) != want {
				errs = append(errs, fmt.Errorf("%s: workload %s present=%v, in %s present=%v", paths[i], wl, o != nil, paths[0], want))
			}
			if o == nil {
				continue
			}
			if !o.Correct || o.Failed != 0 {
				errs = append(errs, fmt.Errorf("%s: %s did not run clean: %d of %d operations failed (%v wrong, %v acknowledged mutations lost)",
					paths[i], wl, o.Failed, o.Attempted, o.Metrics["client.wrong"].Value, o.Metrics["client.acked_lost"].Value))
			}
			for _, d := range man.EndToEnd {
				if v, ok := o.Metrics[d.Name]; !ok || !(v.Value > 0) {
					errs = append(errs, fmt.Errorf("%s: %s has no positive %s", paths[i], wl, d.Name))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// judge gives the verdict for one metric of one workload. worse is the
// relative change in the metric's bad direction. A move beyond the bound
// counts only when the two sides' intervals are apart: where they
// overlap the runs cannot tell the sides from each other, and the
// verdict is unresolved, not worse or better.
func judge(parent, change value, higherBetter bool, bound float64) (worse float64, verdict string) {
	worse = (change.Value - parent.Value) / parent.Value
	if higherBetter {
		worse = -worse
	}
	overlap := parent.Min <= change.Max && change.Min <= parent.Max
	switch {
	case worse >= -bound && worse <= bound:
		return worse, "within"
	case overlap:
		return worse, "unresolved"
	case worse > bound:
		return worse, "worse"
	default:
		return worse, "better"
	}
}

// compareRecords prints, for every end-to-end metric of every workload,
// the parent's value, the change's, their ratio, the bound and a
// verdict. Any "worse" is an error, and so are records that cannot be
// compared at all.
func compareRecords(man *manifest, parentPaths, changePaths []string, w io.Writer) error {
	parent, err := readSide(parentPaths)
	if err != nil {
		return err
	}
	change, err := readSide(changePaths)
	if err != nil {
		return err
	}
	if err := checkComparable(man, parent, change, slices.Concat(parentPaths, changePaths)); err != nil {
		return err
	}
	p0, c0 := parent[0], change[0]
	fmt.Fprintf(w, "parent %s (%s, %d record(s))  change %s (%s, %d record(s))  seeds %v, %v s, %d cores\n",
		p0.Commit, p0.Go, len(parent), c0.Commit, c0.Go, len(change), parent.seeds(), p0.Seconds, p0.Nproc)
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %9s %6s  %-10s %s\n", "workload", "metric", "parent", "change", "ratio", "bound", "verdict", "intervals")
	count := map[string]int{}
	for _, wl := range workloadNames {
		if p0.Workloads[wl] == nil {
			continue
		}
		for _, d := range man.EndToEnd {
			pv, cv := parent.of(wl, d.Name), change.of(wl, d.Name)
			_, verdict := judge(pv, cv, d.Better == "higher", d.Bound)
			count[verdict]++
			fmt.Fprintf(w, "%-14s %-22s %12.6g %12.6g %8.3fx %5.0f%%  %-10s [%.5g, %.5g] [%.5g, %.5g]\n",
				wl, d.Name, pv.Value, cv.Value, cv.Value/pv.Value, 100*d.Bound, verdict, pv.Min, pv.Max, cv.Min, cv.Max)
		}
	}
	fmt.Fprintf(w, "%d within, %d better, %d worse, %d unresolved\n", count["within"], count["better"], count["worse"], count["unresolved"])
	if count["unresolved"] > 0 {
		fmt.Fprintf(w, "unresolved: the medians differ by more than the bound but the sides' intervals overlap; more records per side steady the medians\n")
	}
	if n := count["worse"]; n > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", n)
	}
	return nil
}
