package main

import (
	"math"
	"sort"
	"time"
)

// value is one reported metric: one figure for the run's rounds (the
// best round for a timing, the median round for a count), with the
// extreme rounds kept so -compare can tell overlap from shift.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// metricSet collects named metrics; unit comes from the catalogue.
type metricSet map[string]value

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

var higherIsBetter = func() map[string]bool {
	m := make(map[string]bool)
	for _, d := range endToEnd {
		m[d.Name] = d.Better == "higher"
	}
	return m
}()

// set records a single reading.
func (m metricSet) set(name string, v float64) { m.setRounds(name, []float64{v}) }

// setRounds records the median of per-round readings.
func (m metricSet) setRounds(name string, rounds []float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	s := sortedCopy(rounds)
	m[name] = value{Value: quantile(s, 0.5), Unit: unit, Min: s[0], Max: s[len(s)-1]}
}

// setBest records the best of per-round timings: the lowest, or the
// highest where higher is better. The rounds of a run repeat the same
// work, and what the host adds to one of them — CPU steal, a neighbour's
// cache and memory traffic — only ever slows it, in bursts that last
// from a fraction of a second to minutes. The median round therefore
// reads the host's mood during the run; the best round reads the
// program.
func (m metricSet) setBest(name string, rounds []float64) {
	m.setRounds(name, rounds)
	v := m[name]
	v.Value = v.Min
	if higherIsBetter[name] {
		v.Value = v.Max
	}
	m[name] = v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile off an ascending slice by linear
// interpolation; an empty slice reads 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// timeN runs fn n times and returns each call's duration in
// nanoseconds, ascending.
func timeN(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	sort.Float64s(out)
	return out
}

// timeOnce runs fn and returns its duration in nanoseconds.
func timeOnce(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}
