//go:build unix

package ned

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// BenchmarkCorpusInterGraphClients is BenchmarkCorpusInterGraphKNN's
// serve-read mix from two client goroutines against one corpus built at
// WithWorkers(2), the engine half of the harness's
// serve-read workload without the daemon. It reports the process CPU
// (user + system, from getrusage) per query, which is what the harness's
// server_cpu_ms_per_op tracks, the queries per second of wall time and
// the TED* calls per query. One iteration is one query; -benchtime
// 3200x is one pass over the mix per client.
func BenchmarkCorpusInterGraphClients(b *testing.B) {
	const clients = 2
	g, queries := interGraphMix()
	ctx := context.Background()
	corpus, err := NewCorpus(g, interGraphK, WithWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := corpus.KNNSignature(ctx, queries[0], 1); err != nil { // warm up
		b.Fatal(err)
	}
	corpus.ResetStats()
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := processCPU(b)
	b.ResetTimer()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				if _, err := corpus.KNNSignature(ctx, queries[i%len(queries)], interGraphL); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	b.StopTimer()
	cpu := processCPU(b) - cpu0
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu_us/query")
	b.ReportMetric(float64(b.N)/wall.Seconds(), "queries/s")
	b.ReportMetric(float64(corpus.Stats().DistanceCalls)/float64(b.N), "evals/query")
}

// processCPU is the user plus system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
