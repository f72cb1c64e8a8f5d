//go:build unix

package ned

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ned/internal/segment"
)

// BenchmarkDurableLog reads what the mutation log costs on the PGP
// analog at scale 4 (k = 3), serve-mixed's corpus, in process. One
// iteration is one Remove/Insert pair over a 512-node pool of a durable
// corpus (FsyncNone, so the disk does not dominate). It reports:
//
//   - wal_B/mut: log bytes per mutation record;
//   - replay_us/record: OpenDurable's median wall time over the log
//     minus its median over the same checkpoint with an empty log, per
//     record;
//   - updategraph_ms, updategraph_cpu_ms and updategraph_wal_B: one
//     durable UpdateGraph adding 8 edges — wall time, process CPU (user +
//     system, from getrusage) and the log bytes it appended — and
//     refreshed, the signatures it re-extracted.
func BenchmarkDurableLog(b *testing.B) {
	const k, pool = 3, 512
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 4, Seed: 1})
	c, err := NewCorpus(g, k)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := c.MakeDurable(dir, FsyncNone); err != nil {
		b.Fatal(err)
	}
	nodes := rand.New(rand.NewSource(11)).Perm(g.NumNodes())[:pool]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := NodeID(nodes[i%pool])
		if err := c.Remove(v); err != nil {
			b.Fatal(err)
		}
		if err := c.Insert(v); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recs, walBytes, _ := c.DurableStats()
	b.ReportMetric(float64(walBytes)/float64(recs), "wal_B/mut")
	if err := c.CloseDurable(); err != nil {
		b.Fatal(err)
	}

	bare := b.TempDir()
	ckpt, err := os.ReadFile(segment.CheckpointPath(dir, 0))
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bare, filepath.Base(segment.CheckpointPath(dir, 0))), ckpt, 0o644); err != nil {
		b.Fatal(err)
	}
	// Each directory opens five times, alternately, and the medians are
	// differenced: one open's noise is of the order of the replay itself.
	var tBare, tLog []time.Duration
	for i := 0; i < 5; i++ {
		for _, d := range []string{bare, dir} {
			t0 := time.Now()
			r, err := OpenDurable(d, FsyncNone)
			if err != nil {
				b.Fatal(err)
			}
			took := time.Since(t0)
			if err := r.CloseDurable(); err != nil {
				b.Fatal(err)
			}
			if d == bare {
				tBare = append(tBare, took)
			} else {
				tLog = append(tLog, took)
			}
		}
	}
	slices.Sort(tBare)
	slices.Sort(tLog)
	b.ReportMetric(float64((tLog[2]-tBare[2]).Microseconds())/float64(recs), "replay_us/record")
	r, err := OpenDurable(dir, FsyncNone)
	if err != nil {
		b.Fatal(err)
	}

	_, bytes0, _ := r.DurableStats()
	g2 := withExtraEdges(g, 12, 8)
	cpu0, t0 := processCPU(b), time.Now()
	refreshed, err := r.UpdateGraph(g2)
	if err != nil {
		b.Fatal(err)
	}
	wall, cpu := time.Since(t0), processCPU(b)-cpu0
	_, bytes1, _ := r.DurableStats()
	b.ReportMetric(float64(wall.Microseconds())/1e3, "updategraph_ms")
	b.ReportMetric(float64(cpu.Microseconds())/1e3, "updategraph_cpu_ms")
	b.ReportMetric(float64(bytes1-bytes0), "updategraph_wal_B")
	b.ReportMetric(float64(refreshed), "refreshed")
	r.CloseDurable()
}
