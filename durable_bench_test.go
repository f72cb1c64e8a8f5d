//go:build unix

package ned

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
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

// BenchmarkCorpusRestart reads what a checkpoint and the restart that
// reads it cost on the PGP analog (seed 42, k = 3) at scale 4 (10 680
// nodes, the harness's durable corpus) and 16 (42 720). One iteration
// is one Checkpoint of the built corpus; then, once 64 remove/insert
// records follow the last checkpoint in the log, one LoadCorpus of that
// checkpoint's bytes and one OpenDurable of the directory plus the
// first KNN. It reports:
//
//   - ckpt_B/node: the checkpoint file's bytes per corpus node;
//   - ckpt_ms: one Checkpoint's wall time (FsyncNone);
//   - load_cpu_ms: LoadCorpus alone, as process CPU (user + system, from
//     getrusage), the checkpoint already in memory;
//   - open_cpu_ms and open_ms: OpenDurable — the load and the replay of
//     the 64-record tail — plus the first KNN, as process CPU and wall
//     time;
//   - open_alloc_MB: the bytes that open allocated, in MiB;
//   - recovered_B/node: the live heap the reopened corpus holds after
//     that query, per node.
func BenchmarkCorpusRestart(b *testing.B) {
	ctx := context.Background()
	for _, scale := range []float64{4, 16} {
		b.Run(fmt.Sprintf("pgp=%g", scale), func(b *testing.B) {
			g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: scale, Seed: 42})
			nodes := float64(g.NumNodes())
			c, err := NewCorpus(g, 3)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.KNN(ctx, 0, 5); err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			if err := c.MakeDurable(dir, FsyncNone); err != nil {
				b.Fatal(err)
			}
			var ckpt, loadCPU, openCPU, open time.Duration
			var size, recovered, alloc float64
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				ckpt += time.Since(t0)
				_, path, _, err := segment.LatestCheckpoint(dir)
				if err != nil {
					b.Fatal(err)
				}
				fi, err := os.Stat(path)
				if err != nil {
					b.Fatal(err)
				}
				size += float64(fi.Size())
			}
			_, path, _, err := segment.LatestCheckpoint(dir)
			if err != nil {
				b.Fatal(err)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			for i := range 32 {
				v := NodeID(i * 97 % g.NumNodes())
				if err := c.Remove(v); err != nil {
					b.Fatal(err)
				}
				if err := c.Insert(v); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.CloseDurable(); err != nil {
				b.Fatal(err)
			}
			c = nil
			for i := 0; i < b.N; i++ {
				runtime.GC()
				cpu0 := processCPU(b)
				l, err := LoadCorpus(bytes.NewReader(blob))
				if err != nil {
					b.Fatal(err)
				}
				loadCPU += processCPU(b) - cpu0
				runtime.KeepAlive(l)
			}
			for i := 0; i < b.N; i++ {
				base := liveHeap()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				alloc0 := ms.TotalAlloc
				cpu0, t0 := processCPU(b), time.Now()
				r, err := OpenDurable(dir, FsyncNone)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.KNN(ctx, 0, 5); err != nil {
					b.Fatal(err)
				}
				open += time.Since(t0)
				openCPU += processCPU(b) - cpu0
				runtime.ReadMemStats(&ms)
				alloc += float64(ms.TotalAlloc - alloc0)
				recovered += liveHeap() - base
				if err := r.CloseDurable(); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(b.N)
			b.ReportMetric(size/n/nodes, "ckpt_B/node")
			b.ReportMetric(float64(ckpt.Microseconds())/1e3/n, "ckpt_ms")
			b.ReportMetric(float64(loadCPU.Microseconds())/1e3/n, "load_cpu_ms")
			b.ReportMetric(float64(openCPU.Microseconds())/1e3/n, "open_cpu_ms")
			b.ReportMetric(float64(open.Microseconds())/1e3/n, "open_ms")
			b.ReportMetric(alloc/n/(1<<20), "open_alloc_MB")
			b.ReportMetric(recovered/n/nodes, "recovered_B/node")
		})
	}
}
