package ned

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"
)

// BenchmarkCorpusScale is the read half of the scale ladder: KNN (l = 5,
// k = 3) over the PGP analog at scale 1, 4 and 16 (2 670, 10 680 and
// 42 720 rows), at executor width 1, for two query mixes per size:
//   - intergraph: the serve-read mix (interGraphMixAt), signatures of a
//     5 %-perturbed copy of the corpus graph, by KNNSignature;
//   - node: corpus nodes drawn the same way, one per size stratum, by
//     KNN.
//
// One iteration is one pass over the mix's scaleQueries queries. Per
// size and mix it reports query µs p50 and p95, TED* calls and rows
// bound per query, and, from the second size run on, growth: the p50's
// growth exponent from the size run before, log(p50 ratio) / log(row
// ratio).
// Run it as
//
//	go test -run '^$' -bench BenchmarkCorpusScale -benchtime 1x -cpu 1 .
//
// (about a minute on 2 vCPUs, most of it building the three corpora).
func BenchmarkCorpusScale(b *testing.B) {
	const scaleQueries = 400
	ctx := context.Background()
	type point struct{ rows, p50 float64 }
	prev := map[string]point{}
	for _, scale := range []float64{1, 4, 16} {
		g, sigs := interGraphMixAt(scale, scaleQueries)
		nodes := make([]NodeID, 0, scaleQueries)
		for _, s := range stratifiedSignatures(g, scaleQueries) {
			nodes = append(nodes, s.Node)
		}
		corpus, err := NewCorpus(g, interGraphK, WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		mixes := []struct {
			name  string
			query func(i int) error
		}{
			{"intergraph", func(i int) error { _, err := corpus.KNNSignature(ctx, sigs[i], interGraphL); return err }},
			{"node", func(i int) error { _, err := corpus.KNN(ctx, nodes[i], interGraphL); return err }},
		}
		rows := float64(g.NumNodes())
		for _, mix := range mixes {
			var cur point
			ran := b.Run(fmt.Sprintf("pgp=x%g/mix=%s", scale, mix.name), func(b *testing.B) {
				corpus.ResetStats()
				lat := make([]float64, 0, b.N*scaleQueries)
				for range b.N {
					for i := range scaleQueries {
						t0 := time.Now()
						if err := mix.query(i); err != nil {
							b.Fatal(err)
						}
						lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
					}
				}
				s := corpus.Stats()
				sort.Float64s(lat)
				p50, n := lat[len(lat)/2], float64(len(lat))
				b.ReportMetric(p50, "p50_us")
				b.ReportMetric(lat[len(lat)*95/100], "p95_us")
				b.ReportMetric(float64(s.DistanceCalls)/n, "evals/query")
				b.ReportMetric(float64(s.RowsBound)/n, "rowsbound/query")
				if p, ok := prev[mix.name]; ok {
					b.ReportMetric(math.Log(p50/p.p50)/math.Log(rows/p.rows), "growth")
				}
				cur = point{rows, p50}
			})
			if ran && cur.rows > 0 {
				prev[mix.name] = cur
			}
		}
	}
}
