package bench

import (
	"fmt"
	"math/rand"

	"ned"
	"ned/internal/anonymize"
	"ned/internal/datasets"
	"ned/internal/deanon"
	"ned/internal/graph"
)

// deanonK is §13.5's neighborhood depth; the Feature baseline recurses
// to deanonK-1.
const deanonK = 3

// wholeGraph returns the query engine over every node of g at depth k:
// the pool Figs. 8, 10 and 11 rank.
func wholeGraph(g *graph.Graph, k int) *ned.Corpus {
	return must(ned.NewCorpus(g, k))
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// deanonCase is one row of Figs. 10–11: an anonymized copy of the
// training graph and the attack on it.
type deanonCase struct {
	label string
	test  *graph.Graph
	e     deanon.Experiment
}

// newDeanonCase samples the queries of the §13.5 setup: the training
// graph keeps its identities, the testing graph is the anonymized copy,
// and every training node is a candidate.
func newDeanonCase(label string, anon anonymize.Result, queries, topL int, seed int64) deanonCase {
	qs := sampleNodes(anon.Graph, queries, rand.New(rand.NewSource(seed)))
	return deanonCase{label, anon.Graph, deanon.Experiment{Identity: anon.Identity, Queries: qs, TopL: topL}}
}

// deanonTable adds one row per case to t: the precision of NED, ranked
// by one Corpus over train, and of the Feature baseline.
func deanonTable(t Table, train *graph.Graph, cases []deanonCase) Table {
	c := wholeGraph(train, deanonK)
	feat := deanon.NewFeature(train, deanonK-1)
	for _, dc := range cases {
		pNED := deanon.Precision(dc.e, deanon.NED(c, dc.test, deanonK))
		pFeat := deanon.Precision(dc.e, feat.Ranker(dc.test))
		t.AddRow(dc.label, fmt.Sprintf("%.2f", pNED), fmt.Sprintf("%.2f", pFeat))
	}
	return t
}

func figure10Cases(o Options, train *graph.Graph, topL int, ratio float64) []deanonCase {
	rng := rand.New(rand.NewSource(o.Seed + 23))
	q, seed := o.Queries, o.Seed+29
	return []deanonCase{
		newDeanonCase("naive", anonymize.Naive(train, rng), q, topL, seed),
		newDeanonCase("sparsify", anonymize.Sparsify(train, ratio, rng), q, topL, seed),
		newDeanonCase("perturb", anonymize.Perturb(train, ratio, rng), q, topL, seed),
	}
}

func figure11aCases(o Options, train *graph.Graph) []deanonCase {
	var cases []deanonCase
	for _, ratio := range []float64{0.01, 0.02, 0.05, 0.10} {
		anon := anonymize.Perturb(train, ratio, rand.New(rand.NewSource(o.Seed+31)))
		cases = append(cases, newDeanonCase(fmt.Sprintf("%.0f%%", 100*ratio), anon, o.Queries, 5, o.Seed+37))
	}
	return cases
}

func figure11bCases(o Options, train *graph.Graph) []deanonCase {
	anon := anonymize.Perturb(train, 0.01, rand.New(rand.NewSource(o.Seed+41)))
	var cases []deanonCase
	for _, l := range []int{1, 2, 5, 10, 20} {
		cases = append(cases, newDeanonCase(fmt.Sprint(l), anon, o.Queries, l, o.Seed+43))
	}
	return cases
}

// deanonNote reports the pool, which is the whole training graph.
func deanonNote(o Options, train *graph.Graph) string {
	return fmt.Sprintf("%d queries, pool: all %d training nodes, k=%d", o.Queries, train.NumNodes(), deanonK)
}

// Figure10 reproduces Figures 10a/10b: de-anonymization precision of NED
// versus the Feature baseline under the three anonymization schemes.
// The paper uses k=3, top-5 on PGP (1% perturbation) and top-10 on DBLP
// (5% perturbation).
func Figure10(o Options, name datasets.Name, topL int, ratio float64) Table {
	o.defaults()
	train := o.dataset(name)
	return deanonTable(Table{
		Title: fmt.Sprintf("Figure 10 (%s): De-anonymization Precision, top-%d, ratio %.0f%%",
			name, topL, 100*ratio),
		Note:   deanonNote(o, train),
		Header: []string{"Scheme", "NED", "Feature"},
	}, train, figure10Cases(o, train, topL, ratio))
}

// Figure11a reproduces Figure 11a: precision as the perturbation ratio
// grows (PGP, top-5).
func Figure11a(o Options) Table {
	o.defaults()
	train := o.dataset(datasets.PGP)
	return deanonTable(Table{
		Title:  "Figure 11a: Precision vs Permutation Ratio (PGP, perturb, top-5, k=3)",
		Note:   deanonNote(o, train),
		Header: []string{"ratio", "NED", "Feature"},
	}, train, figure11aCases(o, train))
}

// Figure11b reproduces Figure 11b: precision as the number of examined
// top-l results grows (PGP, 1% perturbation).
func Figure11b(o Options) Table {
	o.defaults()
	train := o.dataset(datasets.PGP)
	return deanonTable(Table{
		Title:  "Figure 11b: Precision vs Top-l (PGP, perturb 1%, k=3)",
		Note:   deanonNote(o, train),
		Header: []string{"l", "NED", "Feature"},
	}, train, figure11bCases(o, train))
}
