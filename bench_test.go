// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact, backed by the same experiment runners as cmd/tdac-bench)
// plus the ablation benches for the design choices called out in
// DESIGN.md §5.
//
// By default benches run the smoke-scale workloads; set TDAC_FULL=1 to
// benchmark the paper-scale ones (minutes per run):
//
//	TDAC_FULL=1 go test -bench BenchmarkTable4 -benchtime 1x
package tdac_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"

	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/core"
	"tdac/internal/experiments"
	"tdac/internal/metrics"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/synth"
	"tdac/internal/truthdata"
)

func benchOptions() experiments.Options {
	return experiments.Options{Full: os.Getenv("TDAC_FULL") == "1"}
}

// benchExperiment measures one paper artifact end to end: dataset
// generation, every algorithm run, and table assembly.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner := experiments.NewRunner(benchOptions())
		tables, err := exp.Run(runner)
		if err != nil {
			b.Fatal(err)
		}
		for _, tab := range tables {
			if _, err := fmt.Fprintf(io.Discard, "%v", tab.Rows); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- One bench per paper table. ---

func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4a(b *testing.B) { benchExperiment(b, "table4a") }
func BenchmarkTable4b(b *testing.B) { benchExperiment(b, "table4b") }
func BenchmarkTable4c(b *testing.B) { benchExperiment(b, "table4c") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }

// --- One bench per paper figure. ---

func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// --- Ablation benches (DESIGN.md §5). Each reports the accuracy the
// variant achieves on DS2 alongside its runtime, so both the cost and
// the quality of the design choice are visible. ---

func ablationDataset(b *testing.B) *synth.Generated {
	b.Helper()
	cfg := synth.DS2()
	if os.Getenv("TDAC_FULL") != "1" {
		cfg = cfg.Scaled(150)
	}
	g, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func runTDACVariant(b *testing.B, g *synth.Generated, mutate func(*core.TDAC)) {
	b.Helper()
	b.ReportAllocs()
	var lastAcc, lastRand float64
	for i := 0; i < b.N; i++ {
		t := core.New(algorithms.NewAccu())
		mutate(t)
		out, err := t.Run(g.Dataset)
		if err != nil {
			b.Fatal(err)
		}
		lastAcc = metrics.Evaluate(g.Dataset, out.Truth).Accuracy
		lastRand = randIndex(out, g)
	}
	b.ReportMetric(lastAcc, "accuracy")
	b.ReportMetric(lastRand, "rand-index")
}

// randIndex scores how close the found partition is to the planted one.
func randIndex(out *core.Outcome, g *synth.Generated) float64 {
	return partition.RandIndex(out.Partition, g.Planted)
}

func BenchmarkAblationKMeansInit(b *testing.B) {
	g := ablationDataset(b)
	for _, init := range []clustering.InitMethod{clustering.InitKMeansPlusPlus, clustering.InitFirstK, clustering.InitRandom} {
		init := init
		b.Run(init.String(), func(b *testing.B) {
			runTDACVariant(b, g, func(t *core.TDAC) { t.KMeans.Init = init })
		})
	}
}

func BenchmarkAblationDistance(b *testing.B) {
	g := ablationDataset(b)
	for _, dist := range []clustering.Distance{clustering.Hamming{}, clustering.Euclidean{}} {
		dist := dist
		b.Run(dist.Name(), func(b *testing.B) {
			runTDACVariant(b, g, func(t *core.TDAC) { t.Distance = dist })
		})
	}
}

func BenchmarkAblationReference(b *testing.B) {
	g := ablationDataset(b)
	b.Run("reference=base", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) {})
	})
	b.Run("reference=majority", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) { t.Reference = algorithms.NewMajorityVote() })
	})
}

func BenchmarkAblationParallel(b *testing.B) {
	g := ablationDataset(b)
	// Workers=1 runs the k-sweep and the per-group base runs
	// sequentially; the default pool runs both on GOMAXPROCS workers.
	b.Run("sequential", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) { t.Workers = 1 })
	})
	b.Run("parallel", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) {})
	})
}

func BenchmarkAblationSparse(b *testing.B) {
	// Low-coverage data: the regime of the paper's future-work item (i).
	cfg := synth.DS2()
	cfg.Coverage = 0.4
	if os.Getenv("TDAC_FULL") != "1" {
		cfg = cfg.Scaled(150)
	}
	g, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) {})
	})
	b.Run("masked", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) { t.Masked = true })
	})
}

// BenchmarkAblationKSelection compares the paper's silhouette-based k
// choice against the classic inertia elbow.
func BenchmarkAblationKSelection(b *testing.B) {
	g := ablationDataset(b)
	b.Run("silhouette", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) {})
	})
	b.Run("elbow", func(b *testing.B) {
		b.ReportAllocs()
		var lastAcc float64
		for i := 0; i < b.N; i++ {
			acc, err := elbowTDAC(g.Dataset)
			if err != nil {
				b.Fatal(err)
			}
			lastAcc = acc
		}
		b.ReportMetric(lastAcc, "accuracy")
	})
}

// elbowTDAC reimplements TD-AC's selection step with ElbowK instead of
// the silhouette, then runs Accu per group.
func elbowTDAC(d *truthdata.Dataset) (float64, error) {
	base := algorithms.NewAccu()
	ref, err := base.Discover(d)
	if err != nil {
		return 0, err
	}
	tv := core.BuildTruthVectors(d, ref.Truth, false)
	km := clustering.KMeans{Distance: clustering.Hamming{}}
	var inertias []float64
	clusterings := map[int]*clustering.Clustering{}
	maxK := d.NumAttrs() - 1
	for k := 2; k <= maxK; k++ {
		c, err := km.Cluster(tv.Vectors, k)
		if err != nil {
			return 0, err
		}
		// MetricInertia, not Inertia: the clustering assigns under Hamming,
		// so the elbow curve must be scored in the same metric.
		inertias = append(inertias, c.MetricInertia)
		clusterings[k] = c
	}
	k := clustering.ElbowK(inertias, 2, 0.15)
	chosen := clusterings[k]
	t := core.New(base)
	t.MinK, t.MaxK = k, k
	_ = chosen
	out, err := t.Run(d)
	if err != nil {
		return 0, err
	}
	return metrics.Evaluate(d, out.Truth).Accuracy, nil
}

// BenchmarkAblationClusterer compares k-means against deterministic
// agglomerative clustering as TD-AC's partitioner.
func BenchmarkAblationClusterer(b *testing.B) {
	g := ablationDataset(b)
	b.Run("kmeans", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) {})
	})
	for _, l := range []clustering.Linkage{clustering.AverageLinkage, clustering.SingleLinkage, clustering.CompleteLinkage} {
		l := l
		b.Run("agglomerative-"+l.String(), func(b *testing.B) {
			runTDACVariant(b, g, func(t *core.TDAC) {
				t.Clusterer = &clustering.Agglomerative{Linkage: l, Distance: clustering.Hamming{}}
			})
		})
	}
}

// BenchmarkAblationProjection measures the Johnson–Lindenstrauss
// dimensionality reduction of the truth vectors (future-work item (ii)):
// quality should hold while the clustering cost drops.
func BenchmarkAblationProjection(b *testing.B) {
	g := ablationDataset(b)
	b.Run("full-dim", func(b *testing.B) {
		runTDACVariant(b, g, func(t *core.TDAC) {})
	})
	for _, dim := range []int{256, 64, 16} {
		dim := dim
		b.Run(fmt.Sprintf("project-%d", dim), func(b *testing.B) {
			runTDACVariant(b, g, func(t *core.TDAC) { t.ProjectDim = dim })
		})
	}
}

// --- K-sweep benchmark: the clustering hot path in isolation. ---

// ksweepTruthVectors builds the truth vectors the sweep clusters, outside
// the timer: |A| = 24 attributes over 150 objects × 10 sources (vector
// dimension 1500, k swept over [2, 23]).
func ksweepTruthVectors(b *testing.B) (*truthdata.Dataset, *core.TruthVectors) {
	b.Helper()
	cfg := synth.DS2().Scaled(150)
	cfg.Attrs = 24
	cfg.GroupSizes = []int{8, 8, 4, 4}
	g, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := algorithms.NewMajorityVote().Discover(g.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	return g.Dataset, core.BuildTruthVectors(g.Dataset, ref.Truth, false)
}

// seedKSweep reimplements the k-sweep exactly as the repository's original
// code did — sequential loop, unaccelerated float k-means, dense
// [][]float64 distance matrix — as the baseline the packed path is
// measured against (and held bit-identical to, see internal/core's
// TestKSweepMatchesSeedImplementation).
func seedKSweep(b *testing.B, tv *core.TruthVectors, nAttrs int) float64 {
	b.Helper()
	km := clustering.KMeans{Seed: 1, Distance: clustering.Hamming{}, DisableAccel: true}
	distMatrix := clustering.DistanceMatrix(tv.Vectors, clustering.Hamming{})
	bestSil, haveBest := 0.0, false
	for k := 2; k <= nAttrs-1; k++ {
		c, err := km.Cluster(tv.Vectors, k)
		if err != nil {
			b.Fatal(err)
		}
		sil := clustering.SilhouetteFromMatrix(distMatrix, c.Assign, k)
		if !haveBest || sil > bestSil {
			haveBest, bestSil = true, sil
		}
	}
	return bestSil
}

// BenchmarkKSweep compares the original sequential byte-vector sweep
// ("seed") against the rebuilt hot path: packed popcount kernels and the
// shared flat distance matrix on one worker, then with the full worker
// pool. The packed variants are bit-identical to the seed path in output;
// only the time changes.
func BenchmarkKSweep(b *testing.B) {
	d, tv := ksweepTruthVectors(b)
	nAttrs := d.NumAttrs()
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		var sil float64
		for i := 0; i < b.N; i++ {
			sil = seedKSweep(b, tv, nAttrs)
		}
		b.ReportMetric(sil, "silhouette")
	})
	for _, workers := range []int{1, 0} {
		workers := workers
		name := "packed-workers-1"
		if workers == 0 {
			name = "packed-workers-all"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sil float64
			for i := 0; i < b.N; i++ {
				t := core.New(algorithms.NewMajorityVote())
				t.Workers = workers
				_, s, _, err := t.SelectPartition(context.Background(), tv, nAttrs)
				if err != nil {
					b.Fatal(err)
				}
				sil = s
			}
			b.ReportMetric(sil, "silhouette")
		})
	}
	// The observability overhead gate (DESIGN.md §8): stats-off must stay
	// within 2% of packed-workers-1 — it differs only by nil Recorder
	// checks — and stats-on shows the full collection cost.
	b.Run("packed-workers-1-stats", func(b *testing.B) {
		b.ReportAllocs()
		var sil float64
		for i := 0; i < b.N; i++ {
			t := core.New(algorithms.NewMajorityVote())
			t.Workers = 1
			t.Recorder = obs.NewRecorder(nil)
			_, s, _, err := t.SelectPartition(context.Background(), tv, nAttrs)
			if err != nil {
				b.Fatal(err)
			}
			sil = s
		}
		b.ReportMetric(sil, "silhouette")
	})
}
