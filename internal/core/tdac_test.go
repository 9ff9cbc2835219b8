package core

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/metrics"
	"tdac/internal/partition"
	"tdac/internal/synth"
	"tdac/internal/truthdata"
)

func smallDS1(t testing.TB) (*truthdata.Dataset, partition.Partition) {
	t.Helper()
	g, err := synth.Generate(synth.DS2().Scaled(120))
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset, g.Planted
}

func TestTDACRequiresBase(t *testing.T) {
	d, _ := smallDS1(t)
	tdac := &TDAC{}
	if _, err := tdac.Run(d); err == nil {
		t.Error("Run without Base succeeded")
	}
	if _, _, err := tdac.FindPartition(d); err == nil {
		t.Error("FindPartition without Base succeeded")
	}
}

func TestTDACEmptyDataset(t *testing.T) {
	d := &truthdata.Dataset{Name: "empty", Sources: []string{"s"}, Objects: []string{"o"}, Attrs: []string{"a", "b", "c"}}
	tdac := New(algorithms.NewMajorityVote())
	if _, err := tdac.Run(d); !errors.Is(err, algorithms.ErrEmptyDataset) {
		t.Errorf("err = %v, want ErrEmptyDataset", err)
	}
}

func TestTDACName(t *testing.T) {
	if got := New(algorithms.NewAccu()).Name(); got != "TD-AC (F=Accu)" {
		t.Errorf("Name = %q", got)
	}
	if got := (&TDAC{}).Name(); got != "TD-AC" {
		t.Errorf("baseless Name = %q", got)
	}
}

func TestTDACRecoversPlantedPartition(t *testing.T) {
	d, planted := smallDS1(t)
	tdac := New(algorithms.NewAccu())
	out, err := tdac.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Partition.Equal(planted) {
		t.Errorf("partition = %s, want planted %s", out.Partition, planted)
	}
	if out.Silhouette <= 0 {
		t.Errorf("silhouette = %v, want > 0", out.Silhouette)
	}
}

func TestTDACImprovesOnBase(t *testing.T) {
	d, _ := smallDS1(t)
	base := algorithms.NewAccu()
	baseRes, err := base.Discover(d)
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(algorithms.NewAccu()).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	baseAcc := metrics.Evaluate(d, baseRes.Truth).Accuracy
	tdacAcc := metrics.Evaluate(d, out.Truth).Accuracy
	if tdacAcc < baseAcc {
		t.Errorf("TD-AC accuracy %v below base %v on structurally correlated data", tdacAcc, baseAcc)
	}
}

func TestTDACResultShape(t *testing.T) {
	d, _ := smallDS1(t)
	out, err := New(algorithms.NewAccu()).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1 (paper's single-pass)", out.Iterations)
	}
	if len(out.Truth) != len(d.Cells()) {
		t.Errorf("predicted %d cells, want %d", len(out.Truth), len(d.Cells()))
	}
	if len(out.Trust) != d.NumSources() {
		t.Errorf("trust entries = %d, want %d", len(out.Trust), d.NumSources())
	}
	if out.ReferenceResult == nil {
		t.Error("ReferenceResult missing")
	}
	if len(out.Explored) == 0 {
		t.Error("Explored k scores missing")
	}
	for i, ks := range out.Explored {
		if ks.K != i+2 {
			t.Errorf("Explored[%d].K = %d, want %d", i, ks.K, i+2)
		}
		if ks.Inertia < 0 {
			t.Errorf("negative inertia at k=%d", ks.K)
		}
	}
	if out.Runtime <= 0 {
		t.Error("Runtime not recorded")
	}
}

func TestTDACFewAttributesFallsBackToWholeSet(t *testing.T) {
	b := truthdata.NewBuilder("two-attrs")
	b.Claim("s1", "o", "a1", "x")
	b.Claim("s2", "o", "a1", "y")
	b.Claim("s1", "o", "a2", "x")
	d := b.MustBuild()
	out, err := New(algorithms.NewMajorityVote()).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Partition) != 1 {
		t.Errorf("partition = %s, want single whole group", out.Partition)
	}
	if out.Partition.Size() != 2 {
		t.Errorf("partition covers %d attrs, want 2", out.Partition.Size())
	}
}

func TestTDACParallelMatchesSequential(t *testing.T) {
	d, _ := smallDS1(t)
	seq := New(algorithms.NewAccu())
	seq.Workers = 1
	seqOut, err := seq.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	par := New(algorithms.NewAccu())
	par.Workers = 4
	parOut, err := par.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !seqOut.Partition.Equal(parOut.Partition) {
		t.Fatalf("parallel found different partition")
	}
	for cell, v := range seqOut.Truth {
		if parOut.Truth[cell] != v {
			t.Fatalf("parallel differs at %v", cell)
		}
	}
}

func TestTDACDeterministic(t *testing.T) {
	d, _ := smallDS1(t)
	r1, err := New(algorithms.NewAccu()).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(algorithms.NewAccu()).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Partition.Equal(r2.Partition) || r1.Silhouette != r2.Silhouette {
		t.Error("TD-AC is not deterministic")
	}
}

func TestTDACCustomKRange(t *testing.T) {
	d, _ := smallDS1(t)
	tdac := New(algorithms.NewMajorityVote())
	tdac.MinK = 3
	tdac.MaxK = 3
	out, err := tdac.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Explored) != 1 || out.Explored[0].K != 3 {
		t.Errorf("Explored = %+v, want only k=3", out.Explored)
	}
	if len(out.Partition) != 3 {
		t.Errorf("partition has %d groups, want 3", len(out.Partition))
	}
}

func TestTDACMaskedMode(t *testing.T) {
	d, _ := smallDS1(t)
	tdac := New(algorithms.NewMajorityVote())
	tdac.Masked = true
	out, err := tdac.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sparsity != 0 {
		// DS2 at full coverage: no missing claims, sparsity 0.
		t.Errorf("Sparsity = %v, want 0 at full coverage", out.Sparsity)
	}
	if len(out.Truth) == 0 {
		t.Error("masked mode produced no predictions")
	}
}

func TestTDACMaskedModeSparseData(t *testing.T) {
	g, err := synth.Generate(synth.Config{
		Name: "sparse", Attrs: 6, Objects: 60, Sources: 8,
		M1: 1, M2: 0, M3: 1, Coverage: 0.5, Seed: 5, FalseValues: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	tdac := New(algorithms.NewMajorityVote())
	tdac.Masked = true
	out, err := tdac.Run(g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sparsity < 0.3 || out.Sparsity > 0.7 {
		t.Errorf("Sparsity = %v, want ≈ 0.5", out.Sparsity)
	}
}

func TestTDACCustomReference(t *testing.T) {
	d, _ := smallDS1(t)
	tdac := New(algorithms.NewAccu())
	tdac.Reference = algorithms.NewMajorityVote()
	out, err := tdac.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReferenceResult.Algorithm != "MajorityVote" {
		t.Errorf("reference algorithm = %q, want MajorityVote", out.ReferenceResult.Algorithm)
	}
}

func TestTDACCustomDistance(t *testing.T) {
	d, _ := smallDS1(t)
	tdac := New(algorithms.NewMajorityVote())
	tdac.Distance = clustering.Euclidean{}
	if _, err := tdac.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestTDACDiscoverInterface(t *testing.T) {
	d, _ := smallDS1(t)
	var alg algorithms.Algorithm = New(algorithms.NewMajorityVote())
	res, err := alg.Discover(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "TD-AC (F=MajorityVote)" {
		t.Errorf("Algorithm = %q", res.Algorithm)
	}
}

func TestTDACMergedTruthMatchesPerGroupRuns(t *testing.T) {
	// Integration invariant: the merged result must equal running the
	// base algorithm manually on each group's projection — truth and
	// confidence per cell, and trust as the claim-weighted mean of the
	// groups' trust vectors, bit for bit.
	d, _ := smallDS1(t)
	base := algorithms.NewAccu()
	out, err := New(base).Run(d)
	if err != nil {
		t.Fatal(err)
	}
	trust := make([]float64, d.NumSources())
	weights := make([]float64, d.NumSources())
	for _, group := range out.Partition {
		sub, backMap := d.Project(group)
		res, err := base.Discover(sub)
		if err != nil {
			t.Fatal(err)
		}
		for cell, v := range res.Truth {
			orig := truthdata.Cell{Object: cell.Object, Attr: backMap[cell.Attr]}
			if out.Truth[orig] != v {
				t.Fatalf("merged truth differs from group run at %v", orig)
			}
			if got, want := out.Confidence[orig], res.Confidence[cell]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("merged confidence at %v: %v, group run %v", orig, got, want)
			}
		}
		w := float64(len(sub.Claims))
		for s, tr := range res.Trust {
			trust[s] += tr * w
			weights[s] += w
		}
	}
	for s := range trust {
		if weights[s] > 0 {
			trust[s] /= weights[s]
		}
		if math.Float64bits(out.Trust[s]) != math.Float64bits(trust[s]) {
			t.Fatalf("merged trust of source %d: %v, claim-weighted group mean %v", s, out.Trust[s], trust[s])
		}
	}
}

func TestTDACWithAgglomerativeClusterer(t *testing.T) {
	d, planted := smallDS1(t)
	tdac := New(algorithms.NewAccu())
	tdac.Clusterer = &clustering.Agglomerative{Linkage: clustering.AverageLinkage, Distance: clustering.Hamming{}}
	out, err := tdac.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Partition.Equal(planted) {
		t.Errorf("agglomerative partition = %s, want planted %s", out.Partition, planted)
	}
	rep := metrics.Evaluate(d, out.Truth)
	if rep.Accuracy < 0.95 {
		t.Errorf("accuracy with agglomerative clusterer = %v", rep.Accuracy)
	}
}

func TestCheckStabilityStrongSignal(t *testing.T) {
	d, planted := smallDS1(t)
	tdac := New(algorithms.NewAccu())
	st, err := tdac.CheckStability(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Partitions) != 5 || len(st.Silhouettes) != 5 {
		t.Fatalf("runs recorded: %d/%d", len(st.Partitions), len(st.Silhouettes))
	}
	// DS2's structure is clean: reseeding must agree almost always.
	if st.MeanRandIndex < 0.95 {
		t.Errorf("MeanRandIndex = %v, want ≈ 1 on clean structure", st.MeanRandIndex)
	}
	if !st.Modal.Equal(planted) {
		t.Errorf("modal partition %s != planted %s", st.Modal, planted)
	}
	if st.ModalShare < 0.8 {
		t.Errorf("ModalShare = %v", st.ModalShare)
	}
}

func TestCheckStabilityValidation(t *testing.T) {
	d, _ := smallDS1(t)
	if _, err := (&TDAC{}).CheckStability(d, 3); err == nil {
		t.Error("accepted missing base")
	}
	if _, err := New(algorithms.NewMajorityVote()).CheckStability(d, 1); err == nil {
		t.Error("accepted runs < 2")
	}
}

func TestRunOnPartition(t *testing.T) {
	d, planted := smallDS1(t)
	res, err := RunOnPartition(algorithms.NewAccu(), d, planted)
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, res.Truth)
	// Running on the planted partition is the domain-aware upper bound:
	// it must at least match plain Accu.
	base, _ := algorithms.NewAccu().Discover(d)
	if rep.Accuracy < metrics.Evaluate(d, base.Truth).Accuracy {
		t.Errorf("planted-partition accuracy %v below plain Accu", rep.Accuracy)
	}
	if _, err := RunOnPartition(nil, d, planted); err == nil {
		t.Error("accepted nil base")
	}
	if _, err := RunOnPartition(algorithms.NewAccu(), d, planted[:1]); err == nil {
		t.Error("accepted partial partition")
	}
}

func TestTDACProjection(t *testing.T) {
	d, planted := smallDS1(t)
	tdac := New(algorithms.NewAccu())
	tdac.ProjectDim = 64
	out, err := tdac.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Partition.Equal(planted) {
		t.Errorf("projected partition %s != planted %s", out.Partition, planted)
	}
	bad := New(algorithms.NewAccu())
	bad.ProjectDim = 64
	bad.Masked = true
	if _, err := bad.Run(d); err == nil {
		t.Error("accepted ProjectDim with Masked")
	}
}

// failingAlgorithm lets the tests inject base-algorithm failures. The call
// counter is atomic because TD-AC's base-run pool invokes Discover from
// several goroutines.
type failingAlgorithm struct{ calls atomic.Int64 }

func (f *failingAlgorithm) Name() string { return "failing" }
func (f *failingAlgorithm) Discover(d *truthdata.Dataset) (*algorithms.Result, error) {
	f.calls.Add(1)
	return nil, errors.New("injected failure")
}

func TestTDACPropagatesReferenceFailure(t *testing.T) {
	d, _ := smallDS1(t)
	tdac := New(&failingAlgorithm{})
	_, err := tdac.Run(d)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("err = %v, want injected failure", err)
	}
}

func TestTDACPropagatesGroupFailure(t *testing.T) {
	// Reference succeeds (MajorityVote) but the base fails per group.
	d, _ := smallDS1(t)
	fail := &failingAlgorithm{}
	tdac := New(fail)
	tdac.Reference = algorithms.NewMajorityVote()
	_, err := tdac.Run(d)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("err = %v, want injected failure", err)
	}
}

func TestTDACParallelPropagatesGroupFailure(t *testing.T) {
	d, _ := smallDS1(t)
	fail := &failingAlgorithm{}
	tdac := New(fail)
	tdac.Reference = algorithms.NewMajorityVote()
	tdac.Workers = 4
	if _, err := tdac.Run(d); err == nil {
		t.Error("the base-run pool swallowed a group failure")
	}
}

// TestTDACRobustnessProperty: for random structurally correlated configs,
// TD-AC must run cleanly, cover every claimed cell and never do much
// worse than its base algorithm.
func TestTDACRobustnessProperty(t *testing.T) {
	f := func(seedRaw uint32, groupsRaw, m2Raw uint8) bool {
		groups := int(groupsRaw)%3 + 2 // 2..4 planted groups
		attrs := groups * 2
		cfg := synth.Config{
			Name:    "prop",
			Attrs:   attrs,
			Objects: 40,
			Sources: 8,
			M1:      1,
			M2:      float64(m2Raw%3) * 0.1,
			M3:      0.9,
			Seed:    int64(seedRaw),
		}
		g, err := synth.Generate(cfg)
		if err != nil {
			return false
		}
		base := algorithms.NewMajorityVote()
		out, err := New(base).Run(g.Dataset)
		if err != nil {
			return false
		}
		if len(out.Truth) != len(g.Dataset.Cells()) {
			return false
		}
		baseRes, err := base.Discover(g.Dataset)
		if err != nil {
			return false
		}
		baseAcc := metrics.Evaluate(g.Dataset, baseRes.Truth).Accuracy
		tdacAcc := metrics.Evaluate(g.Dataset, out.Truth).Accuracy
		// Allow a small tolerance: clustering noise on tiny datasets.
		return tdacAcc >= baseAcc-0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
