package verify

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tdac"
	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/core"
	"tdac/internal/genpartition"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/synth"
	"tdac/internal/truthdata"
)

// Library-level invariants: the clustering kernels, the k-sweep and the
// TD-AC pipeline itself. Service-level invariants live in serverinv.go.

func init() {
	register(
		Invariant{
			Name:        "distmatrix-packed-vs-naive",
			Class:       Differential,
			Description: "the packed popcount distance matrix equals the O(n²) float reference, dense and masked, bit for bit",
			Quick:       true,
			Check:       checkDistMatrix,
		},
		Invariant{
			Name:        "silhouette-vs-equations",
			Class:       Differential,
			Description: "production silhouette values equal Equations 5–7 evaluated from the definitions",
			Quick:       true,
			Check:       checkSilhouette,
		},
		Invariant{
			Name:        "kmeans-vs-naive-lloyd",
			Class:       Differential,
			Description: "accelerated k-means (packed seeding, bounded assignment) matches an unaccelerated Lloyd reference exactly",
			Quick:       true,
			Check:       checkKMeans,
		},
		Invariant{
			Name:        "ksweep-vs-sequential",
			Class:       Differential,
			Description: "the parallel shared-matrix k-sweep selects the same partition, silhouette and per-k scores as a sequential naive sweep",
			Quick:       true,
			Check:       checkKSweep,
		},
		Invariant{
			Name:        "relabel-equivariance",
			Class:       Metamorphic,
			Description: "renaming sources and objects permutes the truth vectors exactly, flips reference truth only on razor ties and never changes a k-means++ seeding draw; renaming attributes permutes the truth-vector rows",
			Quick:       true,
			Check:       checkRelabel,
		},
		Invariant{
			Name:        "workers-bit-identical",
			Class:       Metamorphic,
			Description: "Discover returns bit-identical results for every WithWorkers value, which bounds both the k-sweep pool and the per-group base-run pool (including more workers than groups)",
			Quick:       true,
			Check:       checkWorkers,
		},
		Invariant{
			Name:        "group-views-vs-projection",
			Class:       Differential,
			Description: "per-group base runs on views of the run's claim index merge to exactly what projecting and re-indexing every group gave — truth, confidence and trust bits, Converged, and each group's claim count and iterations — for every built-in algorithm over a seeded family of singleton, whole and random partitions with duplicate claims and sources absent from some groups",
			Quick:       true,
			Check:       checkGroupViews,
		},
		Invariant{
			Name:        "partition-cover",
			Class:       Metamorphic,
			Description: "merging per-group results covers every claimed cell exactly once, for arbitrary partitions and for the one TD-AC selects",
			Quick:       true,
			Check:       checkPartitionCover,
		},
		Invariant{
			Name:        "genpartition-optimum",
			Class:       Oracle,
			Description: "TD-AC's chosen partition scores within ε of the brute-force AccuGenPartition optimum on |A| = 5 (Bell(5) = 52 candidates)",
			Quick:       false,
			Check:       checkGenPartitionOptimum,
		},
		Invariant{
			Name:        "planted-recovery",
			Class:       Oracle,
			Description: "TD-AC recovers the generator's planted attribute partition on the paper's DS2 configuration",
			Quick:       false,
			Check:       checkPlantedRecovery,
		},
		Invariant{
			Name:        "search-vs-exhaustive",
			Class:       Oracle,
			Description: "the sublinear k-search strategies (golden, mdl) select a silhouette at least the exhaustive sweep's optimum while probing strictly fewer cluster counts, deterministically",
			Quick:       true,
			Check:       checkSearchVsExhaustive,
		},
	)
}

// rngFor derives a per-invariant rng so invariants stay independent of
// registration order and of each other.
func rngFor(cfg Config, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed*1_000_003 + salt))
}

func checkDistMatrix(cfg Config) error {
	rng := rngFor(cfg, 1)
	for trial := 0; trial < cfg.Trials; trial++ {
		n := 6 + rng.Intn(10)
		dim := 16 + rng.Intn(100) // crosses the 64-bit word boundary
		vecs := randomBinaryVectors(rng, n, dim)
		packed, ok := clustering.PackBinary(vecs)
		if !ok {
			return fmt.Errorf("trial %d: PackBinary rejected binary vectors", trial)
		}
		m := clustering.NewDistMatrixPacked(packed)
		ref := naiveDistMatrix(vecs, clustering.Hamming{})
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got, want := m.At(i, j), ref[i][j]; got != want {
					return fmt.Errorf("trial %d: dense d(%d,%d): packed %v, naive %v", trial, i, j, got, want)
				}
			}
		}

		mvecs := randomMaskedVectors(rng, n, dim, core.Missing)
		mpacked, ok := clustering.PackMasked(mvecs, core.Missing)
		if !ok {
			return fmt.Errorf("trial %d: PackMasked rejected masked vectors", trial)
		}
		mm := clustering.NewDistMatrixPacked(mpacked)
		mref := naiveDistMatrix(mvecs, clustering.MaskedHamming{Mask: core.Missing})
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got, want := mm.At(i, j), mref[i][j]; got != want {
					return fmt.Errorf("trial %d: masked d(%d,%d): packed %v, naive %v", trial, i, j, got, want)
				}
			}
		}
	}
	return nil
}

func checkSilhouette(cfg Config) error {
	rng := rngFor(cfg, 2)
	for trial := 0; trial < cfg.Trials; trial++ {
		n := 6 + rng.Intn(12)
		dim := 10 + rng.Intn(50)
		k := 2 + rng.Intn(3)
		vecs := randomBinaryVectors(rng, n, dim)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		ref := naiveSilhouette(naiveDistMatrix(vecs, clustering.Hamming{}), assign, k)

		if got := clustering.Silhouette(vecs, assign, k, clustering.Hamming{}); got != ref {
			return fmt.Errorf("trial %d: Silhouette %v, Equations 5–7 give %v", trial, got, ref)
		}
		packed, _ := clustering.PackBinary(vecs)
		m := clustering.NewDistMatrixPacked(packed)
		if got := clustering.SilhouetteFromDistMatrix(m, assign, k); got != ref {
			return fmt.Errorf("trial %d: SilhouetteFromDistMatrix %v, Equations 5–7 give %v", trial, got, ref)
		}
	}
	return nil
}

func checkKMeans(cfg Config) error {
	rng := rngFor(cfg, 3)
	for trial := 0; trial < cfg.Trials; trial++ {
		n := 8 + rng.Intn(10)
		dim := 16 + rng.Intn(48)
		k := 2 + rng.Intn(3)
		seed := 1 + rng.Int63n(1_000)

		// Binary vectors under Hamming — TD-AC's configuration — with and
		// without the packed seeding matrix.
		vecs := randomBinaryVectors(rng, n, dim)
		ref := naiveKMeans{seed: seed, dist: clustering.Hamming{}}.cluster(vecs, k)

		plain := clustering.KMeans{Seed: seed, Distance: clustering.Hamming{}}
		if err := compareClustering("hamming", &plain, vecs, k, ref); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		packed, _ := clustering.PackBinary(vecs)
		seeded := clustering.KMeans{Seed: seed, Distance: clustering.Hamming{}, SeedSqDists: clustering.NewDistMatrixPacked(packed)}
		if err := compareClustering("hamming+matrix", &seeded, vecs, k, ref); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}

		// Fractional vectors under the default Euclidean distance.
		frac := make([][]float64, n)
		for i := range frac {
			frac[i] = make([]float64, dim)
			for j := range frac[i] {
				frac[i][j] = rng.Float64()
			}
		}
		fref := naiveKMeans{seed: seed}.cluster(frac, k)
		eu := clustering.KMeans{Seed: seed}
		if err := compareClustering("euclidean", &eu, frac, k, fref); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
	}
	return nil
}

// compareClustering runs the production KMeans and diffs it against a
// naive reference run, field by field.
func compareClustering(label string, km *clustering.KMeans, points [][]float64, k int, ref *naiveClustering) error {
	c, err := km.Cluster(points, k)
	if err != nil {
		return fmt.Errorf("%s: production k-means: %w", label, err)
	}
	for i := range c.Assign {
		if c.Assign[i] != ref.assign[i] {
			return fmt.Errorf("%s: point %d assigned to %d, naive Lloyd says %d", label, i, c.Assign[i], ref.assign[i])
		}
	}
	if c.Inertia != ref.inertia {
		return fmt.Errorf("%s: inertia %v, naive %v", label, c.Inertia, ref.inertia)
	}
	if c.MetricInertia != ref.metricInertia {
		return fmt.Errorf("%s: metric inertia %v, naive %v", label, c.MetricInertia, ref.metricInertia)
	}
	if c.Iterations != ref.iterations {
		return fmt.Errorf("%s: %d iterations, naive %d", label, c.Iterations, ref.iterations)
	}
	return nil
}

func checkKSweep(cfg Config) error {
	rng := rngFor(cfg, 4)
	for trial := 0; trial < cfg.Trials; trial++ {
		nAttrs := 5 + rng.Intn(5)
		dim := 20 + rng.Intn(40)
		seed := 1 + rng.Int63n(1_000)
		vecs := randomBinaryVectors(rng, nAttrs, dim)

		t := &core.TDAC{
			Base:    algorithms.NewMajorityVote(),
			KMeans:  clustering.KMeans{Seed: seed},
			Workers: 4,
		}
		tv := &core.TruthVectors{Vectors: vecs, Dim: dim}
		part, sil, explored, err := t.SelectPartition(context.Background(), tv, nAttrs)
		if err != nil {
			return fmt.Errorf("trial %d: SelectPartition: %w", trial, err)
		}
		refPart, refSil, refSils := naiveKSweep(vecs, 0, 0, clustering.Hamming{}, seed)

		if len(explored) != len(refSils) {
			return fmt.Errorf("trial %d: explored %d values of k, naive sweep %d", trial, len(explored), len(refSils))
		}
		for i, ks := range explored {
			if ks.Silhouette != refSils[i] {
				return fmt.Errorf("trial %d: k=%d silhouette %v, naive %v", trial, ks.K, ks.Silhouette, refSils[i])
			}
		}
		if sil != refSil {
			return fmt.Errorf("trial %d: best silhouette %v, naive %v", trial, sil, refSil)
		}
		if !part.Equal(refPart) {
			return fmt.Errorf("trial %d: partition %v, naive sweep selected %v", trial, part, refPart)
		}
	}
	return nil
}

// identityPerm returns [0, 1, …, n-1].
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// permuteDataset relabels d: perm[old] = new for each id space. Claim
// order — the order every deterministic algorithm iterates in — is
// preserved, so only the identifiers change.
func permuteDataset(d *truthdata.Dataset, sPerm, oPerm, aPerm []int) (*truthdata.Dataset, error) {
	out := &truthdata.Dataset{
		Name:    d.Name,
		Sources: make([]string, len(d.Sources)),
		Objects: make([]string, len(d.Objects)),
		Attrs:   make([]string, len(d.Attrs)),
		Claims:  make([]truthdata.Claim, len(d.Claims)),
	}
	for old, name := range d.Sources {
		out.Sources[sPerm[old]] = name
	}
	for old, name := range d.Objects {
		out.Objects[oPerm[old]] = name
	}
	for old, name := range d.Attrs {
		out.Attrs[aPerm[old]] = name
	}
	for i, c := range d.Claims {
		out.Claims[i] = truthdata.Claim{
			Source: truthdata.SourceID(sPerm[c.Source]),
			Object: truthdata.ObjectID(oPerm[c.Object]),
			Attr:   truthdata.AttrID(aPerm[c.Attr]),
			Value:  c.Value,
		}
	}
	if d.Truth != nil {
		out.Truth = make(map[truthdata.Cell]string, len(d.Truth))
		for cell, v := range d.Truth {
			out.Truth[truthdata.Cell{
				Object: truthdata.ObjectID(oPerm[cell.Object]),
				Attr:   truthdata.AttrID(aPerm[cell.Attr]),
			}] = v
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("permuted dataset invalid: %w", err)
	}
	return out, nil
}

// relabelConfTol bounds how far apart two confidences may be for a
// truth cell that flipped under relabeling: only razor ties — scores
// separated by float noise, not by evidence — are allowed to flip.
// Fuzzing found the need for it (seed -91): iterative algorithms and
// Lloyd's assignment sum float terms in coordinate order, so relabeling
// reorders sums and can swap winners that agree to the last ulp.
const relabelConfTol = 1e-6

// nearlyTied reports whether two scores differ only at razor-tie scale.
func nearlyTied(a, b float64) bool {
	return math.Abs(a-b) <= relabelConfTol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func checkRelabel(cfg Config) error {
	rng := rngFor(cfg, 5)
	for trial := 0; trial < cfg.Trials; trial++ {
		d := randomDataset(rng, 4+rng.Intn(3), 6+rng.Intn(5), 4+rng.Intn(3), 3, 0.9)
		seed := 1 + rng.Int63n(1_000)

		// Source and object relabeling permutes the truth-vector
		// coordinates (column o·|S|+s moves to oPerm[o]·|S|+sPerm[s]).
		sPerm := rng.Perm(d.NumSources())
		oPerm := rng.Perm(d.NumObjects())
		pd, err := permuteDataset(d, sPerm, oPerm, identityPerm(d.NumAttrs()))
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}

		// Equation 1 is exactly equivariant: under a shared reference
		// truth, every truth-vector coordinate moves with its
		// (object, source) pair, bit for bit, in both encodings. Hamming
		// and masked-Hamming distances only see coordinate multisets, so
		// distance invariance follows from this exactly.
		ref, err := algorithms.NewAccu().Discover(d)
		if err != nil {
			return fmt.Errorf("trial %d: reference run: %w", trial, err)
		}
		mappedRef := make(map[truthdata.Cell]string, len(ref.Truth))
		for cell, v := range ref.Truth {
			mappedRef[truthdata.Cell{Object: truthdata.ObjectID(oPerm[cell.Object]), Attr: cell.Attr}] = v
		}
		nS := d.NumSources()
		for _, masked := range []bool{false, true} {
			tv1 := core.BuildTruthVectors(d, ref.Truth, masked)
			tv2 := core.BuildTruthVectors(pd, mappedRef, masked)
			for a := range tv1.Vectors {
				for o := 0; o < d.NumObjects(); o++ {
					for s := 0; s < nS; s++ {
						if tv1.Vectors[a][o*nS+s] != tv2.Vectors[a][oPerm[o]*nS+sPerm[s]] {
							return fmt.Errorf("trial %d: truth vector of %s (masked=%v) not equivariant at object %d source %d",
								trial, d.AttrName(truthdata.AttrID(a)), masked, o, s)
						}
					}
				}
			}
		}

		// End to end, bitwise invariance would overclaim — fuzzing
		// proved it twice. Seed -91: two restarts whose inertias agree
		// to the last ulp swap winners when coordinate sums reorder.
		// Seed 1099511627762: an exact distance tie inside one Lloyd
		// iteration resolves differently under permuted summation and
		// the trajectory converges to a different local optimum
		// (inertia 17 vs 18) — an ulp amplified into a discrete change,
		// so no end-state tolerance can hold. What is provably exact
		// and therefore asserted: the reference run may flip only
		// razor-tied cells, its trust moves by at most float noise, and
		// every k-means++ seeding draw is identical, because the D²
		// landscape on binary vectors is integer-exact.
		pref, err := algorithms.NewAccu().Discover(pd)
		if err != nil {
			return fmt.Errorf("trial %d: relabeled reference run: %w", trial, err)
		}
		for cell, v := range ref.Truth {
			mapped := truthdata.Cell{Object: truthdata.ObjectID(oPerm[cell.Object]), Attr: cell.Attr}
			got, ok := pref.Truth[mapped]
			if !ok {
				return fmt.Errorf("trial %d: reference truth lost cell %v under relabeling", trial, cell)
			}
			if got != v && !nearlyTied(ref.Confidence[cell], pref.Confidence[mapped]) {
				return fmt.Errorf("trial %d: reference truth for %s/%s flipped %q→%q with confidences %v vs %v — not a tie",
					trial, d.ObjectName(cell.Object), d.AttrName(cell.Attr), v, got,
					ref.Confidence[cell], pref.Confidence[mapped])
			}
		}
		for s, t := range ref.Trust {
			if got := pref.Trust[sPerm[s]]; math.Abs(got-t) > 1e-9 {
				return fmt.Errorf("trial %d: reference trust of %s changed under relabeling: %v vs %v",
					trial, d.SourceName(truthdata.SourceID(s)), got, t)
			}
		}

		tv1 := core.BuildTruthVectors(d, ref.Truth, false)
		tv2 := core.BuildTruthVectors(pd, mappedRef, false)
		nA := d.NumAttrs()
		for k := 2; k <= nA-1; k++ {
			for r := 0; r < 4; r++ {
				rng1 := rand.New(rand.NewSource(seed + int64(r)*7919))
				rng2 := rand.New(rand.NewSource(seed + int64(r)*7919))
				_, picks1 := naiveSeedPlusPlus(tv1.Vectors, k, rng1)
				_, picks2 := naiveSeedPlusPlus(tv2.Vectors, k, rng2)
				for i := range picks1 {
					if picks1[i] != picks2[i] {
						return fmt.Errorf("trial %d: k=%d restart %d: seeding draw %d picked attribute %d relabeled, %d original",
							trial, k, r, i, picks2[i], picks1[i])
					}
				}
			}
		}

		// Attribute relabeling reorders the k-means point set, which
		// legitimately changes which points the seeding rng draws — so
		// the end-to-end claim stops at Equation 1: BuildTruthVectors
		// must be equivariant, rows moving with their attributes.
		aPerm := rng.Perm(d.NumAttrs())
		ad, err := permuteDataset(d, identityPerm(d.NumSources()), identityPerm(d.NumObjects()), aPerm)
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		mvRef, err := algorithms.NewMajorityVote().Discover(d)
		if err != nil {
			return fmt.Errorf("trial %d: reference run: %w", trial, err)
		}
		aref := make(map[truthdata.Cell]string, len(mvRef.Truth))
		for cell, v := range mvRef.Truth {
			aref[truthdata.Cell{Object: cell.Object, Attr: truthdata.AttrID(aPerm[cell.Attr])}] = v
		}
		for _, masked := range []bool{false, true} {
			tv := core.BuildTruthVectors(d, mvRef.Truth, masked)
			atv := core.BuildTruthVectors(ad, aref, masked)
			for a := 0; a < d.NumAttrs(); a++ {
				want, got := tv.Vectors[a], atv.Vectors[aPerm[a]]
				for j := range want {
					if want[j] != got[j] {
						return fmt.Errorf("trial %d: truth vector of %s (masked=%v) changed under attribute relabeling at coordinate %d",
							trial, d.AttrName(truthdata.AttrID(a)), masked, j)
					}
				}
			}
		}
	}
	return nil
}

func checkWorkers(cfg Config) error {
	rng := rngFor(cfg, 6)
	for trial := 0; trial < cfg.Trials; trial++ {
		d := randomDataset(rng, 4+rng.Intn(3), 7+rng.Intn(5), 5+rng.Intn(3), 3, 0.9)
		seed := 1 + rng.Int63n(1_000)
		base, err := tdac.Discover(d, tdac.WithSeed(seed), tdac.WithWorkers(1))
		if err != nil {
			return fmt.Errorf("trial %d: sequential discover: %w", trial, err)
		}
		variants := []struct {
			label string
			opts  []tdac.Option
		}{
			{"workers=2", []tdac.Option{tdac.WithSeed(seed), tdac.WithWorkers(2)}},
			{"workers=3", []tdac.Option{tdac.WithSeed(seed), tdac.WithWorkers(3)}},
			{"workers=8", []tdac.Option{tdac.WithSeed(seed), tdac.WithWorkers(8)}},
			{"workers=16", []tdac.Option{tdac.WithSeed(seed), tdac.WithWorkers(16)}},
		}
		for _, v := range variants {
			r, err := tdac.Discover(d, v.opts...)
			if err != nil {
				return fmt.Errorf("trial %d: %s: %w", trial, v.label, err)
			}
			if err := compareResults(base, r); err != nil {
				return fmt.Errorf("trial %d: %s diverges from workers=1: %w", trial, v.label, err)
			}
		}
	}
	return nil
}

// compareResults demands bitwise equality of two Discover results.
func compareResults(a, b *tdac.Result) error {
	if !a.Partition.Equal(b.Partition) {
		return fmt.Errorf("partition %v vs %v", a.Partition, b.Partition)
	}
	if a.Silhouette != b.Silhouette {
		return fmt.Errorf("silhouette %v vs %v", a.Silhouette, b.Silhouette)
	}
	if len(a.Truth) != len(b.Truth) {
		return fmt.Errorf("truth sizes %d vs %d", len(a.Truth), len(b.Truth))
	}
	for cell, v := range a.Truth {
		if got, ok := b.Truth[cell]; !ok || got != v {
			return fmt.Errorf("truth at %v: %q vs %q", cell, v, got)
		}
	}
	for cell, c := range a.Confidence {
		if got, ok := b.Confidence[cell]; !ok || got != c {
			return fmt.Errorf("confidence at %v: %v vs %v", cell, c, got)
		}
	}
	if len(a.Trust) != len(b.Trust) {
		return fmt.Errorf("trust lengths %d vs %d", len(a.Trust), len(b.Trust))
	}
	for s := range a.Trust {
		if a.Trust[s] != b.Trust[s] {
			return fmt.Errorf("trust of source %d: %v vs %v", s, a.Trust[s], b.Trust[s])
		}
	}
	return nil
}

func checkPartitionCover(cfg Config) error {
	rng := rngFor(cfg, 7)
	for trial := 0; trial < cfg.Trials; trial++ {
		d := randomDataset(rng, 4+rng.Intn(3), 6+rng.Intn(5), 4+rng.Intn(4), 3, 0.7)
		cells := d.Cells()

		// Arbitrary partitions, including single-group and singletons.
		nA := d.NumAttrs()
		candidates := []partition.Partition{partition.Whole(nA), partition.Singletons(nA)}
		for extra := 0; extra < 2; extra++ {
			k := 2 + rng.Intn(nA-1)
			assign := make([]int, nA)
			for i := range assign {
				assign[i] = rng.Intn(k)
			}
			candidates = append(candidates, partition.FromAssign(assign, k))
		}
		for _, p := range candidates {
			if got := p.Size(); got != nA {
				return fmt.Errorf("trial %d: partition %v covers %d attributes, dataset has %d", trial, p, got, nA)
			}
			res, err := core.RunOnPartition(algorithms.NewMajorityVote(), d, p)
			if err != nil {
				return fmt.Errorf("trial %d: partition %v: %w", trial, p, err)
			}
			if err := coversExactly(res.Truth, cells); err != nil {
				return fmt.Errorf("trial %d: partition %v: %w", trial, p, err)
			}
		}

		// The partition TD-AC itself selects.
		r, err := tdac.Discover(d, tdac.WithSeed(1))
		if err != nil {
			return fmt.Errorf("trial %d: discover: %w", trial, err)
		}
		if got := r.Partition.Size(); got != nA {
			return fmt.Errorf("trial %d: selected partition covers %d attributes, dataset has %d", trial, got, nA)
		}
		if err := coversExactly(r.Truth, cells); err != nil {
			return fmt.Errorf("trial %d: discover: %w", trial, err)
		}
	}
	return nil
}

// groupViewConfigs is the size of the seeded config family behind
// group-views-vs-projection; every config runs every built-in algorithm.
const groupViewConfigs = 20

func checkGroupViews(cfg Config) error {
	rng := rngFor(cfg, 8)
	ctx := context.Background()
	for c := 0; c < max(groupViewConfigs, cfg.Trials); c++ {
		d := randomDataset(rng, 3+rng.Intn(4), 4+rng.Intn(6), 3+rng.Intn(4), 2+rng.Intn(3), 0.6+0.4*rng.Float64())
		nA := d.NumAttrs()
		// Duplicate identical claims collapse in every index but still
		// count in their group's trust weight.
		for n := 1 + rng.Intn(4); n > 0; n-- {
			d.Claims = append(d.Claims, d.Claims[rng.Intn(len(d.Claims))])
		}
		// One source falls silent on a random subset of the attributes,
		// so it is absent from some groups.
		silent, mute := truthdata.SourceID(rng.Intn(d.NumSources())), rng.Perm(nA)[:1+rng.Intn(nA-1)]
		kept := d.Claims[:0:0]
		for _, cl := range d.Claims {
			if cl.Source != silent || !slices.Contains(mute, int(cl.Attr)) {
				kept = append(kept, cl)
			}
		}
		d.Claims = kept

		var part partition.Partition
		switch c % 3 {
		case 0:
			part = partition.Singletons(nA)
		case 1:
			part = partition.Whole(nA)
		default:
			k := 2 + rng.Intn(nA-1)
			assign := make([]int, nA)
			for i := range assign {
				assign[i] = rng.Intn(k)
			}
			part = partition.FromAssign(assign, k)
		}
		for _, name := range algorithms.Names() {
			base, err := algorithms.New(name)
			if err != nil {
				return err
			}
			t := core.New(base)
			t.Workers = 1 + c%3
			t.Recorder = obs.NewRecorder(nil)
			got, err := t.RunPartition(ctx, d, part)
			if err != nil {
				return fmt.Errorf("config %d, %s on %v: views: %w", c, name, part, err)
			}
			want, groups, err := projectThenMerge(base, d, part)
			if err != nil {
				return fmt.Errorf("config %d, %s on %v: projections: %w", c, name, part, err)
			}
			if err := sameMerge(got.Result, want); err != nil {
				return fmt.Errorf("config %d, %s on %v: %w", c, name, part, err)
			}
			if !slices.EqualFunc(got.Stats.Groups, groups, func(a, b obs.GroupStats) bool {
				return a.Group == b.Group && a.Attrs == b.Attrs && a.Claims == b.Claims && a.Iterations == b.Iterations
			}) {
				return fmt.Errorf("config %d, %s on %v: group stats %+v, projections %+v", c, name, part, got.Stats.Groups, groups)
			}
		}
	}
	return nil
}

// sameMerge demands bitwise equality of two merged base-run results:
// truth, confidence (presence and bits), trust bits and Converged.
func sameMerge(got, want *algorithms.Result) error {
	if len(got.Truth) != len(want.Truth) || len(got.Confidence) != len(want.Confidence) {
		return fmt.Errorf("%d truth / %d confidence cells, projections %d / %d",
			len(got.Truth), len(got.Confidence), len(want.Truth), len(want.Confidence))
	}
	for cell, v := range want.Truth {
		if g, ok := got.Truth[cell]; !ok || g != v {
			return fmt.Errorf("truth at %v: %q, projections %q", cell, g, v)
		}
	}
	for cell, v := range want.Confidence {
		if g, ok := got.Confidence[cell]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			return fmt.Errorf("confidence at %v: %v, projections %v", cell, g, v)
		}
	}
	if len(got.Trust) != len(want.Trust) {
		return fmt.Errorf("%d trust entries, projections %d", len(got.Trust), len(want.Trust))
	}
	for s := range want.Trust {
		if math.Float64bits(got.Trust[s]) != math.Float64bits(want.Trust[s]) {
			return fmt.Errorf("trust of source %d: %v, projections %v", s, got.Trust[s], want.Trust[s])
		}
	}
	if got.Converged != want.Converged {
		return fmt.Errorf("converged %v, projections %v", got.Converged, want.Converged)
	}
	return nil
}

// coversExactly checks that truth holds a prediction for every claimed
// cell and nothing else. A map can hold a cell at most once, so "exactly
// once" reduces to set equality.
func coversExactly(truth map[truthdata.Cell]string, cells []truthdata.Cell) error {
	if len(truth) != len(cells) {
		return fmt.Errorf("merged truth has %d cells, dataset claims %d", len(truth), len(cells))
	}
	for _, cell := range cells {
		if _, ok := truth[cell]; !ok {
			return fmt.Errorf("claimed cell %v missing from merged truth", cell)
		}
	}
	return nil
}

func checkGenPartitionOptimum(cfg Config) error {
	// ε for "TD-AC found a near-optimal partition": the heuristic is not
	// guaranteed to hit the enumerated optimum exactly, but on strongly
	// structured data it must land within a few hundredths of it.
	const eps = 0.05
	for _, seed := range []int64{7, 19} {
		scfg := synth.Config{
			Name:       "verify-oracle",
			Attrs:      5,
			Objects:    36,
			Sources:    8,
			GroupSizes: []int{2, 3},
			M1:         1, M2: 0, M3: 1,
			FalseValues:    10,
			DistractorProb: 0.3,
			Coverage:       1,
			Seed:           seed,
		}
		gen, err := synth.Generate(scfg)
		if err != nil {
			return fmt.Errorf("seed %d: generate: %w", seed, err)
		}
		d := gen.Dataset

		gp := genpartition.New(algorithms.NewAccu(), genpartition.Max)
		out, err := gp.Run(d)
		if err != nil {
			return fmt.Errorf("seed %d: brute force: %w", seed, err)
		}
		td := core.New(algorithms.NewAccu())
		res, err := td.Run(d)
		if err != nil {
			return fmt.Errorf("seed %d: tdac: %w", seed, err)
		}
		score, err := gp.ScorePartition(d, res.Partition)
		if err != nil {
			return fmt.Errorf("seed %d: scoring tdac partition: %w", seed, err)
		}
		if score > out.Score+1e-9 {
			return fmt.Errorf("seed %d: tdac partition %v scores %v, above the enumerated optimum %v — the enumeration missed a partition",
				seed, res.Partition, score, out.Score)
		}
		if out.Score-score > eps {
			return fmt.Errorf("seed %d: tdac partition %v scores %v, enumerated optimum %v scores %v — gap %v exceeds ε=%v",
				seed, res.Partition, score, out.Partition, out.Score, out.Score-score, eps)
		}
	}
	return nil
}

func checkSearchVsExhaustive(cfg Config) error {
	// The search probes are warm-started from dendrogram cuts, so at the
	// k the exhaustive sweep crowns, the search's Lloyd run converges to
	// a silhouette at least as good as the cold-seeded one — the search
	// optimum may therefore only match or beat the sweep's, never trail
	// it. Fewer probes is the whole point; equality would mean the
	// strategy degenerated into the sweep it replaces.
	for _, seed := range []int64{31, 47} {
		gen, err := synth.Generate(synth.Config{
			Name:       "verify-search",
			Attrs:      30,
			Objects:    40,
			Sources:    10,
			GroupSizes: []int{10, 10, 10},
			M1:         1, M2: 0, M3: 0.9,
			FalseValues:    30,
			DistractorProb: 0.3,
			Coverage:       1,
			Seed:           seed,
		})
		if err != nil {
			return fmt.Errorf("seed %d: generate: %w", seed, err)
		}
		full := core.New(algorithms.NewMajorityVote())
		ref, err := full.Run(gen.Dataset)
		if err != nil {
			return fmt.Errorf("seed %d: exhaustive: %w", seed, err)
		}
		for _, strategy := range []string{core.SearchGolden, core.SearchMDL} {
			td := core.New(algorithms.NewMajorityVote())
			td.Search = strategy
			out, err := td.Run(gen.Dataset)
			if err != nil {
				return fmt.Errorf("seed %d: %s: %w", seed, strategy, err)
			}
			if out.Silhouette < ref.Silhouette-1e-9 {
				return fmt.Errorf("seed %d: %s silhouette %v trails the exhaustive optimum %v",
					seed, strategy, out.Silhouette, ref.Silhouette)
			}
			if len(out.Explored) >= len(ref.Explored) {
				return fmt.Errorf("seed %d: %s probed %d of %d candidate ks — no savings over the sweep",
					seed, strategy, len(out.Explored), len(ref.Explored))
			}
			again, err := td.Run(gen.Dataset)
			if err != nil {
				return fmt.Errorf("seed %d: %s rerun: %w", seed, strategy, err)
			}
			if !again.Partition.Equal(out.Partition) || again.Silhouette != out.Silhouette {
				return fmt.Errorf("seed %d: %s is not deterministic across reruns", seed, strategy)
			}
		}
	}
	return nil
}

func checkPlantedRecovery(cfg Config) error {
	gen, err := plantedDataset(120)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	res, err := tdac.Discover(gen.Dataset, tdac.WithSeed(1))
	if err != nil {
		return fmt.Errorf("discover: %w", err)
	}
	if !res.Partition.Equal(gen.Planted) {
		return fmt.Errorf("selected %v, generator planted %v (Rand index %v)",
			res.Partition, gen.Planted, partition.RandIndex(res.Partition, gen.Planted))
	}
	if res.Silhouette <= 0 {
		return fmt.Errorf("planted partition recovered with non-positive silhouette %v", res.Silhouette)
	}
	return nil
}
