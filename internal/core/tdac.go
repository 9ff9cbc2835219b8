package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/truthdata"
)

// TDAC is the paper's Algorithm 1. It wraps a base truth discovery
// algorithm F: a reference truth from one run of the reference algorithm
// feeds the attribute truth vectors, k-means plus the silhouette index
// pick the best attribute partition, and F runs once per group before the
// partial results are merged.
//
// The zero value is not usable: Base is required. All other fields have
// sensible defaults.
type TDAC struct {
	// Base is F, the algorithm run on each group of the chosen partition.
	Base algorithms.Algorithm
	// Reference produces the reference truth behind the truth vectors.
	// Defaults to Base, as in the paper's experiments; MajorityVote is a
	// cheaper alternative studied in the reference ablation.
	Reference algorithms.Algorithm
	// Distance scores clusterings in the silhouette index and assigns
	// points in k-means. Defaults to Hamming (the paper's Equation 2).
	Distance clustering.Distance
	// KMeans configures the clustering; its Distance field is overridden
	// by the field above. The zero value works.
	KMeans clustering.KMeans
	// Clusterer, when non-nil, replaces k-means entirely (e.g. an
	// agglomerative clusterer); the silhouette-based k selection still
	// applies.
	Clusterer clustering.Clusterer
	// MinK and MaxK bound the explored cluster counts. Defaults follow
	// Algorithm 1: [2, |A|-1]. MaxK may exceed |A|-1; it is clipped.
	// Negative bounds, an explicitly inverted pair, or an explicit MinK
	// no dataset attribute count can satisfy are rejected with an error
	// (they used to skip the sweep silently and return the whole set as
	// if it had been chosen).
	MinK, MaxK int
	// Search selects the k-selection strategy over [MinK, MaxK]:
	//
	//   - "" or SearchExhaustive: the paper's exhaustive sweep — every k
	//     is clustered and scored (bit-identical to all prior releases);
	//   - SearchGolden: golden-section search over the silhouette-vs-k
	//     curve with an envelope early stop, seeding each probed k-means
	//     from a cut of one shared agglomerative dendrogram;
	//   - SearchMDL: ascending scan with an MDL-based patience stopping
	//     rule, same dendrogram warm start.
	//
	// Both sublinear strategies probe O(log(MaxK-MinK)) to O(best k)
	// cluster counts instead of all of them and leave holes in the
	// Explored table; the selected partition is still the best
	// silhouette among the probed ks. They require the built-in KMeans
	// clusterer and an unmasked encoding (the dendrogram warm start
	// averages points into centroids, which mask markers do not
	// survive). See DESIGN.md §16.
	Search string
	// Masked switches the truth vectors and default distance to the
	// sparse-aware encoding (future-work item (i)).
	Masked bool
	// Workers bounds the two worker pools of a run: the independent
	// k-means + silhouette evaluations of the k-sweep, and the per-group
	// base runs (Algorithm 1 step 4, run concurrently as in future-work
	// item (ii)). 0 means runtime.GOMAXPROCS(0); 1 forces sequential
	// execution. Every k-sweep worker derives its randomness from the
	// configured base seed independently of scheduling order, and each
	// group writes only its own result slot, so results are
	// bit-identical to the sequential order. A custom Clusterer must be
	// safe for concurrent Cluster calls when Workers exceeds 1 (both
	// KMeans and Agglomerative are); base algorithms already must be,
	// per the Algorithm contract.
	Workers int
	// ProjectDim, when positive, reduces the truth vectors to this many
	// dimensions with a Johnson–Lindenstrauss random projection before
	// clustering — the running-time optimisation of future-work item
	// (ii) for large |O|·|S|. Projection implies Euclidean geometry, so
	// it overrides the default Hamming distance and is incompatible with
	// Masked.
	ProjectDim int
	// Recorder, when non-nil, collects phase-scoped run statistics
	// (wall times, per-k convergence, per-group base-run cost, cache
	// reuse, allocation deltas) into an obs.RunStats tree exposed on the
	// Outcome. A Recorder is single-use: attach a fresh one per
	// RunContext or CheckStabilityContext call. Observation never alters
	// results — an observed run is bit-identical to an unobserved one
	// (TestStatsObservationIsInert). nil (the default) disables
	// collection at the cost of one pointer check per phase boundary.
	Recorder *obs.Recorder
}

// New returns a TD-AC wrapping base with paper defaults.
func New(base algorithms.Algorithm) *TDAC { return &TDAC{Base: base} }

// Name implements algorithms.Algorithm; it matches the paper's
// "TD-AC (F=Accu)" notation.
func (t *TDAC) Name() string {
	if t.Base == nil {
		return "TD-AC"
	}
	return fmt.Sprintf("TD-AC (F=%s)", t.Base.Name())
}

// KScore records the quality of one explored cluster count.
type KScore struct {
	K          int
	Silhouette float64
	Inertia    float64
}

// Outcome extends the base Result with everything TD-AC decided along the
// way, for Table 5-style reporting and debugging.
type Outcome struct {
	*algorithms.Result
	// Partition is the attribute partition TD-AC selected.
	Partition partition.Partition
	// Silhouette is the silhouette value of the selected partition.
	Silhouette float64
	// Explored lists the score of every k tried, ascending k.
	Explored []KScore
	// ReferenceResult is the full result of the reference run, whose
	// truth seeded the attribute truth vectors.
	ReferenceResult *algorithms.Result
	// Sparsity is the missing-coordinate rate of the truth vectors
	// (only non-zero with Masked).
	Sparsity float64
	// Stats is the observation tree collected by the attached Recorder;
	// nil when no Recorder was set.
	Stats *obs.RunStats
}

var errNoBase = errors.New("core: TDAC requires a Base algorithm")

// The k-selection strategies of the Search field.
const (
	// SearchExhaustive scores every k in [MinK, MaxK] (the default).
	SearchExhaustive = "exhaustive"
	// SearchGolden is golden-section search with an envelope early stop.
	SearchGolden = "golden"
	// SearchMDL is an ascending scan with an MDL patience stopping rule.
	SearchMDL = "mdl"
)

// resolveSearch validates the Search field against the rest of the
// configuration and returns the canonical strategy name.
func (t *TDAC) resolveSearch() (string, error) {
	switch t.Search {
	case "", SearchExhaustive:
		return SearchExhaustive, nil
	case SearchGolden, SearchMDL:
		if t.Clusterer != nil {
			return "", fmt.Errorf("core: Search %q requires the built-in KMeans clusterer (the dendrogram warm start seeds k-means, not a custom Clusterer)", t.Search)
		}
		if t.Masked {
			return "", fmt.Errorf("core: Search %q is incompatible with Masked (the dendrogram warm start averages mask markers into centroids)", t.Search)
		}
		return t.Search, nil
	default:
		return "", fmt.Errorf("core: unknown Search strategy %q (known: %q, %q, %q)", t.Search, SearchExhaustive, SearchGolden, SearchMDL)
	}
}

// Discover implements algorithms.Algorithm.
func (t *TDAC) Discover(d *truthdata.Dataset) (*algorithms.Result, error) {
	out, err := t.Run(d)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Run executes Algorithm 1 and returns the full outcome.
func (t *TDAC) Run(d *truthdata.Dataset) (*Outcome, error) {
	return t.RunContext(context.Background(), d)
}

// RunContext executes Algorithm 1 under a context. Cancellation is
// honoured between the major stages, at every k of the k-sweep, before
// every per-group base run, and — for the built-in indexed algorithms —
// at every update round inside the reference and base runs, so a
// deadline interrupts even a slow single algorithm promptly.
func (t *TDAC) RunContext(ctx context.Context, d *truthdata.Dataset) (*Outcome, error) {
	start := time.Now()
	if t.Base == nil {
		return nil, errNoBase
	}
	if len(d.Claims) == 0 {
		return nil, algorithms.ErrEmptyDataset
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rec := t.Recorder
	rec.Start()

	ref := t.Reference
	if ref == nil {
		ref = t.Base
	}
	// Compile the claim index once up front; it is cached on the dataset,
	// so the reference run reuses it and every per-group base run reads
	// a view of it.
	phaseDone := rec.Phase(obs.PhaseIndex)
	ix := d.Index()
	phaseDone()

	phaseDone = rec.Phase(obs.PhaseReference)
	refResult, err := algorithms.DiscoverContext(ctx, ref, d)
	if err != nil {
		return nil, fmt.Errorf("core: reference run (%s): %w", ref.Name(), err)
	}
	phaseDone()

	phaseDone = rec.Phase(obs.PhaseTruthVectors)
	tv := BuildTruthVectors(d, refResult.Truth, t.Masked)
	phaseDone()
	part, sil, explored, err := t.SelectPartition(ctx, tv, d.NumAttrs())
	if err != nil {
		return nil, err
	}

	res, err := t.discoverOnPartition(ctx, d, ix, part)
	if err != nil {
		return nil, err
	}
	res.Algorithm = t.Name()
	// The paper reports TD-AC as a single-iteration procedure: the outer
	// loop of Algorithm 1 never revisits the data.
	res.Iterations = 1
	res.Runtime = time.Since(start)

	return &Outcome{
		Result:          res,
		Partition:       part,
		Silhouette:      sil,
		Explored:        explored,
		ReferenceResult: refResult,
		Sparsity:        tv.Sparsity(),
		Stats:           rec.Finish(),
	}, nil
}

// FindPartition runs only the partition-selection half of TD-AC (reference
// run, truth vectors, k search) and returns the chosen partition with its
// silhouette value.
func (t *TDAC) FindPartition(d *truthdata.Dataset) (partition.Partition, float64, error) {
	return t.FindPartitionContext(context.Background(), d)
}

// FindPartitionContext is FindPartition under a context; cancellation
// aborts the k-sweep at k granularity.
func (t *TDAC) FindPartitionContext(ctx context.Context, d *truthdata.Dataset) (partition.Partition, float64, error) {
	if t.Base == nil {
		return nil, 0, errNoBase
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	ref := t.Reference
	if ref == nil {
		ref = t.Base
	}
	refResult, err := algorithms.DiscoverContext(ctx, ref, d)
	if err != nil {
		return nil, 0, fmt.Errorf("core: reference run (%s): %w", ref.Name(), err)
	}
	tv := BuildTruthVectors(d, refResult.Truth, t.Masked)
	part, sil, _, err := t.SelectPartition(ctx, tv, d.NumAttrs())
	return part, sil, err
}

// workerCount resolves the size of both worker pools.
func (t *TDAC) workerCount() int {
	if t.Workers > 0 {
		return t.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SelectPartition explores k in [MinK, MaxK] as in Algorithm 1 lines
// 4–18 over prebuilt truth vectors and returns the partition with the
// highest silhouette value, its silhouette, and the full Explored table.
// When the range is empty (fewer than 3 attributes) the whole attribute
// set stays one group, making TD-AC degrade to a plain run of F.
//
// This is the clustering hot path, rebuilt in three layers: binary truth
// vectors are packed into bit-planes so every pairwise distance is a
// popcount kernel; one flat upper-triangular distance matrix is shared
// by k-means++ seeding and the silhouette index across all explored k;
// and the independent per-k evaluations run on a bounded worker pool
// (see Workers). Each k draws its randomness from the base seed alone,
// never from scheduling order, and the best k is resolved in ascending
// order afterwards, so the outcome is bit-identical to the sequential
// sweep. Cancellation is honoured at k granularity.
func (t *TDAC) SelectPartition(ctx context.Context, tv *TruthVectors, nAttrs int) (partition.Partition, float64, []KScore, error) {
	if _, err := t.resolveSearch(); err != nil {
		return nil, 0, nil, err
	}
	minK, maxK, err := t.kRange(nAttrs)
	if err != nil {
		return nil, 0, nil, err
	}
	if minK > maxK {
		return partition.Whole(nAttrs), 0, nil, nil
	}
	g, err := t.buildGeometry(tv)
	if err != nil {
		return nil, 0, nil, err
	}
	return t.selectOverGeometry(ctx, g, minK, maxK)
}

// selectOverGeometry dispatches the k-selection strategy over a prebuilt
// geometry. It is the single entry shared by the cold path
// (SelectPartition) and the incremental path (RunWithState), so every
// strategy — exhaustive sweep or sublinear search — composes with both.
func (t *TDAC) selectOverGeometry(ctx context.Context, g *geometry, minK, maxK int) (partition.Partition, float64, []KScore, error) {
	strategy, err := t.resolveSearch()
	if err != nil {
		return nil, 0, nil, err
	}
	if strategy == SearchExhaustive {
		return t.sweepPartition(ctx, g, minK, maxK)
	}
	return t.searchPartition(ctx, g, minK, maxK, strategy)
}

// kRange resolves the explored cluster-count bounds for nAttrs
// attributes. Invalid explicit bounds — negative values, an inverted
// pair, a MinK above nAttrs-1 — are errors; they used to collapse to an
// empty range that silently skipped the sweep and returned the whole
// attribute set as if it had been chosen. The documented silent degrade
// survives only for the default range on datasets with fewer than three
// attributes, where minK > maxK still means "nothing to search".
func (t *TDAC) kRange(nAttrs int) (minK, maxK int, err error) {
	if t.MinK < 0 || t.MaxK < 0 {
		return 0, 0, fmt.Errorf("core: k range [%d,%d]: bounds cannot be negative", t.MinK, t.MaxK)
	}
	if t.MinK > 0 && t.MaxK > 0 && t.MinK > t.MaxK {
		return 0, 0, fmt.Errorf("core: inverted k range [%d,%d]: MinK exceeds MaxK", t.MinK, t.MaxK)
	}
	if t.MinK >= 2 && t.MinK > nAttrs-1 {
		return 0, 0, fmt.Errorf("core: MinK %d exceeds the largest usable cluster count %d (|A|-1 of %d attributes)", t.MinK, nAttrs-1, nAttrs)
	}
	minK = t.MinK
	if minK < 2 {
		minK = 2
	}
	maxK = t.MaxK
	if maxK == 0 || maxK > nAttrs-1 {
		maxK = nAttrs - 1
	}
	return minK, maxK, nil
}

// geometry is the clustering input SelectPartition derives from the
// truth vectors once per run: the (possibly projected) vectors, the
// resolved distance, and the packed planes plus shared flat distance
// matrix when the popcount kernels apply. The incremental path keeps a
// geometry alive across dataset versions and repairs only dirty rows,
// then feeds it to the same sweep.
type geometry struct {
	tv         *TruthVectors
	dist       clustering.Distance
	packed     *clustering.PackedVectors
	distMatrix *clustering.DistMatrix
}

// buildGeometry resolves projection and distance defaults for tv and
// materialises the packed planes and shared distance matrix.
func (t *TDAC) buildGeometry(tv *TruthVectors) (*geometry, error) {
	if t.ProjectDim > 0 {
		if t.Masked {
			return nil, fmt.Errorf("core: ProjectDim is incompatible with Masked (the mask markers do not survive projection)")
		}
		seed := t.KMeans.Seed
		if seed == 0 {
			seed = 1
		}
		projected, err := clustering.RandomProjection(tv.Vectors, t.ProjectDim, seed)
		if err != nil {
			return nil, fmt.Errorf("core: projecting truth vectors: %w", err)
		}
		tv = &TruthVectors{Vectors: projected, Dim: len(projected[0])}
	}

	dist := t.Distance
	if dist == nil {
		switch {
		case t.Masked:
			dist = clustering.MaskedHamming{Mask: Missing}
		case t.ProjectDim > 0:
			dist = clustering.Euclidean{}
		default:
			dist = clustering.Hamming{}
		}
	}

	rec := t.Recorder
	matrixDone := rec.Phase(obs.PhaseDistanceMatrix)

	// Pack the truth vectors into bit-planes whenever the distance is one
	// the popcount kernels reproduce exactly; fractional or foreign
	// encodings fall back to the float kernels.
	var packed *clustering.PackedVectors
	switch dd := dist.(type) {
	case clustering.Hamming:
		packed, _ = clustering.PackBinary(tv.Vectors)
	case clustering.MaskedHamming:
		packed, _ = clustering.PackMasked(tv.Vectors, dd.Mask)
	}

	// The silhouette of every explored k — and, on binary vectors,
	// k-means++ seeding — reuses one pairwise distance matrix over the
	// attribute truth vectors, computed once per Discover call.
	var distMatrix *clustering.DistMatrix
	if packed != nil {
		distMatrix = clustering.NewDistMatrixPacked(packed)
	} else {
		distMatrix = clustering.NewDistMatrix(tv.Vectors, dist)
	}
	matrixDone()
	rec.MatrixDone(obs.MatrixStats{
		Points: distMatrix.N,
		Pairs:  len(distMatrix.Tri),
		Packed: packed != nil,
		Masked: packed != nil && packed.Masked(),
	})
	return &geometry{tv: tv, dist: dist, packed: packed, distMatrix: distMatrix}, nil
}

// sweepPartition runs the k-sweep of Algorithm 1 lines 4–18 over a
// prebuilt geometry. It is shared verbatim by the cold path (geometry
// built fresh by buildGeometry) and the incremental path (geometry
// maintained across versions by an IncrementalState): identical
// geometry in, bit-identical partition out.
func (t *TDAC) sweepPartition(ctx context.Context, g *geometry, minK, maxK int) (partition.Partition, float64, []KScore, error) {
	tv, dist, packed, distMatrix := g.tv, g.dist, g.packed, g.distMatrix
	rec := t.Recorder

	newClusterer := func() clustering.Clusterer {
		if t.Clusterer != nil {
			return t.Clusterer
		}
		km := t.KMeans
		km.Distance = dist
		if packed != nil && !packed.Masked() {
			// On binary vectors the Hamming matrix entries equal the
			// squared Euclidean distances k-means++ samples from.
			km.SeedSqDists = distMatrix
		}
		return &km
	}

	type kResult struct {
		clustering *clustering.Clustering
		sil        float64
		dur        time.Duration
		err        error
	}
	numK := maxK - minK + 1
	results := make([]kResult, numK)
	sweepDone := rec.Phase(obs.PhaseKSweep)
	evalK := func(clusterer clustering.Clusterer, i int) {
		var t0 time.Time
		if rec.Enabled() {
			t0 = time.Now()
		}
		k := minK + i
		c, err := clusterer.Cluster(tv.Vectors, k)
		if err != nil {
			results[i] = kResult{err: fmt.Errorf("core: clustering with k=%d: %w", k, err)}
			return
		}
		sil := clustering.SilhouetteFromDistMatrix(distMatrix, c.Assign, k)
		results[i] = kResult{clustering: c, sil: sil}
		// Stream the explored k immediately (completion order); the
		// deterministic per-k table still arrives in bulk via SweepDone.
		rec.KDone(k, sil)
		if rec.Enabled() {
			results[i].dur = time.Since(t0)
		}
	}

	workers := t.workerCount()
	if workers > numK {
		workers = numK
	}
	if workers <= 1 {
		clusterer := newClusterer()
		for i := 0; i < numK; i++ {
			if err := ctx.Err(); err != nil {
				return nil, 0, nil, err
			}
			evalK(clusterer, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clusterer := newClusterer()
				for {
					i := int(next.Add(1)) - 1
					if i >= numK || ctx.Err() != nil {
						return
					}
					evalK(clusterer, i)
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, err
		}
	}

	// Resolve errors and the best silhouette in ascending k, exactly as
	// the sequential loop would.
	var (
		best     partition.Partition
		bestSil  float64
		haveBest bool
		explored []KScore
	)
	for i := 0; i < numK; i++ {
		r := &results[i]
		if r.err != nil {
			return nil, 0, nil, r.err
		}
		k := minK + i
		explored = append(explored, KScore{K: k, Silhouette: r.sil, Inertia: r.clustering.Inertia})
		if !haveBest || r.sil > bestSil {
			haveBest = true
			bestSil = r.sil
			best = partition.FromAssign(r.clustering.Assign, k)
		}
	}
	sweepDone()
	if rec.Enabled() {
		seed := t.KMeans.Seed
		if seed == 0 {
			seed = 1
		}
		maxIter := t.KMeans.MaxIterations
		if maxIter == 0 {
			maxIter = 100
		}
		ss := obs.SweepStats{
			Seed:    seed,
			Workers: workers,
			MinK:    minK,
			MaxK:    maxK,
			Ks:      make([]obs.KStats, 0, numK),
		}
		for i := range results {
			r := &results[i]
			ss.Duration += r.dur
			ss.Ks = append(ss.Ks, obs.KStats{
				K:          minK + i,
				Duration:   r.dur,
				Iterations: r.clustering.Iterations,
				Converged:  r.clustering.Iterations < maxIter,
				Silhouette: r.sil,
				Inertia:    r.clustering.Inertia,
			})
		}
		rec.SweepDone(ss, t.cacheStats(packed, numK))
	}
	return best, bestSil, explored, nil
}

// cacheStats derives the distance-matrix reuse counters of one sweep:
// every silhouette evaluation reads the shared matrix, and k-means++
// seeding reads it instead of scanning vectors whenever the packed dense
// path is active (see KMeans.SeedSqDists).
func (t *TDAC) cacheStats(packed *clustering.PackedVectors, numK int) obs.CacheStats {
	cs := obs.CacheStats{SilhouetteEvals: numK}
	seeded := t.Clusterer == nil &&
		packed != nil && !packed.Masked() &&
		!t.KMeans.DisableAccel &&
		t.KMeans.Init == clustering.InitKMeansPlusPlus
	if seeded {
		restarts := t.KMeans.Restarts
		if restarts == 0 {
			restarts = 4
		}
		cs.SeededRuns = restarts * numK
	}
	return cs
}

// discoverOnPartition runs F on every group of part and merges the
// partial truths, trusts and confidences into one result keyed by the
// original attribute ids (Algorithm 1 lines 20–24). ix is the run's
// claim index over d. An IndexedAlgorithm base runs on each group's
// view of ix (Index.Restrict), which equals the index of the group's
// projection without copying it; a plain Algorithm runs on the
// projection itself. A cancelled context stops further groups from
// starting and, for the built-in indexed algorithms, interrupts
// in-flight runs at their next update round; the error is returned once
// the pool drains.
func (t *TDAC) discoverOnPartition(ctx context.Context, d *truthdata.Dataset, ix *truthdata.Index, part partition.Partition) (*algorithms.Result, error) {
	// A group's trust weight is its raw claim count, duplicates
	// included, exactly as its projection would hold them.
	attrClaims := make([]int, d.NumAttrs())
	for _, c := range d.Claims {
		attrClaims[c.Attr]++
	}
	indexed, _ := t.Base.(algorithms.IndexedAlgorithm)

	// A successful group leaves res with its trust, iterations and
	// convergence. Its truth and confidence are in view and ir for an
	// indexed base, or in res, keyed by the projection's attribute ids
	// (see backMap), for a plain one.
	type partial struct {
		claims  int
		view    *truthdata.Index
		ir      *algorithms.IndexedResult
		res     *algorithms.Result
		backMap []truthdata.AttrID
		err     error
	}
	partials := make([]partial, len(part))
	rec := t.Recorder

	runGroup := func(gi int, group []truthdata.AttrID) {
		var t0 time.Time
		if rec.Enabled() {
			t0 = time.Now()
		}
		p := &partials[gi]
		for j, a := range group {
			if a >= 0 && int(a) < len(attrClaims) && !slices.Contains(group[:j], a) {
				p.claims += attrClaims[a]
			}
		}
		if p.claims == 0 {
			return
		}
		if indexed != nil {
			p.view, _ = ix.Restrict(group)
			if p.ir, p.err = indexed.DiscoverIndexed(ctx, p.view); p.err == nil {
				// One trust entry per source, as Materialize pads it:
				// sources silent in the group still carry its weight.
				trust := make([]float64, d.NumSources())
				copy(trust, p.ir.Trust)
				p.res = &algorithms.Result{Trust: trust, Iterations: p.ir.Iterations, Converged: p.ir.Converged}
			}
		} else {
			var sub *truthdata.Dataset
			sub, p.backMap = d.Project(group)
			p.res, p.err = algorithms.DiscoverContext(ctx, t.Base, sub)
		}
		if rec.Enabled() && p.err == nil {
			rec.GroupDone(obs.GroupStats{
				Group:      gi,
				Attrs:      len(group),
				Claims:     p.claims,
				Iterations: p.res.Iterations,
				Duration:   time.Since(t0),
			})
		}
	}

	baseDone := rec.Phase(obs.PhaseBaseRuns)
	// Bounded pool, same atomic-counter pattern as the k-sweep: groups
	// are claimed in index order, each writes only its own partials
	// slot, so the merged result is bit-identical to the sequential order
	// regardless of scheduling.
	workers := t.workerCount()
	if workers > len(part) {
		workers = len(part)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(part) || ctx.Err() != nil {
					return
				}
				runGroup(gi, part[gi])
			}
		}()
	}
	wg.Wait()
	baseDone()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	mergeDone := rec.Phase(obs.PhaseMerge)
	merged := &algorithms.Result{
		Truth:      make(map[truthdata.Cell]string, len(ix.Cells)),
		Confidence: make(map[truthdata.Cell]float64, len(ix.Cells)),
		Trust:      make([]float64, d.NumSources()),
		Converged:  true,
	}
	weights := make([]float64, d.NumSources())
	totalClaims := 0
	for gi := range partials {
		p := &partials[gi]
		if p.err != nil {
			return nil, fmt.Errorf("core: base run on group %d: %w", gi, p.err)
		}
		if p.res == nil {
			continue
		}
		if p.ir != nil {
			for i := range p.view.Cells {
				cell := p.view.Cells[i].Cell
				merged.Truth[cell] = p.view.ValueText(i, p.ir.Choice[i])
				if p.ir.Conf != nil {
					merged.Confidence[cell] = p.ir.Conf[i]
				}
			}
		} else {
			for cell, v := range p.res.Truth {
				orig := truthdata.Cell{Object: cell.Object, Attr: p.backMap[cell.Attr]}
				merged.Truth[orig] = v
				if c, ok := p.res.Confidence[cell]; ok {
					merged.Confidence[orig] = c
				}
			}
		}
		// Per-source trust merges as a claim-weighted mean across groups.
		w := float64(p.claims)
		for s, tr := range p.res.Trust {
			merged.Trust[s] += tr * w
			weights[s] += w
		}
		totalClaims += p.claims
		if p.res.Iterations > merged.Iterations {
			merged.Iterations = p.res.Iterations
		}
		merged.Converged = merged.Converged && p.res.Converged
	}
	for s := range merged.Trust {
		if weights[s] > 0 {
			merged.Trust[s] /= weights[s]
		}
	}
	mergeDone()
	if totalClaims == 0 {
		return nil, algorithms.ErrEmptyDataset
	}
	return merged, nil
}

// RunOnPartition runs the base algorithm on a caller-supplied attribute
// partition and merges the results, skipping TD-AC's partition search
// entirely. It is the building block for domain-aware upper bounds: when
// the true attribute grouping is known (a planted partition, documented
// domains), this is the best any partitioning strategy can do with F.
// The groups run one at a time, on a single worker.
func RunOnPartition(base algorithms.Algorithm, d *truthdata.Dataset, part partition.Partition) (*algorithms.Result, error) {
	out, err := (&TDAC{Base: base, Workers: 1}).RunPartition(context.Background(), d, part)
	if err != nil {
		return nil, err
	}
	return out.Result, nil
}

// RunPartition is RunOnPartition under t's Workers and Recorder: the
// base runs and the merge of a RunContext, on part instead of a selected
// partition. The Outcome carries Result, Partition and Stats only.
func (t *TDAC) RunPartition(ctx context.Context, d *truthdata.Dataset, part partition.Partition) (*Outcome, error) {
	if t.Base == nil {
		return nil, errNoBase
	}
	if len(d.Claims) == 0 {
		return nil, algorithms.ErrEmptyDataset
	}
	if part.Size() != d.NumAttrs() {
		return nil, fmt.Errorf("core: partition covers %d attrs, dataset has %d", part.Size(), d.NumAttrs())
	}
	start := time.Now()
	rec := t.Recorder
	rec.Start()
	phaseDone := rec.Phase(obs.PhaseIndex)
	ix := d.Index()
	phaseDone()
	res, err := t.discoverOnPartition(ctx, d, ix, part.Canonical())
	if err != nil {
		return nil, err
	}
	res.Algorithm = fmt.Sprintf("%s on %s", t.Base.Name(), part)
	res.Iterations = 1
	res.Runtime = time.Since(start)
	return &Outcome{Result: res, Partition: part, Stats: rec.Finish()}, nil
}
