// Package algorithms implements the standard truth discovery algorithms
// the paper evaluates — MajorityVote, TruthFinder (Yin et al. 2008) and
// the Accu family with Bayesian copy detection (Depen, Accu, AccuSim;
// Dong et al. 2009) — plus the fixed-point algorithms of Pasternack &
// Roth 2010 (Sums, AverageLog, Investment, PooledInvestment) that the
// paper lists as future comparison targets.
//
// Every algorithm consumes a truthdata.Dataset and produces a Result with
// the predicted truth per cell, the final per-source trust estimates and
// the iteration count. All algorithms are deterministic.
package algorithms

import (
	"context"
	"errors"
	"math"
	"time"

	"tdac/internal/truthdata"
)

// Algorithm is a truth discovery procedure. Implementations are stateless
// between calls: Discover may be called concurrently on different
// datasets.
type Algorithm interface {
	// Name identifies the algorithm in registries, reports and tables.
	Name() string
	// Discover predicts the true value of every claimed cell.
	Discover(d *truthdata.Dataset) (*Result, error)
}

// IndexedAlgorithm is the dense execution interface every built-in
// algorithm implements. DiscoverIndexed consumes a prebuilt Index and
// produces an IndexedResult keyed by dense IDs, materialised to the
// map-keyed Result only at the public boundary. That is what lets a
// pipeline compile the claim graph once and share it: a TD-AC run
// compiles one index, runs the reference algorithm on it, and runs the
// base algorithm of every attribute group on a view of it
// (truthdata.Index.Restrict) that shares its cells, values and voters;
// the server re-runs a dataset version on that version's cached index.
//
// Cancellation is honoured at update-round granularity: ctx.Err() is
// checked before every iteration, so a deadline interrupts a slow run
// mid-algorithm instead of only between pipeline phases.
//
// Discover remains the compatibility entry point: the built-in
// implementations route it through DiscoverIndexed on the dataset's
// cached index, and third-party Algorithm implementations that never
// heard of indexes keep working everywhere an Algorithm is accepted
// (TD-AC runs them on a projected copy of each group instead).
type IndexedAlgorithm interface {
	Algorithm
	// DiscoverIndexed predicts the true value of every claimed cell of
	// the indexed dataset.
	DiscoverIndexed(ctx context.Context, ix *truthdata.Index) (*IndexedResult, error)
}

// IndexedResult is the dense outcome of one DiscoverIndexed call: per-cell
// choices and confidences as flat slices keyed by the Index's cell order,
// with no map materialisation. Materialize converts it to a Result.
type IndexedResult struct {
	// Algorithm is the name of the producing algorithm.
	Algorithm string
	// Choice[i] is the predicted ValueID of Index.Cells[i].
	Choice []truthdata.ValueID
	// Conf[i] is the confidence of Choice[i] in the algorithm's own
	// scale; nil when the algorithm defines no confidence.
	Conf []float64
	// Trust is the final per-source reliability estimate, indexed by
	// SourceID.
	Trust []float64
	// Iterations is the number of full update rounds executed.
	Iterations int
	// Converged reports whether the run stopped on the convergence
	// criterion rather than on the iteration cap.
	Converged bool
	// Runtime is the wall-clock duration of the DiscoverIndexed call.
	Runtime time.Duration
}

// Materialize converts the dense result into the public map-keyed Result.
// The Confidence map is only allocated when the algorithm produced
// confidences, and Trust is normalised to exactly one entry per dataset
// source — sources that assert no claims in the indexed slice (common for
// per-group views) keep a zero entry instead of truncating or
// overflowing the vector.
func (r *IndexedResult) Materialize(ix *truthdata.Index) *Result {
	res := &Result{
		Algorithm:  r.Algorithm,
		Truth:      make(map[truthdata.Cell]string, len(ix.Cells)),
		Trust:      normalizeTrustLen(r.Trust, len(ix.BySource)),
		Iterations: r.Iterations,
		Converged:  r.Converged,
		Runtime:    r.Runtime,
	}
	if r.Conf != nil {
		res.Confidence = make(map[truthdata.Cell]float64, len(ix.Cells))
	}
	for i := range ix.Cells {
		cell := ix.Cells[i].Cell
		res.Truth[cell] = ix.ValueText(i, r.Choice[i])
		if r.Conf != nil {
			res.Confidence[cell] = r.Conf[i]
		}
	}
	return res
}

// normalizeTrustLen pads or clips trust to exactly n entries, so every
// Result carries one trust value per dataset source regardless of how
// many sources actually asserted claims.
func normalizeTrustLen(trust []float64, n int) []float64 {
	if len(trust) == n {
		return trust
	}
	out := make([]float64, n)
	copy(out, trust)
	return out
}

// discoverViaIndex adapts DiscoverIndexed to the classic Discover shape:
// it compiles (or reuses) the dataset's cached index, runs the indexed
// path without a deadline and materialises maps at the boundary. Every
// built-in algorithm's Discover is this shim.
func discoverViaIndex(a IndexedAlgorithm, d *truthdata.Dataset) (*Result, error) {
	return DiscoverContext(context.Background(), a, d)
}

// DiscoverContext runs any Algorithm under a context. Built-in algorithms
// implement IndexedAlgorithm and take the indexed hot path, which checks
// ctx at every update round; plain third-party Algorithm implementations
// fall back to Discover after an upfront cancellation check (they are not
// interruptible mid-run). This is the dispatch TD-AC's reference run, a
// direct Run and a plain Algorithm's per-group base runs go through;
// indexed per-group base runs call DiscoverIndexed on their view.
func DiscoverContext(ctx context.Context, alg Algorithm, d *truthdata.Dataset) (*Result, error) {
	if ia, ok := alg.(IndexedAlgorithm); ok {
		start := time.Now()
		if len(d.Claims) == 0 {
			return nil, ErrEmptyDataset
		}
		ix := d.Index()
		ir, err := ia.DiscoverIndexed(ctx, ix)
		if err != nil {
			return nil, err
		}
		res := ir.Materialize(ix)
		res.Runtime = time.Since(start)
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return alg.Discover(d)
}

// Result is the outcome of one truth discovery run.
type Result struct {
	// Algorithm is the name of the producing algorithm.
	Algorithm string
	// Truth maps every claimed cell to the predicted true value.
	Truth map[truthdata.Cell]string
	// Confidence maps every claimed cell to the confidence score of the
	// predicted value, in the algorithm's own scale.
	Confidence map[truthdata.Cell]float64
	// Trust is the final per-source reliability estimate, indexed by
	// SourceID, normalised to [0,1] where the algorithm defines one.
	Trust []float64
	// Iterations is the number of full update rounds executed.
	Iterations int
	// Converged reports whether the run stopped on the convergence
	// criterion rather than on the iteration cap.
	Converged bool
	// Runtime is the wall-clock duration of the Discover call.
	Runtime time.Duration
}

// ErrEmptyDataset is returned when a dataset has no claims to corroborate.
var ErrEmptyDataset = errors.New("algorithms: dataset has no claims")

// defaultMaxIterations caps iterative algorithms, per the experimental
// protocol of Waguih & Berti-Équille 2014 used by the paper.
const defaultMaxIterations = 20

// defaultEpsilon is the convergence threshold on the trust vector.
const defaultEpsilon = 1e-3

// maxAbsDiff returns the L∞ distance between two equal-length vectors.
func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// clamp bounds x into [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// argmaxValue returns the index of the largest score; ties resolve to the
// smallest index, which is deterministic because cell values are sorted.
func argmaxValue(scores []float64) truthdata.ValueID {
	best := 0
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[best] {
			best = i
		}
	}
	return truthdata.ValueID(best)
}

// softmaxInPlace rewrites scores with exp(s - max)/Σ, a numerically stable
// softmax turning additive vote scores into probabilities.
func softmaxInPlace(scores []float64) {
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var sum float64
	for i, s := range scores {
		e := math.Exp(s - maxS)
		scores[i] = e
		sum += e
	}
	if sum == 0 {
		uniform := 1 / float64(len(scores))
		for i := range scores {
			scores[i] = uniform
		}
		return
	}
	for i := range scores {
		scores[i] /= sum
	}
}

// buildResult assembles the common Result fields from per-cell choices.
// The Confidence map is only allocated when the algorithm produced
// confidences, and Trust is normalised to one entry per dataset source
// even when the algorithm's vector came up short (sources with no claims
// in a group slice).
func buildResult(name string, ix *truthdata.Index, choice []truthdata.ValueID,
	conf []float64, trust []float64, iters int, converged bool, start time.Time) *Result {
	res := &Result{
		Algorithm:  name,
		Truth:      make(map[truthdata.Cell]string, len(ix.Cells)),
		Trust:      normalizeTrustLen(trust, len(ix.BySource)),
		Iterations: iters,
		Converged:  converged,
	}
	if conf != nil {
		res.Confidence = make(map[truthdata.Cell]float64, len(ix.Cells))
	}
	for i := range ix.Cells {
		cell := ix.Cells[i].Cell
		res.Truth[cell] = ix.ValueText(i, choice[i])
		if conf != nil {
			res.Confidence[cell] = conf[i]
		}
	}
	res.Runtime = time.Since(start)
	return res
}
