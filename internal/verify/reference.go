package verify

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/truthdata"
)

// This file holds the deliberately naive reference implementations the
// differential invariants compare the production paths against. They are
// written for obviousness, not speed: O(n²) float loops instead of packed
// popcount kernels, full-scan Lloyd assignment instead of bounded
// pruning, a sequential k loop instead of the worker pool. Where the
// production code claims bit-identity (the accelerations are exact), the
// references replicate its random-number consumption and tie-breaking —
// the same derived restart seeds, the same D²-sampling order, the same
// lowest-index-wins argmin — so any difference at all is a divergence.

// naiveDistMatrix is the O(n²) float reference for the packed popcount
// distance matrix: one dist.Between call per pair, no bit tricks.
func naiveDistMatrix(points [][]float64, dist clustering.Distance) [][]float64 {
	n := len(points)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist.Between(points[i], points[j])
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// naiveSilhouette implements the paper's Equations 5–7 directly from the
// definitions: per-point cohesion α (mean distance to the rest of the own
// cluster), separation β (mean distance to the nearest other cluster),
// coefficient (β−α)/max(α,β); cluster values average their points'
// coefficients and the partition value averages the non-empty clusters.
// Singleton clusters score 0, as does a degenerate single-cluster input.
func naiveSilhouette(d [][]float64, assign []int, k int) float64 {
	n := len(d)
	if k < 2 || n < 2 {
		return 0
	}
	members := make([][]int, k)
	for i, g := range assign {
		members[g] = append(members[g], i)
	}
	var total float64
	clusters := 0
	for g := 0; g < k; g++ {
		if len(members[g]) == 0 {
			continue
		}
		var clusterSum float64
		for _, i := range members[g] {
			clusterSum += naiveCoefficient(d, members, g, i)
		}
		total += clusterSum / float64(len(members[g]))
		clusters++
	}
	if clusters == 0 {
		return 0
	}
	return total / float64(clusters)
}

// naiveCoefficient is CS(a) of Equation 6 for point i in cluster g.
func naiveCoefficient(d [][]float64, members [][]int, g, i int) float64 {
	own := members[g]
	if len(own) < 2 {
		return 0
	}
	var alpha float64
	for _, j := range own {
		if j != i {
			alpha += d[i][j]
		}
	}
	alpha /= float64(len(own) - 1)
	beta := math.Inf(1)
	for h, other := range members {
		if h == g || len(other) == 0 {
			continue
		}
		var sum float64
		for _, j := range other {
			sum += d[i][j]
		}
		if mean := sum / float64(len(other)); mean < beta {
			beta = mean
		}
	}
	if math.IsInf(beta, 1) {
		return 0
	}
	den := math.Max(alpha, beta)
	if den == 0 {
		return 0
	}
	return (beta - alpha) / den
}

// naiveClustering is the outcome of one naive Lloyd run.
type naiveClustering struct {
	assign        []int
	centroids     [][]float64
	inertia       float64
	metricInertia float64
	iterations    int
}

// naiveKMeans mirrors the production clustering.KMeans contract — k-means++
// seeding, derived restart seeds (seed + r·7919), lowest-inertia restart
// wins, empty-cluster repair — with none of the accelerations: every
// point-to-centroid distance is a full scan, seeding never reads a
// precomputed matrix. Defaults match production: 100 iterations, 4
// restarts, seed 1.
type naiveKMeans struct {
	maxIter  int
	restarts int
	seed     int64
	dist     clustering.Distance
}

func (nk naiveKMeans) cluster(points [][]float64, k int) *naiveClustering {
	maxIter, restarts, seed := nk.maxIter, nk.restarts, nk.seed
	if maxIter == 0 {
		maxIter = 100
	}
	if restarts == 0 {
		restarts = 4
	}
	if seed == 0 {
		seed = 1
	}
	dist := nk.dist
	if dist == nil {
		dist = clustering.Euclidean{}
	}
	var best *naiveClustering
	for r := 0; r < restarts; r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*7919))
		c := naiveLloyd(points, k, maxIter, rng, dist)
		if best == nil || c.inertia < best.inertia {
			best = c
		}
	}
	return best
}

// naiveLloyd is one unaccelerated Lloyd run.
func naiveLloyd(points [][]float64, k, maxIter int, rng *rand.Rand, dist clustering.Distance) *naiveClustering {
	centroids, _ := naiveSeedPlusPlus(points, k, rng)
	n := len(points)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for i, p := range points {
			bestC, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := dist.Between(p, centroids[c]); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed {
			break
		}
		naiveRecompute(points, assign, centroids)
		naiveRepairEmpty(points, assign, centroids, dist)
	}
	out := &naiveClustering{assign: assign, centroids: centroids, iterations: iters}
	for i, p := range points {
		out.inertia += naiveSqEuclidean(p, centroids[assign[i]])
		out.metricInertia += dist.Between(p, centroids[assign[i]])
	}
	return out
}

// naiveSeedPlusPlus is textbook k-means++ D²-sampling, consuming the rng
// exactly as production does (one Intn for the first pick, one Float64 —
// or Intn on an all-zero landscape — per further centroid). It also
// reports which point indices were drawn: on binary inputs the D²
// landscape is integer-exact, so the draws are a permutation-invariant
// observable of the seeding stage.
func naiveSeedPlusPlus(points [][]float64, k int, rng *rand.Rand) ([][]float64, []int) {
	dim := len(points[0])
	centroids := make([][]float64, k)
	picks := make([]int, k)
	first := rng.Intn(len(points))
	picks[0] = first
	centroids[0] = append(make([]float64, 0, dim), points[first]...)
	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = naiveSqEuclidean(p, centroids[0])
	}
	for c := 1; c < k; c++ {
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var next int
		if sum == 0 {
			next = rng.Intn(len(points))
		} else {
			target := rng.Float64() * sum
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		picks[c] = next
		centroids[c] = append(make([]float64, 0, dim), points[next]...)
		for i, p := range points {
			if d := naiveSqEuclidean(p, centroids[c]); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids, picks
}

// naiveRecompute sets each centroid to its members' coordinate-wise mean,
// with the same multiply-by-reciprocal arithmetic production uses (the
// bit-identity claim extends to the centroids).
func naiveRecompute(points [][]float64, assign []int, centroids [][]float64) {
	dim := len(points[0])
	counts := make([]int, len(centroids))
	for c := range centroids {
		for j := 0; j < dim; j++ {
			centroids[c][j] = 0
		}
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		for j, x := range p {
			centroids[c][j] += x
		}
	}
	for c := range centroids {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range centroids[c] {
			centroids[c][j] *= inv
		}
	}
}

// naiveRepairEmpty reassigns the farthest-from-centroid point into any
// cluster that lost all members, as production does.
func naiveRepairEmpty(points [][]float64, assign []int, centroids [][]float64, dist clustering.Distance) {
	counts := make([]int, len(centroids))
	for _, c := range assign {
		counts[c]++
	}
	for c := range centroids {
		if counts[c] > 0 {
			continue
		}
		worst, worstD := -1, -1.0
		for i, p := range points {
			if counts[assign[i]] <= 1 {
				continue
			}
			if d := dist.Between(p, centroids[assign[i]]); d > worstD {
				worst, worstD = i, d
			}
		}
		if worst < 0 {
			continue
		}
		counts[assign[worst]]--
		assign[worst] = c
		counts[c] = 1
		copy(centroids[c], points[worst])
	}
}

func naiveSqEuclidean(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// naiveKSweep is the sequential reference for TD-AC's parallel k-sweep
// (Algorithm 1 lines 4–18): for each k in [minK, maxK] run the naive
// k-means, score the clustering with the naive silhouette over the naive
// distance matrix, and keep the first k with the strictly highest value.
func naiveKSweep(vectors [][]float64, minK, maxK int, dist clustering.Distance, seed int64) (partition.Partition, float64, []float64) {
	if minK < 2 {
		minK = 2
	}
	if maxK == 0 || maxK > len(vectors)-1 {
		maxK = len(vectors) - 1
	}
	if minK > maxK {
		return partition.Whole(len(vectors)), 0, nil
	}
	d := naiveDistMatrix(vectors, dist)
	nk := naiveKMeans{seed: seed, dist: dist}
	var (
		best     partition.Partition
		bestSil  float64
		haveBest bool
		sils     []float64
	)
	for k := minK; k <= maxK; k++ {
		c := nk.cluster(vectors, k)
		sil := naiveSilhouette(d, c.assign, k)
		sils = append(sils, sil)
		if !haveBest || sil > bestSil {
			haveBest = true
			bestSil = sil
			best = partition.FromAssign(c.assign, k)
		}
	}
	return best, bestSil, sils
}

// projectThenMerge is the per-group base-run path TD-AC took before
// group views: copy the dataset's claims onto each group's projection,
// run F there (compiling the projection's own index), and merge truth,
// confidence and claim-weighted trust back under the original attribute
// ids, one group at a time. It returns the merged result and one
// GroupStats (Group, Attrs, Claims, Iterations) per non-empty group.
func projectThenMerge(base algorithms.Algorithm, d *truthdata.Dataset, part partition.Partition) (*algorithms.Result, []obs.GroupStats, error) {
	merged := &algorithms.Result{
		Truth:      make(map[truthdata.Cell]string),
		Confidence: make(map[truthdata.Cell]float64),
		Trust:      make([]float64, d.NumSources()),
		Converged:  true,
	}
	weights := make([]float64, d.NumSources())
	var groups []obs.GroupStats
	for gi, group := range part.Canonical() {
		sub, backMap := d.Project(group)
		if len(sub.Claims) == 0 {
			continue
		}
		res, err := algorithms.DiscoverContext(context.Background(), base, sub)
		if err != nil {
			return nil, nil, fmt.Errorf("group %d: %w", gi, err)
		}
		groups = append(groups, obs.GroupStats{Group: gi, Attrs: len(group), Claims: len(sub.Claims), Iterations: res.Iterations})
		for cell, v := range res.Truth {
			orig := truthdata.Cell{Object: cell.Object, Attr: backMap[cell.Attr]}
			merged.Truth[orig] = v
			if c, ok := res.Confidence[cell]; ok {
				merged.Confidence[orig] = c
			}
		}
		w := float64(len(sub.Claims))
		for s, tr := range res.Trust {
			merged.Trust[s] += tr * w
			weights[s] += w
		}
		merged.Iterations = max(merged.Iterations, res.Iterations)
		merged.Converged = merged.Converged && res.Converged
	}
	for s := range merged.Trust {
		if weights[s] > 0 {
			merged.Trust[s] /= weights[s]
		}
	}
	return merged, groups, nil
}
