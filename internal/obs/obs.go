// Package obs implements the observability subsystem of the TD-AC
// pipeline. A Recorder collects a RunStats tree — phase-scoped wall
// times, per-k clustering convergence counters, per-group base-run cost,
// distance-cache reuse and allocation deltas — for one Discover, Run or
// CheckStability call.
//
// The Recorder is nil-safe by design: every method on a nil *Recorder is
// a no-op, so instrumented code paths carry a single pointer comparison
// when observation is off (the overhead budget is ≤ 2% on the k-sweep
// benchmark, see DESIGN.md §8). Observation is strictly one-directional:
// a Recorder only receives values the pipeline already computed, so an
// observed run is bit-identical to an unobserved one (pinned by
// core.TestStatsObservationIsInert).
package obs

import (
	"runtime"
	"sync"
	"time"
)

// Phase identifies one stage of the pipeline in a RunStats tree.
type Phase string

// The pipeline phases, in execution order. A TD-AC Discover passes
// through Index → Reference → TruthVectors → DistanceMatrix → KSweep →
// BaseRuns → Merge; a plain base-algorithm Run has the single Discover
// phase; CheckStability repeats DistanceMatrix/KSweep once per reseeded
// run after one Reference/TruthVectors prologue.
const (
	// PhaseIndex compiles the dataset's claim index (and its CSR
	// adjacency on first algorithm use), shared by the reference run and,
	// as views, by every per-group base run. The incremental path has no
	// reference run and compiles a run-local index here, just before the
	// base runs.
	PhaseIndex          Phase = "index"
	PhaseReference      Phase = "reference"
	PhaseTruthVectors   Phase = "truth-vectors"
	PhaseDistanceMatrix Phase = "distance-matrix"
	PhaseKSweep         Phase = "k-sweep"
	PhaseBaseRuns       Phase = "base-runs"
	PhaseMerge          Phase = "merge"
	PhaseDiscover       Phase = "discover"
	// PhaseIncrementalSync replaces Reference/TruthVectors and the
	// matrix build on the incremental-discovery path: it covers syncing a
	// maintained IncrementalState to the dataset version under discovery
	// (vote deltas, reference-truth repair, dirty-row geometry updates).
	PhaseIncrementalSync Phase = "incremental-sync"
)

// PhaseStats is one node of the phase-time tree: a phase and the wall
// time it consumed. Phases that ran more than once (the k-sweeps of a
// stability check) appear once per execution, in execution order.
type PhaseStats struct {
	Phase    Phase         `json:"phase"`
	Duration time.Duration `json:"duration_ns"`
}

// KStats records the clustering of one explored cluster count.
type KStats struct {
	// K is the explored cluster count.
	K int `json:"k"`
	// Duration is the wall time of the k-means run plus its silhouette
	// evaluation.
	Duration time.Duration `json:"duration_ns"`
	// Iterations is the number of Lloyd rounds of the winning restart.
	Iterations int `json:"iterations"`
	// Converged reports whether the winning restart reached a fixed
	// point before the iteration cap.
	Converged bool `json:"converged"`
	// Silhouette and Inertia score the clustering (Equations 5–7 and 3).
	Silhouette float64 `json:"silhouette"`
	Inertia    float64 `json:"inertia"`
}

// SweepStats describes one full k-sweep (Algorithm 1 lines 4–18) or one
// sublinear k-search over the same range.
type SweepStats struct {
	// Seed is the k-means base seed the sweep derived its restarts from.
	Seed int64 `json:"seed"`
	// Workers is the resolved worker-pool size the sweep ran on.
	Workers int `json:"workers"`
	// MinK and MaxK bound the requested range. The exhaustive sweep
	// explores every k in it; a search strategy probes a subset, so Ks
	// may hold holes — consumers must read each entry's K field, never
	// reconstruct it as MinK+index.
	MinK int `json:"min_k"`
	MaxK int `json:"max_k"`
	// Strategy names the k-selection strategy ("golden", "mdl"); empty
	// for the default exhaustive sweep.
	Strategy string `json:"strategy,omitempty"`
	// Duration is the wall time of the whole sweep.
	Duration time.Duration `json:"duration_ns"`
	// Ks holds one entry per explored cluster count, ascending k.
	Ks []KStats `json:"ks"`
}

// Iterations sums the Lloyd rounds over every explored k.
func (s *SweepStats) Iterations() int {
	total := 0
	for _, k := range s.Ks {
		total += k.Iterations
	}
	return total
}

// Converged counts the explored ks whose winning restart converged.
func (s *SweepStats) Converged() int {
	n := 0
	for _, k := range s.Ks {
		if k.Converged {
			n++
		}
	}
	return n
}

// MatrixStats describes the shared pairwise distance matrix build.
type MatrixStats struct {
	// Points is the number of vectors (attributes), Pairs the number of
	// distances materialised: Points·(Points-1)/2.
	Points int `json:"points"`
	Pairs  int `json:"pairs"`
	// Packed reports whether the popcount kernels built the matrix;
	// Masked whether the two-plane sparse-aware encoding was active.
	// The build's wall time is the matching distance-matrix entry of
	// RunStats.Phases.
	Packed bool `json:"packed"`
	Masked bool `json:"masked"`
}

// CacheStats counts how often the shared distance matrix was consumed
// instead of recomputing O(dim) vector distances.
type CacheStats struct {
	// SilhouetteEvals counts silhouette evaluations served entirely from
	// the matrix — one per explored k, across every sweep.
	SilhouetteEvals int `json:"silhouette_evals"`
	// SeededRuns counts k-means++ seedings whose D² samples read the
	// matrix instead of scanning vectors (restarts × explored k when the
	// packed dense path is active; 0 on masked or custom encodings).
	SeededRuns int `json:"seeded_runs"`
}

// GroupStats records one per-group base-algorithm run (Algorithm 1
// lines 20–24).
type GroupStats struct {
	// Group is the group's index in the selected partition.
	Group int `json:"group"`
	// Attrs and Claims size the group's slice of the dataset; Claims is
	// the raw count, duplicate claims included, which is also the
	// group's weight in the merged trust.
	Attrs  int `json:"attrs"`
	Claims int `json:"claims"`
	// Iterations is the number of update rounds the base algorithm ran.
	Iterations int `json:"iterations"`
	// Duration is the wall time of the group's run, including building
	// its view of the run's index (or, for a plain Algorithm, its
	// projection of the dataset).
	Duration time.Duration `json:"duration_ns"`
}

// MemoryStats holds process-wide allocation deltas between Start and
// Finish, from runtime.ReadMemStats. With parallel stages the deltas
// include every goroutine's allocations, not only the pipeline's.
type MemoryStats struct {
	// TotalAllocDelta is the cumulative bytes allocated during the run.
	TotalAllocDelta uint64 `json:"total_alloc_bytes"`
	// MallocsDelta is the number of heap objects allocated.
	MallocsDelta uint64 `json:"mallocs"`
	// HeapAllocDelta is the change in live heap bytes (can be negative
	// when a GC ran).
	HeapAllocDelta int64 `json:"heap_alloc_delta_bytes"`
	// GCCycles is the number of garbage collections completed.
	GCCycles uint32 `json:"gc_cycles"`
}

// RunStats is the full observation tree of one pipeline run.
type RunStats struct {
	// Total is the wall time between Start and Finish.
	Total time.Duration `json:"total_ns"`
	// Phases holds the phase wall times in execution order.
	Phases []PhaseStats `json:"phases"`
	// Matrix describes the distance-matrix builds, one per sweep.
	Matrix []MatrixStats `json:"matrix,omitempty"`
	// Sweeps holds one entry per k-sweep executed (Discover: one;
	// CheckStability: one per reseeded run).
	Sweeps []SweepStats `json:"sweeps,omitempty"`
	// Groups holds the per-group base-run timings of the selected
	// partition.
	Groups []GroupStats `json:"groups,omitempty"`
	// Cache counts distance-matrix reuse across the run.
	Cache CacheStats `json:"cache"`
	// Memory holds allocation deltas over the run.
	Memory MemoryStats `json:"memory"`
}

// PhaseDuration sums the wall time of every execution of phase p.
func (s *RunStats) PhaseDuration(p Phase) time.Duration {
	var d time.Duration
	for _, ps := range s.Phases {
		if ps.Phase == p {
			d += ps.Duration
		}
	}
	return d
}

// Recorder accumulates a RunStats tree for one pipeline run. The zero
// value is not used directly; NewRecorder returns a ready one and a nil
// *Recorder is the disabled subsystem: every method no-ops.
//
// A Recorder is single-use — Start once, observe one public API call,
// Finish once — but safe for the concurrent writes of the parallel
// k-sweep and the per-group base runs.
type Recorder struct {
	mu       sync.Mutex
	started  time.Time
	startMem runtime.MemStats
	stats    RunStats
	// sink, when non-nil, receives streaming Events (see events.go).
	// Emission is strictly one-directional: the sink only sees values
	// the pipeline already computed.
	sink EventSink
}

// NewRecorder returns an enabled Recorder that collects the RunStats
// tree and streams Events to sink (nil is fine: collection only).
func NewRecorder(sink EventSink) *Recorder {
	return &Recorder{sink: sink}
}

// Enabled reports whether stats are being collected; callers use it to
// skip work (time.Now, ReadMemStats) that exists only to be recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Start marks the beginning of the run and snapshots the allocator.
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	runtime.ReadMemStats(&r.startMem)
	r.started = time.Now()
}

var noop = func() {}

// Phase starts timing one phase; the returned func completes it. On a
// nil Recorder it returns a shared no-op, so call sites need no guards:
//
//	done := rec.Phase(obs.PhaseReference)
//	... the phase's work ...
//	done()
func (r *Recorder) Phase(p Phase) func() {
	if r == nil {
		return noop
	}
	r.emit(Event{Kind: EventPhaseStart, Phase: p})
	t0 := time.Now()
	return func() { r.PhaseDone(p, time.Since(t0)) }
}

// PhaseDone records one completed phase and notifies the event sink.
func (r *Recorder) PhaseDone(p Phase, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stats.Phases = append(r.stats.Phases, PhaseStats{Phase: p, Duration: d})
	r.mu.Unlock()
	r.emit(Event{Kind: EventPhaseEnd, Phase: p, Elapsed: d})
}

// MatrixDone records one distance-matrix build.
func (r *Recorder) MatrixDone(m MatrixStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stats.Matrix = append(r.stats.Matrix, m)
	r.mu.Unlock()
}

// SweepDone records one completed k-sweep and accumulates its cache
// reuse counters.
func (r *Recorder) SweepDone(s SweepStats, cache CacheStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stats.Sweeps = append(r.stats.Sweeps, s)
	r.stats.Cache.SilhouetteEvals += cache.SilhouetteEvals
	r.stats.Cache.SeededRuns += cache.SeededRuns
	r.mu.Unlock()
}

// GroupDone records one per-group base run; it is called concurrently
// from the base-run worker pool.
func (r *Recorder) GroupDone(g GroupStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stats.Groups = append(r.stats.Groups, g)
	r.mu.Unlock()
	r.emit(Event{Kind: EventGroup, Group: g.Group, Attrs: g.Attrs, Claims: g.Claims})
}

// Finish closes the run: it stamps the total wall time, computes the
// allocation deltas, sorts the per-group records (concurrent completion
// order is nondeterministic) and returns the finished tree. The Recorder
// must not be reused afterwards.
func (r *Recorder) Finish() *RunStats {
	if r == nil {
		return nil
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Total = time.Since(r.started)
	r.stats.Memory = MemoryStats{
		TotalAllocDelta: end.TotalAlloc - r.startMem.TotalAlloc,
		MallocsDelta:    end.Mallocs - r.startMem.Mallocs,
		HeapAllocDelta:  int64(end.HeapAlloc) - int64(r.startMem.HeapAlloc),
		GCCycles:        end.NumGC - r.startMem.NumGC,
	}
	sortGroups(r.stats.Groups)
	out := r.stats
	return &out
}

// sortGroups orders group records by group index (insertion sort; group
// counts are small).
func sortGroups(gs []GroupStats) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j].Group < gs[j-1].Group; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}
