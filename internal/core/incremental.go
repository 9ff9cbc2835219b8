package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/truthdata"
)

// IncrementalState carries TD-AC's discovery prologue across dataset
// versions: the per-cell vote tallies behind the MajorityVote reference,
// the reference truth itself, the attribute truth vectors, and the
// packed distance-matrix geometry. A cold RunContext rebuilds all of
// that from scratch on every call; RunWithState instead Syncs the state
// to the requested version — a structural prefix-extension (the
// registry's append path) touches only the cells of the appended claims,
// repacks only the dirty attribute rows, and recomputes only the touched
// rows and columns of the flat upper-triangular distance matrix.
//
// Bit-identity is the contract: after Sync(d), the state's reference
// truth, truth vectors, packed planes and distance matrix are exactly
// what a cold run over d would build, so the sweep and per-group base
// runs downstream produce bit-identical results (pinned by the
// incremental-vs-cold invariant and FuzzIncrementalAppend).
//
// A state serialises Sync internally but must not Sync while another
// goroutine is mid-run on its geometry; give each concurrent run its
// own state (the server's cache single-flights per dataset).
type IncrementalState struct {
	mu sync.Mutex
	// data is the dataset version the state is synced to.
	data *truthdata.Dataset
	// votes[cell][source] is the value source claims for cell, with
	// exact duplicate claims collapsed — the same deduplication the
	// Index applies, so majority winners agree with MajorityVote.
	votes map[truthdata.Cell]map[truthdata.SourceID]string
	// refTruth[cell] is the majority winner — the maintained equivalent
	// of the cold path's reference MajorityVote run.
	refTruth map[truthdata.Cell]string
	// tv, packed and dm mirror what buildGeometry derives on the cold
	// unmasked/unprojected path from refTruth.
	tv     *TruthVectors
	packed *clustering.PackedVectors
	dm     *clustering.DistMatrix

	counters IncrCounters
}

// IncrCounters reports how an IncrementalState reached its current
// geometry; tests and benchmarks use it to assert which path ran.
type IncrCounters struct {
	// Primes counts cold builds: the first Sync, and any Sync whose
	// target was not a structural extension of the synced version.
	Primes int `json:"primes"`
	// Restores counts states rebuilt from a persisted StateSnapshot.
	Restores int `json:"restores"`
	// Appends counts Syncs that took the incremental path.
	Appends int `json:"appends"`
	// AppendedClaims totals the claims consumed by those appends.
	AppendedClaims int `json:"appended_claims"`
	// Rebuilds counts geometry rebuilds forced mid-append (shape growth
	// — new sources, objects or attributes — invalidates the column
	// layout). Vote state is still maintained incrementally.
	Rebuilds int `json:"rebuilds"`
}

// NewIncrementalState returns an empty state; the first Sync primes it.
func NewIncrementalState() *IncrementalState { return &IncrementalState{} }

// Counters returns a copy of the state's path counters.
func (st *IncrementalState) Counters() IncrCounters {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.counters
}

// Version returns the dataset the state is synced to (nil before the
// first Sync).
func (st *IncrementalState) Version() *truthdata.Dataset {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.data
}

// Sync brings the state to dataset version d. The first call primes it
// cold; a call with a structural prefix-extension of the synced version
// applies only the appended claims; pointer-identical versions are a
// no-op; anything else (a rollback, an unrelated dataset) falls back to
// a cold prime, which is always correct, just not incremental.
func (st *IncrementalState) Sync(d *truthdata.Dataset) error {
	if d == nil || len(d.Claims) == 0 {
		return algorithms.ErrEmptyDataset
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.data == d {
		return nil
	}
	if st.data == nil {
		return st.primeLocked(d)
	}
	delta, err := truthdata.Diff(st.data, d)
	if err != nil {
		return st.primeLocked(d)
	}
	return st.appendLocked(d, delta)
}

// primeLocked rebuilds everything cold from d.
func (st *IncrementalState) primeLocked(d *truthdata.Dataset) error {
	votes := make(map[truthdata.Cell]map[truthdata.SourceID]string, len(d.Claims)/2+1)
	for _, c := range d.Claims {
		cell := c.Cell()
		m := votes[cell]
		if m == nil {
			m = make(map[truthdata.SourceID]string, 4)
			votes[cell] = m
		}
		if prev, ok := m[c.Source]; ok && prev != c.Value {
			return fmt.Errorf("core: source %d claims both %q and %q for cell %v", c.Source, prev, c.Value, cell)
		}
		m[c.Source] = c.Value
	}
	refTruth := make(map[truthdata.Cell]string, len(votes))
	for cell, m := range votes {
		refTruth[cell] = majorityWinner(m)
	}
	st.votes, st.refTruth = votes, refTruth
	st.data = d
	st.counters.Primes++
	st.rebuildGeometryLocked(d)
	return nil
}

// appendLocked applies a verified prefix-extension delta: tallies the
// appended claims, repairs the majority winners of the touched cells,
// then patches only the dirty coordinates, packed rows and matrix
// entries. Shape growth (new identifiers) invalidates the (object,
// source) column layout, so geometry rebuilds cold from the maintained
// reference truth — still skipping the index and reference runs.
func (st *IncrementalState) appendLocked(d *truthdata.Dataset, delta *truthdata.Delta) error {
	changed := make(map[truthdata.Cell]bool, len(delta.Claims))
	for _, c := range delta.Claims {
		cell := c.Cell()
		m := st.votes[cell]
		if m == nil {
			m = make(map[truthdata.SourceID]string, 4)
			st.votes[cell] = m
		}
		if prev, ok := m[c.Source]; ok {
			if prev != c.Value {
				return fmt.Errorf("core: source %d claims both %q and %q for cell %v", c.Source, prev, c.Value, cell)
			}
			// Exact duplicate of an existing claim: it collapses to the
			// same single vote the Index would count, so nothing moves.
			continue
		}
		m[c.Source] = c.Value
		changed[cell] = true
	}
	for cell := range changed {
		st.refTruth[cell] = majorityWinner(st.votes[cell])
	}
	st.counters.Appends++
	st.counters.AppendedClaims += len(delta.Claims)
	st.data = d

	if delta.ShapeChanged() || st.packed == nil {
		st.counters.Rebuilds++
		st.rebuildGeometryLocked(d)
		return nil
	}

	// A cell's coordinates live entirely inside its attribute's truth
	// vector, so rewriting every (source) coordinate of each touched
	// cell — new votes and majority flips alike — repairs exactly the
	// dirty rows.
	nS := d.NumSources()
	dirty := make([]bool, d.NumAttrs())
	for cell := range changed {
		a := int(cell.Attr)
		row := st.tv.Vectors[a]
		truth := st.refTruth[cell]
		base := int(cell.Object) * nS
		for s, v := range st.votes[cell] {
			x := 0.0
			if v == truth {
				x = 1.0
			}
			row[base+int(s)] = x
		}
		dirty[a] = true
	}
	for a, isDirty := range dirty {
		if isDirty && !st.packed.SetRow(a, st.tv.Vectors[a]) {
			st.counters.Rebuilds++
			st.rebuildGeometryLocked(d)
			return nil
		}
	}
	if !st.dm.UpdateRowsPacked(st.packed, dirty) {
		st.counters.Rebuilds++
		st.rebuildGeometryLocked(d)
	}
	return nil
}

// rebuildGeometryLocked derives tv/packed/dm from the maintained
// reference truth, exactly as buildGeometry would on the cold
// unmasked/unprojected path.
func (st *IncrementalState) rebuildGeometryLocked(d *truthdata.Dataset) {
	st.tv = BuildTruthVectors(d, st.refTruth, false)
	st.packed, _ = clustering.PackBinary(st.tv.Vectors)
	if st.packed != nil {
		st.dm = clustering.NewDistMatrixPacked(st.packed)
	} else {
		st.dm = clustering.NewDistMatrix(st.tv.Vectors, clustering.Hamming{})
	}
}

// majorityWinner resolves a cell's majority value: most deduplicated
// votes, ties to the lexicographically smallest value — the same total
// order MajorityVote.DiscoverIndexed resolves over the sorted candidate
// list, made map-iteration-order-proof by comparing (count, value).
func majorityWinner(m map[truthdata.SourceID]string) string {
	counts := make(map[string]int, len(m))
	for _, v := range m {
		counts[v]++
	}
	best, bestN := "", -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// geometry returns the maintained clustering geometry for the sweep.
func (st *IncrementalState) geometry() *geometry {
	st.mu.Lock()
	defer st.mu.Unlock()
	return &geometry{tv: st.tv, dist: clustering.Hamming{}, packed: st.packed, distMatrix: st.dm}
}

// referenceResult materialises the maintained reference as an
// algorithms.Result. Only Truth is populated: the cold reference's
// Confidence and Trust never feed the pipeline or the public Result, so
// the incremental path does not maintain them.
func (st *IncrementalState) referenceResult() *algorithms.Result {
	st.mu.Lock()
	defer st.mu.Unlock()
	truth := make(map[truthdata.Cell]string, len(st.refTruth))
	for cell, v := range st.refTruth {
		truth[cell] = v
	}
	return &algorithms.Result{
		Algorithm:  (&algorithms.MajorityVote{}).Name(),
		Truth:      truth,
		Iterations: 1,
		Converged:  true,
	}
}

// incrementalCompatible rejects TDAC configurations whose geometry the
// state cannot maintain: the incremental path is pinned to the default
// unmasked, unprojected Hamming pipeline with a MajorityVote reference
// (the only built-in reference whose truth updates bit-identically
// under appends).
func incrementalCompatible(t *TDAC) error {
	if t.Masked {
		return fmt.Errorf("core: incremental discovery is incompatible with Masked")
	}
	if t.ProjectDim > 0 {
		return fmt.Errorf("core: incremental discovery is incompatible with ProjectDim")
	}
	if t.Distance != nil {
		return fmt.Errorf("core: incremental discovery requires the default Hamming distance")
	}
	ref := t.Reference
	if ref == nil {
		ref = t.Base
	}
	if _, ok := ref.(*algorithms.MajorityVote); !ok {
		name := "nil"
		if ref != nil {
			name = ref.Name()
		}
		return fmt.Errorf("core: incremental discovery requires a MajorityVote reference, got %s", name)
	}
	return nil
}

// RunWithState executes Algorithm 1 like RunContext, but sources the
// discovery prologue (reference truth, truth vectors, packed geometry)
// from st, syncing it to d first. Identical geometry feeds the shared
// sweep, so the Outcome is bit-identical to a cold RunContext over d —
// except ReferenceResult, which carries the reference Truth only (see
// referenceResult). The configuration must satisfy
// incrementalCompatible; st must not be shared by concurrent runs.
func (t *TDAC) RunWithState(ctx context.Context, d *truthdata.Dataset, st *IncrementalState) (*Outcome, error) {
	start := time.Now()
	if t.Base == nil {
		return nil, errNoBase
	}
	if st == nil {
		return nil, fmt.Errorf("core: RunWithState requires a non-nil IncrementalState")
	}
	if len(d.Claims) == 0 {
		return nil, algorithms.ErrEmptyDataset
	}
	if err := incrementalCompatible(t); err != nil {
		return nil, err
	}
	if _, err := t.resolveSearch(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rec := t.Recorder
	rec.Start()

	syncDone := rec.Phase(obs.PhaseIncrementalSync)
	if err := st.Sync(d); err != nil {
		return nil, fmt.Errorf("core: incremental sync: %w", err)
	}
	g := st.geometry()
	syncDone()
	rec.MatrixDone(obs.MatrixStats{
		Points: g.distMatrix.N,
		Pairs:  len(g.distMatrix.Tri),
		Packed: g.packed != nil,
	})

	nAttrs := d.NumAttrs()
	minK, maxK, err := t.kRange(nAttrs)
	if err != nil {
		return nil, err
	}
	var (
		part     partition.Partition
		sil      float64
		explored []KScore
	)
	if minK > maxK {
		part = partition.Whole(nAttrs)
	} else {
		// The shared strategy dispatch: the maintained geometry feeds the
		// exhaustive sweep or the sublinear search exactly as a cold run's
		// freshly built geometry would, keeping warm-vs-cold bit-identity
		// under every Search strategy.
		part, sil, explored, err = t.selectOverGeometry(ctx, g, minK, maxK)
		if err != nil {
			return nil, err
		}
	}

	// The base runs read views of one claim index, compiled for this run
	// only: caching it on d (d.Index) would pin it to the dataset
	// version for as long as the caller holds that version.
	phaseDone := rec.Phase(obs.PhaseIndex)
	ix := truthdata.NewIndex(d)
	phaseDone()
	res, err := t.discoverOnPartition(ctx, d, ix, part)
	if err != nil {
		return nil, err
	}
	res.Algorithm = t.Name()
	res.Iterations = 1
	res.Runtime = time.Since(start)

	return &Outcome{
		Result:          res,
		Partition:       part,
		Silhouette:      sil,
		Explored:        explored,
		ReferenceResult: st.referenceResult(),
		Stats:           rec.Finish(),
	}, nil
}

// StateCell is one (cell, value) pair of a persisted reference truth.
type StateCell struct {
	Object truthdata.ObjectID `json:"o"`
	Attr   truthdata.AttrID   `json:"a"`
	Value  string             `json:"v"`
}

// StateVote is one persisted deduplicated claim tally entry.
type StateVote struct {
	Object truthdata.ObjectID `json:"o"`
	Attr   truthdata.AttrID   `json:"a"`
	Source truthdata.SourceID `json:"s"`
	Value  string             `json:"v"`
}

// StateSnapshot is the serialisable form of an IncrementalState's vote
// and reference-truth maps plus the shape of the dataset version they
// describe. Geometry is excluded on purpose: RestoreState re-derives it
// from the truth, so a snapshot can never smuggle in a matrix that
// disagrees with its own votes. Entries are sorted, making equal states
// byte-identical when marshalled.
type StateSnapshot struct {
	Claims  int         `json:"claims"`
	Sources int         `json:"sources"`
	Objects int         `json:"objects"`
	Attrs   int         `json:"attrs"`
	Truth   []StateCell `json:"truth"`
	Votes   []StateVote `json:"votes"`
}

// Snapshot serialises the state's maintained maps (nil before the first
// Sync).
func (st *IncrementalState) Snapshot() *StateSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.data == nil {
		return nil
	}
	snap := &StateSnapshot{
		Claims:  len(st.data.Claims),
		Sources: st.data.NumSources(),
		Objects: st.data.NumObjects(),
		Attrs:   st.data.NumAttrs(),
		Truth:   make([]StateCell, 0, len(st.refTruth)),
		Votes:   make([]StateVote, 0, len(st.refTruth)),
	}
	for cell, v := range st.refTruth {
		snap.Truth = append(snap.Truth, StateCell{Object: cell.Object, Attr: cell.Attr, Value: v})
	}
	for cell, m := range st.votes {
		for s, v := range m {
			snap.Votes = append(snap.Votes, StateVote{Object: cell.Object, Attr: cell.Attr, Source: s, Value: v})
		}
	}
	sort.Slice(snap.Truth, func(i, j int) bool {
		a, b := snap.Truth[i], snap.Truth[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Attr < b.Attr
	})
	sort.Slice(snap.Votes, func(i, j int) bool {
		a, b := snap.Votes[i], snap.Votes[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		return a.Source < b.Source
	})
	return snap
}

// RestoreState rebuilds an IncrementalState from a persisted snapshot,
// verifying that the snapshot describes exactly dataset version d: the
// claim count and every identifier-space size must match, every entry
// must reference in-range ids, and the persisted truth must equal the
// majority winners of the persisted votes. Any mismatch returns an
// error and the caller should prime a fresh state cold — a stale or
// torn snapshot costs a rebuild, never a wrong result.
func RestoreState(d *truthdata.Dataset, snap *StateSnapshot) (*IncrementalState, error) {
	if d == nil || snap == nil {
		return nil, fmt.Errorf("core: RestoreState requires a dataset and a snapshot")
	}
	if snap.Claims != len(d.Claims) || snap.Sources != d.NumSources() ||
		snap.Objects != d.NumObjects() || snap.Attrs != d.NumAttrs() {
		return nil, fmt.Errorf("core: snapshot shape (%d claims, %d/%d/%d ids) does not match dataset (%d claims, %d/%d/%d ids)",
			snap.Claims, snap.Sources, snap.Objects, snap.Attrs,
			len(d.Claims), d.NumSources(), d.NumObjects(), d.NumAttrs())
	}
	votes := make(map[truthdata.Cell]map[truthdata.SourceID]string, len(snap.Truth))
	for _, e := range snap.Votes {
		if int(e.Source) < 0 || int(e.Source) >= snap.Sources ||
			int(e.Object) < 0 || int(e.Object) >= snap.Objects ||
			int(e.Attr) < 0 || int(e.Attr) >= snap.Attrs || e.Value == "" {
			return nil, fmt.Errorf("core: snapshot vote references ids outside the dataset")
		}
		cell := truthdata.Cell{Object: e.Object, Attr: e.Attr}
		m := votes[cell]
		if m == nil {
			m = make(map[truthdata.SourceID]string, 4)
			votes[cell] = m
		}
		if prev, ok := m[e.Source]; ok && prev != e.Value {
			return nil, fmt.Errorf("core: snapshot holds conflicting votes for cell %v", cell)
		}
		m[e.Source] = e.Value
	}
	if len(snap.Truth) != len(votes) {
		return nil, fmt.Errorf("core: snapshot truth covers %d cells, votes cover %d", len(snap.Truth), len(votes))
	}
	refTruth := make(map[truthdata.Cell]string, len(snap.Truth))
	for _, e := range snap.Truth {
		cell := truthdata.Cell{Object: e.Object, Attr: e.Attr}
		m, ok := votes[cell]
		if !ok {
			return nil, fmt.Errorf("core: snapshot truth names cell %v with no votes", cell)
		}
		if w := majorityWinner(m); w != e.Value {
			return nil, fmt.Errorf("core: snapshot truth %q for cell %v disagrees with its votes (majority %q)", e.Value, cell, w)
		}
		refTruth[cell] = e.Value
	}
	st := &IncrementalState{votes: votes, refTruth: refTruth, data: d}
	st.counters.Restores++
	st.rebuildGeometryLocked(d)
	return st, nil
}
