package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"tdac"
	"tdac/internal/algorithms"
	"tdac/internal/clustering"
	"tdac/internal/core"
	"tdac/internal/truthdata"
)

// Direct workloads: one closed-loop caller of tdac.Discover (F = Accu,
// k-means seed 1, exhaustive k) round-robin over its datasets. Every op
// runs on a fresh, untimed copy of its dataset, so the index is built
// in every op, as a one-shot library or CLI caller pays.
const (
	directBase = "Accu"
	kmeansSeed = 1
	// dsVariants and examVariants are how many generated copies of each
	// dataset one run rotates over; more copies average out how much
	// one seed's data costs.
	dsVariants   = 3
	examVariants = 2
	// unattributedTolerance is how far the replayed layers' self times
	// may sum from the untraced wall time, as a share of it.
	unattributedTolerance = 0.15
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 3
)

func directOpts() []tdac.Option {
	return []tdac.Option{tdac.WithBase(directBase), tdac.WithSeed(kmeansSeed)}
}

func runDSDirect(r *run) error {
	ins, err := paperDS(r.seed, dsVariants)
	if err != nil {
		return err
	}
	return runDirect(r, ins)
}

func runExamDirect(r *run) error {
	ins, err := paperExam(r.seed, examVariants)
	if err != nil {
		return err
	}
	return runDirect(r, ins)
}

// oracleSet is one dataset of a direct run with its oracle.
type oracleSet struct {
	d         *tdac.Dataset
	want      *outcome
	precision float64
}

func runDirect(r *run, ins []input) error {
	// Set-up, as a library caller pays it: parse every dataset from its
	// CSV files. Repeated; the last parse is the one used.
	var sets []oracleSet
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // start every repetition from the same heap
		t0 := time.Now()
		sets = sets[:0]
		for _, in := range ins {
			d, err := in.load()
			if err != nil {
				return err
			}
			sets = append(sets, oracleSet{d: d})
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	for i := range sets {
		if err := sets[i].runOracle(directOpts()); err != nil {
			return err
		}
	}
	r.logf("%s: %d datasets loaded, oracle ready; measuring %s", r.workload, len(sets), r.window)
	if r.trace {
		return traceDirect(r, sets)
	}

	var lat, prec []float64
	var ds []string
	var alloc uint64
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(r.window)
	for i := 0; time.Now().Before(deadline); i++ {
		s := &sets[i%len(sets)]
		d := s.d.Clone()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := tdac.Discover(d, directOpts()...)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		r.res.Attempted++
		alloc += m1.TotalAlloc - m0.TotalAlloc
		if err != nil {
			r.fail("discover on %s: %v", d.Name, err)
			continue
		}
		if diff := mismatch(s.want, outcomeOf(d, res)); diff != "" {
			r.fail("discover on %s: %s", d.Name, diff)
			continue
		}
		lat = append(lat, ms(dt))
		ds = append(ds, d.Name)
		prec = append(prec, s.precision)
	}
	r.latency("op", lat, ds)
	r.set("setup_s", "s", median(setup), fmt.Sprintf("median of %d dataset loads", len(setup)))
	rss, err := peakRSSMiB(0)
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", "MiB", rss, "this process")
	r.set("alloc_mib_per_op", "MiB", float64(alloc)/float64(r.res.Attempted)/(1<<20), fmt.Sprintf("over %d ops", r.res.Attempted))
	r.setOutcomes(prec)
	return nil
}

// runOracle makes the set's expected result: one untimed tdac.Discover.
func (s *oracleSet) runOracle(opts []tdac.Option) error {
	res, err := tdac.Discover(s.d.Clone(), opts...)
	if err != nil {
		return fmt.Errorf("oracle run on %s: %w", s.d.Name, err)
	}
	s.want = outcomeOf(s.d, res)
	s.precision = tdac.Evaluate(s.d, res.Truth).Precision
	return nil
}

// setOutcomes records ok_ratio and the mean precision of the
// successful ops.
func (r *run) setOutcomes(prec []float64) {
	ok := r.res.Attempted - r.res.Failed
	r.set("ok_ratio", "ratio", float64(ok)/float64(r.res.Attempted), fmt.Sprintf("%d of %d ops correct", ok, r.res.Attempted))
	if len(prec) == 0 {
		r.set("precision", "ratio", 0, "no successful op")
		return
	}
	sum := 0.0
	for _, p := range prec {
		sum += p
	}
	r.set("precision", "ratio", sum/float64(len(prec)), "mean over correct ops")
}

// traceDirect is the traced run of a direct workload. Ops cycle through
// three kinds on the same dataset: an untraced tdac.Discover (the wall
// time the layers must add up to), the traced replay of the pipeline
// through the exported calls of each layer, and a Discover WithStats
// whose phase durations cross-check the replay's layers.
func traceDirect(r *run, sets []oracleSet) error {
	tr := NewTracer()
	layers := map[string][]float64{}
	var untraced, traced []float64
	var probed, lloyd, iters []float64
	phases := map[string][]float64{}
	// Per dataset: the untraced ops' wall times and the traced ops'
	// summed layer self times.
	untracedBy := map[int][]float64{}
	layerSumBy := map[int][]float64{}

	deadline := time.Now().Add(r.window)
	for i := 0; time.Now().Before(deadline) || i%3 != 0; i++ {
		si := (i / 3) % len(sets)
		s := &sets[si]
		d := s.d.Clone()
		r.res.Attempted++
		switch i % 3 {
		case 0:
			t0 := time.Now()
			res, err := tdac.Discover(d, directOpts()...)
			dt := ms(time.Since(t0))
			if err != nil {
				r.fail("discover: %v", err)
				continue
			}
			if diff := mismatch(s.want, outcomeOf(d, res)); diff != "" {
				r.fail("discover on %s: %s", d.Name, diff)
				continue
			}
			untraced = append(untraced, dt)
			untracedBy[si] = append(untracedBy[si], dt)
		case 1:
			rp, err := replay(context.Background(), tr, i, d)
			if err != nil {
				r.fail("replay: %v", err)
				continue
			}
			if diff := mismatch(s.want, outcomeOf(d, rp.res)); diff != "" {
				r.fail("replay on %s differs from tdac.Discover: %s", d.Name, diff)
				continue
			}
			sum := 0.0
			for name, v := range rp.self {
				layers[name] = append(layers[name], v)
				sum += v
			}
			layers["core.base_runs"] = append(layers["core.base_runs"], rp.baseRuns)
			traced = append(traced, rp.wall)
			layerSumBy[si] = append(layerSumBy[si], sum)
			probed = append(probed, float64(rp.probed))
			iters = append(iters, float64(rp.groupIters))
		case 2:
			res, err := tdac.Discover(d, append(directOpts(), tdac.WithStats())...)
			if err != nil {
				r.fail("discover with stats: %v", err)
				continue
			}
			if diff := mismatch(s.want, outcomeOf(d, res)); diff != "" {
				r.fail("discover with stats on %s: %s", d.Name, diff)
				continue
			}
			for _, p := range res.Stats.Phases {
				phases[string(p.Phase)] = append(phases[string(p.Phase)], ms(p.Duration))
			}
			n := 0
			for _, sw := range res.Stats.Sweeps {
				for _, k := range sw.Ks {
					n += k.Iterations
				}
			}
			lloyd = append(lloyd, float64(n))
		}
	}
	for _, name := range directLayers {
		r.layerTiming(name, layers[name])
	}
	r.layerValue("clustering.ks_probed", "count", probed)
	r.layerValue("clustering.lloyd_iterations", "count", lloyd)
	r.layerValue("algorithms.iterations", "count", iters)
	r.setPhases(phases)
	// Each traced op's layers against the median untraced op on the same
	// dataset.
	var unattributed []float64
	for si, sums := range layerSumBy {
		if u := untracedBy[si]; len(u) > 0 {
			for _, sum := range sums {
				unattributed = append(unattributed, 1-sum/median(u))
			}
		}
	}
	r.layerValue("trace.unattributed_ratio", "ratio", unattributed)
	verdict := "within"
	if math.Abs(median(unattributed)) > unattributedTolerance {
		verdict = "OUTSIDE"
		r.logf("the replayed layers leave %.1f%% of the untraced wall time unattributed, outside the ±%.0f%% tolerance", 100*median(unattributed), 100*unattributedTolerance)
	}
	r.notes = append(r.notes, fmt.Sprintf("# layers add up to the untraced wall time %s the ±%.0f%% tolerance", verdict, 100*unattributedTolerance))
	r.set("trace.overhead_ratio", "ratio", median(traced)/median(untraced),
		fmt.Sprintf("median traced op %.2f ms over median untraced op %.2f ms", median(traced), median(untraced)))
	r.crossCheck(layers, phases)
	return writeTrace(r, tr)
}

// directLayers are the timed layers of the direct replay, in pipeline
// order.
var directLayers = []string{
	"truthdata.index", "algorithms.reference", "core.truth_vectors",
	"clustering.distmatrix", "clustering.kselect",
	"truthdata.project", "truthdata.group_index", "algorithms.group_run",
	"core.base_runs", "core.merge",
}

// crossCheck prints each replayed layer beside the phase the program's
// own WithStats report gives for the same work.
func (r *run) crossCheck(layers, phases map[string][]float64) {
	sum := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			if v := layers[n]; len(v) > 0 {
				t += median(v)
			}
		}
		return t
	}
	phase := func(p string) float64 {
		if v := phases[p]; len(v) > 0 {
			return median(v)
		}
		return 0
	}
	rows := []struct {
		what          string
		replay, stats float64
	}{
		// The replay's index span also compiles the CSR arrays, which
		// WithStats charges to the reference phase.
		{"index+reference", sum("truthdata.index", "algorithms.reference"), phase("index") + phase("reference")},
		{"truth-vectors", sum("core.truth_vectors"), phase("truth-vectors")},
		{"distance-matrix", sum("clustering.distmatrix"), phase("distance-matrix")},
		{"k-sweep", sum("clustering.kselect"), phase("k-sweep")},
		{"base-runs+merge", sum("core.base_runs"), phase("base-runs") + phase("merge")},
	}
	for _, row := range rows {
		r.notes = append(r.notes, fmt.Sprintf("# cross-check %-16s replay %9.3f ms   WithStats %9.3f ms", row.what, row.replay, row.stats))
	}
}

// replayed is one traced replay: its result, each layer's self time in
// ms, the base-run span and the counts it observed.
type replayed struct {
	res        *tdac.Result
	self       map[string]float64
	baseRuns   float64
	wall       float64
	probed     int
	groupIters int
}

// replay runs tdac.Discover's pipeline through the exported calls of
// each layer, one span per call, and returns a result that must equal
// Discover's. Two calls cannot be opened from outside: SelectPartition
// builds the distance matrix internally and RunOnPartition projects and
// runs every group internally. The replay measures replicas of that
// work (PackBinary + NewDistMatrixPacked; Project, Index and the base
// run per group) and subtracts them from the enclosing call's self time.
func replay(ctx context.Context, tr *Tracer, op int, d *truthdata.Dataset) (*replayed, error) {
	base, err := algorithms.New(directBase)
	if err != nil {
		return nil, err
	}
	t := core.New(base)
	t.KMeans.Seed = kmeansSeed

	root := tr.Begin("op", op, -1)
	sp := tr.Begin("truthdata.index", op, root)
	d.Index().Flat()
	tr.End(sp)

	sp = tr.Begin("algorithms.reference", op, root)
	ref, err := algorithms.DiscoverContext(ctx, base, d)
	tr.End(sp)
	if err != nil {
		return nil, err
	}

	sp = tr.Begin("core.truth_vectors", op, root)
	tv := core.BuildTruthVectors(d, ref.Truth, false)
	tr.End(sp)

	dm := tr.Begin("clustering.distmatrix", op, root)
	if packed, ok := clustering.PackBinary(tv.Vectors); ok {
		clustering.NewDistMatrixPacked(packed)
	}
	tr.End(dm)

	sp = tr.Begin("clustering.kselect", op, root)
	part, sil, explored, err := t.SelectPartition(ctx, tv, d.NumAttrs())
	tr.End(sp)
	tr.Exclude(sp, dm)
	if err != nil {
		return nil, err
	}

	out := &replayed{probed: len(explored)}
	// merge is RunOnPartition's time minus its group replicas'. A forced
	// GC before each side, outside any layer span, keeps either side
	// from paying for the other's garbage.
	var groupSpans []int
	runtime.GC()
	for _, group := range part {
		sp := tr.Begin("truthdata.project", op, root)
		sub, _ := d.Project(group)
		tr.End(sp)
		groupSpans = append(groupSpans, sp)
		if len(sub.Claims) == 0 {
			continue
		}
		sp = tr.Begin("truthdata.group_index", op, root)
		sub.Index().Flat()
		tr.End(sp)
		groupSpans = append(groupSpans, sp)
		sp = tr.Begin("algorithms.group_run", op, root)
		gr, err := algorithms.DiscoverContext(ctx, base, sub)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		groupSpans = append(groupSpans, sp)
		out.groupIters += gr.Iterations
	}
	runtime.GC()
	mg := tr.Begin("core.merge", op, root)
	res, err := core.RunOnPartition(base, d, part)
	tr.End(mg)
	tr.Exclude(mg, groupSpans...)
	tr.End(root)
	if err != nil {
		return nil, err
	}

	out.res = &tdac.Result{Truth: res.Truth, Confidence: res.Confidence, Trust: res.Trust,
		Partition: part, Silhouette: sil}
	out.self = map[string]float64{}
	spans := tr.OpSpans(op)
	selfs := selfTimes(spans)
	for _, s := range spans {
		if s.ID == root {
			out.wall = ms(s.Duration())
			continue
		}
		out.self[s.Name] += ms(selfs[s.ID])
		if s.ID == mg {
			out.baseRuns = ms(s.Duration())
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
