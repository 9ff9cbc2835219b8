package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"tdac"
	"tdac/client"
)

// serve-open: an open loop, client -> tdac-router -> one tdacd shard.
// Discover jobs arrive as a seeded Poisson stream at a fixed rate; the
// client polls each job to its terminal state, and re-reads finished
// jobs' results at a fixed rate. The rates are constants, never derived
// from measured capacity.
const (
	serveRate   = 2.0 // Discover jobs per second
	rereadRate  = 2.0 // GETs of finished jobs per second
	pollEvery   = 20 * time.Millisecond
	drainWithin = 30 * time.Second
	// serveVariants is how many generated copies of each of DS1-3 the
	// shard holds.
	serveVariants = 2
	// retainJobs is tdacd's finished-job history (-max-jobs); re-reads
	// pick among the last rereadRecent finished jobs, which it retains.
	retainJobs   = 64
	rereadRecent = 16
	// shardWorkers is tdacd's worker-pool size: one per core of the
	// two-core reference machine.
	shardWorkers = 2
)

// serveRequest is the Discover job of serve-open: the direct
// workloads' configuration (F = Accu, k-means seed 1, exhaustive k).
func serveRequest() client.DiscoverRequest {
	return client.DiscoverRequest{Algorithm: directBase, Seed: ptr(int64(kmeansSeed))}
}

// serveJob is one submitted Discover job as the load generator saw it.
type serveJob struct {
	op      int
	ds      int
	id      string
	due     time.Time
	sent    time.Time
	acked   time.Time
	polls   int
	decoded time.Time
}

// serveStats collects the per-op measurements of a served run. The
// sender and the poller goroutine both write it, under mu.
type serveStats struct {
	mu                           sync.Mutex
	jobLat, lag, prec            []float64
	jobDS                        []string
	queueWait, run               []float64
	polls, resultBytes, reads    []float64
	hop                          []float64
	unattributed                 []float64
	layers                       map[string][]float64
	submits, rejected, pollCount int
	inFlight, inFlightMax        int
}

func runServeOpen(r *run) error {
	ins, err := paperDS(r.seed, serveVariants)
	if err != nil {
		return err
	}
	sets, err := oracleSets(ins, directOpts())
	if err != nil {
		return err
	}
	var loadFlags []string
	for _, in := range ins {
		claims, truth, err := in.write(r.dir)
		if err != nil {
			return err
		}
		loadFlags = append(loadFlags, "-load", in.Name+"="+claims, "-truth", in.Name+"="+truth)
	}
	admin := &http.Client{Timeout: requestTimeout}
	flags := func(int) []string {
		return append([]string{"-workers", fmt.Sprint(shardWorkers), "-max-jobs", fmt.Sprint(retainJobs)}, loadFlags...)
	}
	ready := func(d *daemons) error {
		// Preloaded datasets must be readable through the router.
		for _, in := range ins {
			if err := waitOK(admin, d.router, d.routerURL+"/v1/datasets/"+in.Name, time.Minute); err != nil {
				return err
			}
		}
		return nil
	}
	d, setup, err := r.setUp(admin, flags, true, ready)
	if err != nil {
		return err
	}
	defer d.stop()
	r.logf("serve-open: shard and router up, %d datasets preloaded; measuring %s at %.1f jobs/s", len(ins), r.window, serveRate)

	// Warm-up, untimed: one job per dataset, so every dataset's index is
	// built before the window, as on a long-running server.
	ctx := context.Background()
	for _, in := range ins {
		if _, err := submitAndWait(ctx, admin, d.routerURL, in.Name, serveRequest()); err != nil {
			return fmt.Errorf("warm-up on %s: %w", in.Name, err)
		}
	}
	before, err := snapshotServer(ctx, admin, d)
	if err != nil {
		return err
	}
	st := &serveStats{layers: map[string][]float64{}}
	var tr *Tracer
	if r.trace {
		tr = NewTracer()
	}
	sched := poissonSchedule(r.seed, serveRate, r.window, len(sets))
	reads := poissonSchedule(r.seed+1, rereadRate, r.window, 1)

	var (
		mu      sync.Mutex // guards pending and finished
		pending []*serveJob
		done    = make(chan struct{})
	)
	var finished []*serveJob
	start := time.Now().Add(50 * time.Millisecond)
	sendHC, pollHC := newHTTPClient(), newHTTPClient()

	// The sender: one goroutine, one connection, sending on schedule.
	go func() {
		defer close(done)
		for i, a := range sched {
			due := start.Add(a.At)
			time.Sleep(time.Until(due))
			j := &serveJob{op: i, ds: a.Dataset, due: due}
			j.sent = time.Now()
			body := mustJSON(serveRequest())
			ex, err := do(ctx, sendHC, http.MethodPost, d.routerURL+"/v1/datasets/"+ins[a.Dataset].Name+"/discover", body)
			j.acked = time.Now()
			st.mu.Lock()
			r.res.Attempted++
			st.submits++
			st.lag = append(st.lag, ms(j.sent.Sub(due)))
			switch {
			case err != nil:
				r.fail("submit: %v", err)
			case ex.status == http.StatusTooManyRequests || ex.status == http.StatusServiceUnavailable:
				st.rejected++
				r.fail("submit rejected: %d", ex.status)
			case ex.status != http.StatusAccepted:
				r.fail("submit: status %d: %s", ex.status, ex.body)
			default:
				acked, derr := decodeJob(ex.body)
				if derr != nil {
					r.fail("submit: %v", derr)
					break
				}
				j.id = acked.ID
				st.inFlight++
				st.inFlightMax = max(st.inFlightMax, st.inFlight)
				mu.Lock()
				pending = append(pending, j)
				mu.Unlock()
			}
			st.mu.Unlock()
		}
	}()

	// The poller: one goroutine, one connection, polling every pending
	// job each round and re-reading finished results on schedule.
	rng := rand.New(rand.NewSource(r.seed + 2))
	nextRead := 0
	senderDone := false
	var drainDeadline time.Time
	for {
		if !senderDone {
			select {
			case <-done:
				senderDone = true
				drainDeadline = time.Now().Add(drainWithin)
			default:
			}
		}
		mu.Lock()
		round := append([]*serveJob(nil), pending...)
		mu.Unlock()
		if senderDone && len(round) == 0 {
			break
		}
		if senderDone && time.Now().After(drainDeadline) {
			for range round {
				r.fail("job still pending %s after the schedule ended", drainWithin)
			}
			break
		}
		roundStart := time.Now()
		for _, j := range round {
			terminal, err := r.pollJob(ctx, pollHC, d, j, sets, st, tr)
			if err != nil || terminal {
				mu.Lock()
				for k, p := range pending {
					if p == j {
						pending = append(pending[:k], pending[k+1:]...)
						break
					}
				}
				if err == nil {
					finished = append(finished, j)
				}
				mu.Unlock()
				st.mu.Lock()
				st.inFlight--
				st.mu.Unlock()
			}
		}
		for nextRead < len(reads) && time.Since(start) >= reads[nextRead].At {
			nextRead++
			mu.Lock()
			var pick *serveJob
			if recent := finished[max(0, len(finished)-rereadRecent):]; len(recent) > 0 {
				pick = recent[rng.Intn(len(recent))]
			}
			mu.Unlock()
			if pick != nil {
				r.reread(ctx, pollHC, d, pick, sets, st, tr, nextRead%2 == 0)
			}
		}
		time.Sleep(time.Until(roundStart.Add(pollEvery)))
	}
	<-done

	after, err := snapshotServer(ctx, admin, d)
	if err != nil {
		return err
	}
	r.checkBacklog(st.jobLat)
	if r.trace {
		r.serveLayers(st, before, after)
		r.set("server.rejected_ratio", "ratio", float64(st.rejected)/float64(max(st.submits, 1)), fmt.Sprintf("%d of %d submits", st.rejected, st.submits))
		r.set("loadgen.in_flight_max", "count", float64(st.inFlightMax), "peak over the run")
		r.layerTiming("loadgen.lag", st.lag)
		r.layerTiming("cluster.router_hop", st.hop)
		r.layerTiming("client.result_read", st.reads)
		requests := float64(st.submits + st.pollCount + len(st.reads)*2)
		r.set("cluster.retries_per_request", "ratio", (after.retries-before.retries)/requests, fmt.Sprintf("over %.0f routed requests", requests))
		setServedOverhead(r)
		return writeTrace(r, tr)
	}
	r.latency("op", st.jobLat, st.jobDS)
	r.set("setup_s", "s", median(setup), fmt.Sprintf("median of %d starts of shard + router with %d datasets", len(setup), len(ins)))
	rss, err := peakRSSMiB(d.shard.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", "MiB", rss, "tdacd shard")
	jobs := after.runs - before.runs
	r.set("alloc_mib_per_op", "MiB", (after.alloc-before.alloc)/max(jobs, 1)/(1<<20), fmt.Sprintf("tdacd shard, over %.0f jobs", jobs))
	r.setOutcomes(st.prec)
	return nil
}

// pollJob GETs one pending job through the router. It reports whether
// the job reached a terminal state; an error means the op failed (and
// was counted).
func (r *run) pollJob(ctx context.Context, hc *http.Client, d *daemons, j *serveJob, sets []oracleSet, st *serveStats, tr *Tracer) (bool, error) {
	ex, err := do(ctx, hc, http.MethodGet, d.routerURL+"/v1/jobs/"+j.id, nil)
	j.polls++
	st.mu.Lock()
	st.pollCount++
	st.mu.Unlock()
	if err == nil && ex.status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", ex.status, ex.body)
	}
	var job *client.Job
	var decodeStart time.Time
	if err == nil {
		decodeStart = time.Now()
		job, err = decodeJob(ex.body)
	}
	if err != nil {
		st.mu.Lock()
		r.fail("poll %s: %v", j.id, err)
		st.mu.Unlock()
		return false, err
	}
	if !job.Terminal() {
		return false, nil
	}
	j.decoded = time.Now()
	got, err := outcomeOfJob(job)
	if err == nil {
		if diff := mismatch(sets[j.ds].want, got); diff != "" {
			err = fmt.Errorf("job %s: %s", j.id, diff)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		r.fail("%v", err)
		return true, err
	}
	st.jobLat = append(st.jobLat, ms(j.decoded.Sub(j.due)))
	st.jobDS = append(st.jobDS, sets[j.ds].d.Name)
	st.prec = append(st.prec, sets[j.ds].precision)
	st.polls = append(st.polls, float64(j.polls))
	st.resultBytes = append(st.resultBytes, float64(len(ex.body)))
	if job.Started != nil && job.Finished != nil {
		st.queueWait = append(st.queueWait, ms(job.Started.Sub(job.Enqueued)))
		st.run = append(st.run, ms(job.Finished.Sub(*job.Started)))
	}
	if tr == nil {
		return true, nil
	}
	root := tr.Add("op", j.op, -1, j.due, j.decoded)
	tr.Add("loadgen.lag", j.op, root, j.due, j.sent)
	tr.Add("server.submit", j.op, root, j.sent, j.acked)
	if job.Started != nil && job.Finished != nil {
		tr.Add("server.queue_wait", j.op, root, job.Enqueued, *job.Started)
		tr.Add("server.run", j.op, root, *job.Started, *job.Finished)
	}
	tr.Add("server.render", j.op, root, ex.wrote, ex.firstByte)
	tr.Add("server.transfer", j.op, root, ex.firstByte, ex.lastByte)
	tr.Add("client.decode", j.op, root, decodeStart, j.decoded)
	st.unattributed = append(st.unattributed, r.addOpLayers(tr, j.op, st.layers))
	return true, nil
}

// reread GETs a finished job's result through the router and checks it
// against the oracle. In a traced run it also GETs the job straight
// from the shard, before the routed GET when directFirst is set and
// after it otherwise, to measure the router hop.
func (r *run) reread(ctx context.Context, hc *http.Client, d *daemons, j *serveJob, sets []oracleSet, st *serveStats, tr *Tracer, directFirst bool) {
	var direct *exchange
	getDirect := func() error {
		var err error
		direct, err = do(ctx, hc, http.MethodGet, d.shardURL+"/v1/jobs/"+j.id, nil)
		if err == nil && direct.status != http.StatusOK {
			err = fmt.Errorf("direct status %d", direct.status)
		}
		return err
	}
	var err error
	if tr != nil && directFirst {
		err = getDirect()
	}
	var ex *exchange
	if err == nil {
		ex, err = do(ctx, hc, http.MethodGet, d.routerURL+"/v1/jobs/"+j.id, nil)
	}
	if err == nil && ex.status != http.StatusOK {
		err = fmt.Errorf("status %d", ex.status)
	}
	var decodeStart, decoded time.Time
	var job *client.Job
	if err == nil {
		decodeStart = time.Now()
		job, err = decodeJob(ex.body)
		decoded = time.Now()
	}
	var got *outcome
	if err == nil {
		got, err = outcomeOfJob(job)
	}
	if err == nil {
		if diff := mismatch(sets[j.ds].want, got); diff != "" {
			err = fmt.Errorf("%s", diff)
		}
	}
	if err == nil && tr != nil && !directFirst {
		err = getDirect()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	r.res.Attempted++
	if err != nil {
		r.fail("re-read %s: %v", j.id, err)
		return
	}
	st.prec = append(st.prec, sets[j.ds].precision)
	if tr == nil {
		return
	}
	st.reads = append(st.reads, ms(decoded.Sub(ex.sent)))
	st.hop = append(st.hop, ms(ex.lastByte.Sub(ex.sent))-ms(direct.lastByte.Sub(direct.sent)))
	op := -1 - len(st.reads) // re-reads get negative op IDs, apart from jobs
	root := tr.Add("read", op, -1, ex.sent, decoded)
	tr.Add("server.render", op, root, ex.wrote, ex.firstByte)
	tr.Add("server.transfer", op, root, ex.firstByte, ex.lastByte)
	tr.Add("client.decode", op, root, decodeStart, decoded)
	r.addOpLayers(tr, op, st.layers)
}

// setServedOverhead reports trace.overhead_ratio on a served workload.
// Its spans are built after the fact from timestamps every op records
// whether traced or not, so tracing adds no work to an op and the ratio
// is 1 by construction. (The traced run's extra GETs straight to the
// shard, for the router hop, are requests of their own, not op work.)
func setServedOverhead(r *run) {
	r.set("trace.overhead_ratio", "ratio", 1, "spans are built from timestamps every op records anyway")
}

// addOpLayers adds one op's per-layer self times to layers and returns
// the share of the op's wall time no layer accounts for.
func (r *run) addOpLayers(tr *Tracer, op int, layers map[string][]float64) float64 {
	spans := tr.OpSpans(op)
	selfs := selfTimes(spans)
	sums := map[string]float64{}
	var wall, rootSelf float64
	for _, s := range spans {
		if s.Parent < 0 {
			wall, rootSelf = ms(s.Duration()), ms(selfs[s.ID])
			continue
		}
		sums[s.Name] += ms(selfs[s.ID])
	}
	for name, v := range sums {
		layers[name] = append(layers[name], v)
	}
	if wall == 0 {
		return 0
	}
	return rootSelf / wall
}

// serveLayers reports the served path's per-layer metrics: the traced
// ops' span self times, the job timestamps, and the shard's own phase
// times over the run.
func (r *run) serveLayers(st *serveStats, before, after *serverSnapshot) {
	for _, name := range []string{"server.submit", "server.render", "server.transfer", "client.decode"} {
		r.layerTiming(name, st.layers[name])
	}
	r.layerTiming("server.queue_wait", st.queueWait)
	r.layerTiming("server.run", st.run)
	r.layerValue("server.polls_per_job", "count", st.polls)
	r.layerValue("server.result_bytes", "bytes", st.resultBytes)
	r.layerValue("trace.unattributed_ratio", "ratio", st.unattributed)
	r.setServerPhases(before, after)
}

// setServerPhases reports the shard's own mean time per run of each
// pipeline phase over the measured window, from its /metrics counters.
func (r *run) setServerPhases(before, after *serverSnapshot) {
	for _, p := range pipelinePhases {
		n := after.phaseRuns[p] - before.phaseRuns[p]
		if n > 0 {
			secs := after.phaseSecs[p] - before.phaseSecs[p]
			r.set(phaseMetric(p), "ms", secs*1000/n, fmt.Sprintf("tdacd mean over %.0f runs", n))
		}
	}
}

// checkBacklog fails the run when the backlog grew: the median latency
// of the last third of the jobs more than doubled over the first
// third's.
func (r *run) checkBacklog(lat []float64) {
	if len(lat) < 9 {
		return
	}
	n := len(lat) / 3
	first, last := median(lat[:n]), median(lat[len(lat)-n:])
	r.notes = append(r.notes, fmt.Sprintf("# backlog check: median latency first third %.1f ms, last third %.1f ms", first, last))
	if last > 2*first {
		r.res.Correct = false
		r.logf("backlog grew: median latency %.1f ms in the first third of the run, %.1f ms in the last", first, last)
	}
}

// serverSnapshot is the counters read from the daemons at the start and
// end of the measured window.
type serverSnapshot struct {
	alloc, runs          float64
	phaseSecs, phaseRuns map[string]float64
	retries              float64
}

func snapshotServer(ctx context.Context, hc *http.Client, d *daemons) (*serverSnapshot, error) {
	m, err := scrape(ctx, hc, d.shardURL+"/metrics")
	if err != nil {
		return nil, err
	}
	s := &serverSnapshot{runs: m["tdacd_runs_total"], phaseSecs: map[string]float64{}, phaseRuns: map[string]float64{}}
	for _, p := range pipelinePhases {
		s.phaseSecs[p] = m[fmt.Sprintf("tdacd_phase_seconds_total{phase=%q}", p)]
		s.phaseRuns[p] = m[fmt.Sprintf("tdacd_phase_runs_total{phase=%q}", p)]
	}
	if s.alloc, err = totalAlloc(ctx, hc, d.shardURL); err != nil {
		return nil, err
	}
	if d.router != nil {
		rm, err := scrape(ctx, hc, d.routerURL+"/metrics")
		if err != nil {
			return nil, err
		}
		s.retries = rm["tdac_router_retries_total"]
	}
	return s, nil
}

// oracleSets loads every input and runs the oracle on it.
func oracleSets(ins []input, opts []tdac.Option) ([]oracleSet, error) {
	var sets []oracleSet
	for _, in := range ins {
		d, err := in.load()
		if err != nil {
			return nil, err
		}
		s := oracleSet{d: d}
		if err := s.runOracle(opts); err != nil {
			return nil, err
		}
		sets = append(sets, s)
	}
	return sets, nil
}

func ptr[T any](v T) *T { return &v }

// arrival is one scheduled send of the open loop.
type arrival struct {
	At      time.Duration // offset from the start of the schedule
	Dataset int           // index of the target dataset
}

// poissonSchedule draws the arrivals of a Poisson process of the given
// rate (per second) over window, aimed at n datasets in turn. The
// count is fixed at rate × window, so every run offers the same load:
// given its count, a Poisson process's arrival times are independent
// and uniform over the window. The same seed gives the same schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, int(rate*window.Seconds()))
	for i := range out {
		out[i].At = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	for i := range out {
		out[i].Dataset = i % n
	}
	return out
}
