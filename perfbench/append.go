package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"tdac"
	"tdac/client"
	"tdac/internal/truthdata"
)

// append-sync: one closed-loop client sends requests straight to a
// WAL-backed tdacd. Each op appends a claim batch from a new source to
// one of the datasets (round-robin), then runs an incremental discover
// on the new version and reads the result. Batches are small, so each
// dataset grows by a few percent over a run and per-op cost does not
// drift.
const (
	// appendObjects is how many objects each new source claims about,
	// on every attribute (30 claims on the paper's 6 attributes).
	appendObjects = 5
	// appendAccuracy is the share of a new source's claims that carry
	// the true value; the rest carry a value of its own.
	appendAccuracy = 0.8
	// incrBase is F and the reference of the incremental discover: the
	// incremental state requires a MajorityVote reference.
	incrBase   = "MajorityVote"
	pollAppend = 2 * time.Millisecond
	// appendRetainJobs is tdacd's finished-job history (-max-jobs). A
	// retained job pins its dataset version, so a long history would make
	// the shard's memory grow with the op count.
	appendRetainJobs = 8
)

func incrRequest() client.DiscoverRequest {
	return client.DiscoverRequest{Algorithm: incrBase, Reference: incrBase, Seed: ptr(int64(kmeansSeed)), Incremental: true}
}

// incrOracleOpts is the cold run an incremental result must equal.
func incrOracleOpts() []tdac.Option {
	return []tdac.Option{tdac.WithBase(incrBase), tdac.WithReference(incrBase), tdac.WithSeed(kmeansSeed)}
}

// appendOp is one append-sync op as the window saw it. The oracle
// checks it after the window.
type appendOp struct {
	ds        int
	batch     []client.Claim
	res       *waited
	appendLat float64 // POST of the batch
	fresh     float64 // start of the append to the decoded result
	walBytes  float64
	err       error // the op failed in the window or the oracle
	precision float64
}

func runAppendSync(r *run) error {
	ins, err := paperDS(r.seed, 1)
	if err != nil {
		return err
	}
	var loadFlags []string
	replicas := make([]*tdac.Dataset, len(ins))
	for i, in := range ins {
		claims, truth, err := in.write(r.dir)
		if err != nil {
			return err
		}
		loadFlags = append(loadFlags, "-load", in.Name+"="+claims, "-truth", in.Name+"="+truth)
		if replicas[i], err = in.load(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	hc := newHTTPClient()
	walDir := func(rep int) string { return filepath.Join(r.dir, fmt.Sprintf("wal-%d", rep)) }
	flags := func(rep int) []string {
		return append([]string{"-workers", "1", "-max-jobs", fmt.Sprint(appendRetainJobs), "-data-dir", walDir(rep)}, loadFlags...)
	}
	// Set-up includes priming each dataset's incremental state: the
	// first incremental discover of a dataset is a cold run.
	prime := func(d *daemons) error {
		for _, in := range ins {
			if _, err := submitAndWait(ctx, hc, d.shardURL, in.Name, incrRequest()); err != nil {
				return fmt.Errorf("priming %s: %w", in.Name, err)
			}
		}
		return nil
	}
	d, setup, err := r.setUp(hc, flags, false, prime)
	if err != nil {
		return err
	}
	defer d.stop()
	wal := walDir(setupReps - 1)
	r.logf("append-sync: WAL-backed shard up, %d datasets primed; measuring %s", len(ins), r.window)

	before, err := snapshotServer(ctx, hc, d)
	if err != nil {
		return err
	}
	var tr *Tracer
	if r.trace {
		tr = NewTracer()
	}
	layers := map[string][]float64{}
	var unattributed []float64
	var ops []*appendOp
	rng := rand.New(rand.NewSource(r.seed))
	deadline := time.Now().Add(r.window)
	for op := 0; time.Now().Before(deadline); op++ {
		di := op % len(ins)
		batch := newBatch(rng, replicas[di], op)
		r.res.Attempted++
		walBefore, err := dirBytes(wal)
		if err != nil {
			return err
		}
		t0 := time.Now()
		ex, err := do(ctx, hc, http.MethodPost, d.shardURL+"/v1/datasets/"+ins[di].Name+"/claims", mustJSON(map[string]any{"claims": batch}))
		tAppend := time.Now()
		if err == nil && ex.status != http.StatusOK {
			err = fmt.Errorf("append: status %d: %s", ex.status, ex.body)
		}
		if err != nil {
			// The dataset did not change; its later ops still check.
			r.fail("%v", err)
			continue
		}
		walAfter, err := dirBytes(wal)
		if err != nil {
			return err
		}
		o := &appendOp{ds: di, batch: batch, appendLat: ms(tAppend.Sub(t0)), walBytes: float64(walAfter - walBefore)}
		ops = append(ops, o)
		if o.res, o.err = submitAndWait(ctx, hc, d.shardURL, ins[di].Name, incrRequest()); o.err != nil {
			o.err = fmt.Errorf("incremental discover on %s: %w", ins[di].Name, o.err)
			continue
		}
		o.fresh = ms(o.res.decoded.Sub(t0))
		if tr == nil {
			continue
		}
		res := o.res
		root := tr.Add("op", op, -1, t0, res.decoded)
		tr.Add("client.append", op, root, t0, tAppend)
		tr.Add("server.submit", op, root, res.sent, res.acked)
		if j := res.job; j.Started != nil && j.Finished != nil {
			tr.Add("server.queue_wait", op, root, j.Enqueued, *j.Started)
			tr.Add("server.run", op, root, *j.Started, *j.Finished)
		}
		tr.Add("server.render", op, root, res.final.wrote, res.final.firstByte)
		tr.Add("server.transfer", op, root, res.final.firstByte, res.final.lastByte)
		tr.Add("client.decode", op, root, res.decodeStart, res.decoded)
		unattributed = append(unattributed, r.addOpLayers(tr, op, layers))
	}
	after, err := snapshotServer(ctx, hc, d)
	if err != nil {
		return err
	}
	r.logf("append-sync: %d ops in the window; checking each against a cold run of its version", len(ops))
	if err := checkAppends(replicas, ops); err != nil {
		return err
	}
	var fresh, appendLat, prec, walBytes, polls, bytes, queueWait, run []float64
	var ds []string
	for i, o := range ops {
		if o.err != nil {
			r.fail("%s, op %d: %v", ins[o.ds].Name, i, o.err)
			continue
		}
		fresh = append(fresh, o.fresh)
		ds = append(ds, ins[o.ds].Name)
		appendLat = append(appendLat, o.appendLat)
		prec = append(prec, o.precision)
		walBytes = append(walBytes, o.walBytes)
		polls = append(polls, float64(o.res.polls))
		bytes = append(bytes, float64(len(o.res.final.body)))
		if j := o.res.job; j.Started != nil && j.Finished != nil {
			queueWait = append(queueWait, ms(j.Started.Sub(j.Enqueued)))
			run = append(run, ms(j.Finished.Sub(*j.Started)))
		}
	}
	if r.trace {
		for _, name := range []string{"server.submit", "server.render", "server.transfer", "client.decode"} {
			r.layerTiming(name, layers[name])
		}
		r.layerTiming("client.append", appendLat)
		r.layerTiming("server.queue_wait", queueWait)
		r.layerTiming("server.run", run)
		r.layerValue("server.polls_per_job", "count", polls)
		r.layerValue("server.result_bytes", "bytes", bytes)
		r.layerValue("wal.bytes_per_append", "bytes", walBytes)
		r.layerValue("trace.unattributed_ratio", "ratio", unattributed)
		r.setServerPhases(before, after)
		setServedOverhead(r)
		return writeTrace(r, tr)
	}
	r.latency("op", fresh, ds)
	r.set("setup_s", "s", median(setup), fmt.Sprintf("median of %d starts of a WAL-backed shard, %d datasets loaded and primed", len(setup), len(ins)))
	rss, err := peakRSSMiB(d.shard.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", "MiB", rss, "tdacd shard")
	r.set("alloc_mib_per_op", "MiB", (after.alloc-before.alloc)/float64(r.res.Attempted)/(1<<20), fmt.Sprintf("tdacd shard, over %d ops", r.res.Attempted))
	r.setOutcomes(prec)
	return nil
}

// checkAppends is append-sync's oracle, run after the window: it
// rebuilds each dataset's versions op by op and compares every op's
// result with a cold run of its version, recording a mismatch in the
// op's err. Datasets are independent, so they are checked in parallel.
func checkAppends(replicas []*tdac.Dataset, ops []*appendOp) error {
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for di := range replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := replicas[di]
			for _, o := range ops {
				if o.ds != di {
					continue
				}
				var err error
				if d, err = appendLocal(d, o.batch); err != nil {
					errs[di] = err
					return
				}
				if o.err != nil {
					continue
				}
				if o.err = checkIncremental(d, o.res.job); o.err == nil {
					o.precision = tdac.Evaluate(d, truthOf(d, o.res.job)).Precision
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newBatch draws the claims of a new source about appendObjects
// objects, on every attribute.
func newBatch(rng *rand.Rand, d *tdac.Dataset, op int) []client.Claim {
	src := fmt.Sprintf("appended-%d", op)
	var out []client.Claim
	for _, o := range rng.Perm(d.NumObjects())[:appendObjects] {
		for a := range d.Attrs {
			cell := tdac.Cell{Object: tdac.ObjectID(o), Attr: tdac.AttrID(a)}
			v := d.Truth[cell]
			if rng.Float64() >= appendAccuracy || v == "" {
				v = fmt.Sprintf("%s-value-%d", src, rng.Intn(3))
			}
			out = append(out, client.Claim{Source: src, Object: d.ObjectName(cell.Object), Attribute: d.AttrName(cell.Attr), Value: v})
		}
	}
	return out
}

// appendLocal builds the dataset version the server builds for the
// same batch, through the same builder sequence (copy-on-append), so
// the cold oracle runs on an identical dataset.
func appendLocal(base *tdac.Dataset, batch []client.Claim) (*tdac.Dataset, error) {
	b := truthdata.NewBuilder(base.Name)
	for _, s := range base.Sources {
		b.Source(s)
	}
	for _, o := range base.Objects {
		b.Object(o)
	}
	for _, a := range base.Attrs {
		b.Attr(a)
	}
	for _, c := range base.Claims {
		b.ClaimIDs(c.Source, c.Object, c.Attr, c.Value)
	}
	for cell, v := range base.Truth {
		b.TruthIDs(cell.Object, cell.Attr, v)
	}
	for _, c := range batch {
		b.Claim(c.Source, c.Object, c.Attribute, c.Value)
	}
	return b.Build()
}

// checkIncremental compares an incremental job's result with a cold
// MajorityVote-reference run of the same version.
func checkIncremental(d *tdac.Dataset, job *client.Job) error {
	res, err := tdac.Discover(d.Clone(), incrOracleOpts()...)
	if err != nil {
		return fmt.Errorf("cold oracle: %w", err)
	}
	got, err := outcomeOfJob(job)
	if err != nil {
		return err
	}
	if diff := mismatch(outcomeOf(d, res), got); diff != "" {
		return fmt.Errorf("incremental result differs from the cold run: %s", diff)
	}
	return nil
}

// truthOf maps a job's truth back onto d's cells.
func truthOf(d *tdac.Dataset, job *client.Job) map[tdac.Cell]string {
	objs := make(map[string]tdac.ObjectID, len(d.Objects))
	for i, o := range d.Objects {
		objs[o] = tdac.ObjectID(i)
	}
	attrs := make(map[string]tdac.AttrID, len(d.Attrs))
	for i, a := range d.Attrs {
		attrs[a] = tdac.AttrID(i)
	}
	out := make(map[tdac.Cell]string, len(job.Result.Truth))
	for _, cv := range job.Result.Truth {
		out[tdac.Cell{Object: objs[cv.Object], Attr: attrs[cv.Attribute]}] = cv.Value
	}
	return out
}

// waited is one submitted-and-polled incremental discover.
type waited struct {
	job                  *client.Job
	sent, acked          time.Time
	final                *exchange
	decodeStart, decoded time.Time
	polls                int
}

// submitAndWait submits a discover on dataset and polls the job until
// it is terminal; a job that did not finish is an error.
func submitAndWait(ctx context.Context, hc *http.Client, base, dataset string, req client.DiscoverRequest) (*waited, error) {
	w := &waited{sent: time.Now()}
	ex, err := do(ctx, hc, http.MethodPost, base+"/v1/datasets/"+dataset+"/discover", mustJSON(req))
	w.acked = time.Now()
	if err != nil {
		return nil, err
	}
	if ex.status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", ex.status, ex.body)
	}
	acked, err := decodeJob(ex.body)
	if err != nil {
		return nil, err
	}
	for {
		ex, err := do(ctx, hc, http.MethodGet, base+"/v1/jobs/"+acked.ID, nil)
		w.polls++
		if err != nil {
			return nil, err
		}
		if ex.status != http.StatusOK {
			return nil, fmt.Errorf("poll: status %d: %s", ex.status, ex.body)
		}
		w.decodeStart = time.Now()
		job, err := decodeJob(ex.body)
		w.decoded = time.Now()
		if err != nil {
			return nil, err
		}
		if job.Terminal() {
			if job.State != "done" {
				return nil, fmt.Errorf("job %s ended %q: %s", job.ID, job.State, job.Error)
			}
			w.job, w.final = job, ex
			return w, nil
		}
		if time.Since(w.sent) > requestTimeout {
			return nil, fmt.Errorf("job %s not done after %s", job.ID, requestTimeout)
		}
		time.Sleep(pollAppend)
	}
}
