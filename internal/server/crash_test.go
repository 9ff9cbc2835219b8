package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tdac"
	"tdac/internal/fault"
	"tdac/internal/wal"
)

// The crash-recovery property: for any crash point — mid-append,
// mid-fsync, mid-compaction — a restarted server must recover every
// acknowledged dataset version bit-identically, lose no job that
// reached the queue, and keep serving. The matrix below runs one fixed
// workload under ~45 deterministic crash schedules and checks exactly
// that against an uncrashed reference run.

// pinRef names one acknowledged pin: a dataset at a version.
type pinRef struct {
	name    string
	version int
}

// crashAcks records what the workload saw acknowledged before the
// crash; only acknowledged state carries a durability promise.
type crashAcks struct {
	datasets map[string]int    // name → highest acked version
	jobs     map[string]pinRef // job ID → acked pinned version
}

// refKey indexes the reference content map.
func refKey(name string, version int) string { return fmt.Sprintf("%s@%d", name, version) }

// crashConfig is the durable server config every scenario runs under:
// fsync on every append, and a compaction threshold small enough that
// the workload compacts several times.
func crashConfig(mem *fault.Mem, f *fakeRunner) Config {
	return Config{
		Workers: 1, QueueSize: 8,
		DataDir: "data", fs: mem,
		Fsync:        wal.SyncAlways,
		CompactBytes: 512,
		Runner:       f.run,
	}
}

// runCrashWorkload drives the fixed workload against mem, tolerating
// injected failures, then simulates power loss via Restart. It returns
// the acknowledged state, the canonical bytes of every version it
// produced (complete only on an uncrashed run), the post-crash
// filesystem image, and the op count at the end of the workload.
func runCrashWorkload(t *testing.T, mem *fault.Mem) (crashAcks, map[string]string, *fault.Mem, int) {
	t.Helper()
	acks := crashAcks{datasets: map[string]int{}, jobs: map[string]pinRef{}}
	ref := map[string]string{}
	f := newFakeRunner()

	s, err := New(crashConfig(mem, f))
	if err != nil {
		// The crash hit during Open; nothing was acknowledged.
		return acks, ref, mem.Restart(fault.Config{}), mem.Ops()
	}

	create := func(name string) {
		if err := s.Registry().Create(name, smallDataset(t, name)); err != nil {
			return
		}
		snap, err := s.Registry().Get(name)
		if err != nil {
			t.Fatalf("created dataset %q unreadable: %v", name, err)
		}
		acks.datasets[name] = snap.Version
		ref[refKey(name, snap.Version)] = canonicalJSON(t, snap.Data)
	}
	ingest := func(name, source string) {
		snap, err := s.Registry().Append(name, []ClaimInput{
			{Source: source, Object: "o1", Attribute: "colour", Value: "red"},
			{Source: source, Object: "o2", Attribute: "size", Value: "10"},
		}, nil)
		if err != nil {
			return
		}
		acks.datasets[name] = snap.Version
		ref[refKey(name, snap.Version)] = canonicalJSON(t, snap.Data)
	}
	submit := func(name, key string) {
		j, err := submitDiscover(t, s, name, discoverRequest{Key: key})
		if err != nil {
			return
		}
		acks.jobs[j.ID] = pinRef{name: j.Spec.Snapshot.Dataset, version: j.Spec.Snapshot.Version}
	}

	// The fixed workload: interleaved creates, ingests and submits, with
	// job A pinned at a version that stops being the latest, so recovery
	// must resurrect a historical snapshot.
	create("alpha")
	ingest("alpha", "s10")
	create("beta")
	submit("alpha", "job-a")
	ingest("alpha", "s11")
	ingest("beta", "s12")
	submit("beta", "job-b")
	create("gamma")
	submit("gamma", "job-c")
	ingest("alpha", "s13")
	ingest("beta", "s14")

	ops := mem.Ops()
	// Power loss first, then tear down the dead server: restarting before
	// Shutdown keeps the drain's cancellation journaling off the durable
	// image, exactly as a real crash would.
	image := mem.Restart(fault.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
	return acks, ref, image, ops
}

// assertRecovered reopens the durable image and checks the crash
// property against the reference content map.
func assertRecovered(t *testing.T, image *fault.Mem, acks crashAcks, ref map[string]string) {
	t.Helper()
	f := newFakeRunner()
	s, err := New(crashConfig(image, f))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// Every acknowledged dataset version survived, and whatever version
	// was recovered (acked, or an un-acked record the torn tail happened
	// to preserve) is bit-identical to the reference run's bytes.
	for name, acked := range acks.datasets {
		snap, err := s.Registry().Get(name)
		if err != nil {
			t.Fatalf("acked dataset %q lost: %v", name, err)
		}
		if snap.Version < acked {
			t.Fatalf("dataset %q recovered at v%d, acked v%d", name, snap.Version, acked)
		}
		want, ok := ref[refKey(name, snap.Version)]
		if !ok {
			t.Fatalf("dataset %q recovered at v%d, a version the reference run never produced", name, snap.Version)
		}
		if canonicalJSON(t, snap.Data) != want {
			t.Fatalf("dataset %q v%d is not bit-identical to the reference", name, snap.Version)
		}
	}

	// Every job that was acknowledged is still there, re-enqueued with
	// its pinned snapshot intact — even when the pin is no longer the
	// dataset's latest version.
	for id, pin := range acks.jobs {
		j, err := s.Engine().Get(id)
		if err != nil {
			t.Fatalf("acked job %s lost: %v", id, err)
		}
		if st := j.State(); st != JobQueued && st != JobRunning {
			t.Fatalf("recovered job %s in state %s, want queued or running", id, st)
		}
		got := j.Spec.Snapshot
		if got.Dataset != pin.name || got.Version != pin.version {
			t.Fatalf("job %s pinned to %s@%d, want %s@%d", id, got.Dataset, got.Version, pin.name, pin.version)
		}
		if canonicalJSON(t, got.Data) != ref[refKey(pin.name, pin.version)] {
			t.Fatalf("job %s pinned snapshot is not bit-identical", id)
		}
	}

	// The recovered server keeps accepting durable writes.
	if err := s.Registry().Create("post-recovery", nil); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
	gen2Job, err := submitDiscover(t, s, "post-recovery", discoverRequest{})
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	gen2, err := s.Registry().Append("post-recovery", []ClaimInput{
		{Source: "s2", Object: "o9", Attribute: "colour", Value: "blue"},
	}, nil)
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	gen2JSON := canonicalJSON(t, gen2.Data)

	// Second generation: state the *recovered* server acknowledged must
	// survive another crash. A regression here is the unsealed-tail bug,
	// where each restart stranded the previous generation's segment
	// unsealed mid-log and the next recovery dropped everything after it.
	image2 := image.Restart(fault.Config{})
	{
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
	}
	s3, err := New(crashConfig(image2, newFakeRunner()))
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s3.Shutdown(ctx)
	}()
	snap, err := s3.Registry().Get("post-recovery")
	if err != nil {
		t.Fatalf("second-generation dataset lost: %v", err)
	}
	if snap.Version != gen2.Version || canonicalJSON(t, snap.Data) != gen2JSON {
		t.Fatalf("second-generation append not recovered bit-identically (v%d, want v%d)",
			snap.Version, gen2.Version)
	}
	if _, err := s3.Engine().Get(gen2Job.ID); err != nil {
		t.Fatalf("second-generation job %s lost: %v", gen2Job.ID, err)
	}
	for name, acked := range acks.datasets {
		snap, err := s3.Registry().Get(name)
		if err != nil {
			t.Fatalf("dataset %q lost in second recovery: %v", name, err)
		}
		if snap.Version < acked {
			t.Fatalf("dataset %q at v%d after second recovery, acked v%d", name, snap.Version, acked)
		}
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	// Reference run: no injection. Its ref map holds the canonical bytes
	// of every version the deterministic workload can produce, and its
	// own recovery doubles as the clean-restart scenario.
	refAcks, ref, refImage, totalOps := runCrashWorkload(t, fault.NewMem(fault.Config{}))
	if len(refAcks.datasets) != 3 || len(refAcks.jobs) != 3 {
		t.Fatalf("reference run acked %d datasets / %d jobs, want 3 / 3",
			len(refAcks.datasets), len(refAcks.jobs))
	}
	t.Run("clean-restart", func(t *testing.T) { assertRecovered(t, refImage, refAcks, ref) })

	// Op-counted crash schedules spread across the workload's whole
	// lifetime (mid-append torn writes, mid-fsync, mid-rename — whatever
	// the Nth mutating op happens to be), each with its own torn-tail
	// seed. The worker journals the job it picks up concurrently with the
	// workload, so the run's op count varies with scheduling (97 or 99
	// ops). The schedule is therefore fixed rather than derived from
	// totalOps: it is the union of the even 20-point spreads over both
	// lengths, so every run covers the same crash points under the same
	// subtest names. A point past the end of a shorter run degrades to a
	// clean run, which must also pass.
	if totalOps < 20 {
		t.Fatalf("workload performed only %d FS ops; matrix needs a longer run", totalOps)
	}
	opSchedule := []int{
		1, 6, 11, 16, 21, 26, 31, 36, 37, 41, 42, 46, 47, 51, 52, 56, 57,
		61, 62, 66, 68, 71, 73, 76, 78, 81, 83, 86, 88, 91, 93, 97, 99,
	}
	for i, n := range opSchedule {
		t.Run(fmt.Sprintf("op-%03d", n), func(t *testing.T) {
			mem := fault.NewMem(fault.Config{Seed: int64(1000 + i), CrashAfterOps: n})
			acks, _, image, _ := runCrashWorkload(t, mem)
			assertRecovered(t, image, acks, ref)
		})
	}

	// Named crash points target the durability-critical instants the op
	// counter might miss. Points the workload never reaches (late hit
	// counts) degrade to clean runs, which must also pass.
	named := []struct {
		point string
		hit   int
	}{
		{"wal.append.write", 1},
		{"wal.append.write", 5},
		{"wal.append.sync", 1},
		{"wal.append.sync", 7},
		{"wal.rotate.create", 1},
		{"wal.compact.write", 1},
		{"wal.compact.sync", 1},
		{"wal.compact.rename", 1},
		{"wal.compact.rename", 2},
		{"wal.compact.cleanup", 1},
	}
	for _, sc := range named {
		t.Run(fmt.Sprintf("%s-hit%d", sc.point, sc.hit), func(t *testing.T) {
			mem := fault.NewMem(fault.Config{Seed: int64(sc.hit), CrashAt: sc.point, CrashAtHit: sc.hit})
			acks, _, image, _ := runCrashWorkload(t, mem)
			assertRecovered(t, image, acks, ref)
		})
	}

	// Crash inside the incremental-state sidecar save (between the
	// payload write and its sync). The sidecar is a best-effort cache:
	// the in-flight job must still complete, and after power loss the
	// recovered server must discard the torn sidecar, prime cold, and
	// produce results bit-identical to a from-scratch discovery.
	t.Run("incr-state-write", func(t *testing.T) {
		mem := fault.NewMem(fault.Config{Seed: 7, CrashAt: "incr.state.write", CrashAtHit: 1})
		// Real runner (run=nil): the crash point only fires on the real
		// incremental path.
		s, err := New(Config{Workers: 1, QueueSize: 8, DataDir: "data", fs: mem, Fsync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := s.Registry().Create("incr", smallDataset(t, "incr")); err != nil {
			t.Fatal(err)
		}
		j, err := submitDiscover(t, s, "incr", discoverRequest{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, JobDone) // the save is best-effort; the crash must not fail the job
		image := mem.Restart(fault.Config{})
		{
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_ = s.Shutdown(ctx)
		}

		s2, err := New(Config{Workers: 1, QueueSize: 8, DataDir: "data", fs: image, Fsync: wal.SyncAlways})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = s2.Shutdown(ctx)
		}()
		snap, err := s2.Registry().Get("incr")
		if err != nil {
			t.Fatalf("dataset lost: %v", err)
		}
		j2, err := submitDiscover(t, s2, "incr", discoverRequest{Incremental: true})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j2, JobDone)
		outcome, errMsg := j2.Outcome()
		if errMsg != "" || outcome == nil || outcome.TDAC == nil {
			t.Fatalf("post-recovery incremental job failed: %q", errMsg)
		}
		cold, err := tdac.Discover(snap.Data, tdac.WithReference("MajorityVote"))
		if err != nil {
			t.Fatal(err)
		}
		// Wall-clock runtime is the one legitimately nondeterministic
		// field; everything else must match bit for bit. The engine still
		// owns outcome (its event hub renders it), so zero a copy.
		warm := *outcome.TDAC
		warm.Runtime, cold.Runtime = 0, 0
		got, err := encodeJSON(renderOutcome(snap.Data, &JobOutcome{TDAC: &warm}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeJSON(renderOutcome(snap.Data, &JobOutcome{TDAC: cold}))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("post-crash incremental result diverges from a cold run:\n%s\nvs\n%s", got, want)
		}
	})

	// Failover scenarios extend the crash property across the replication
	// boundary (DESIGN.md §14). A follower's durability promise is its
	// watermark: everything a completed sync round shipped must survive a
	// primary crash and be served bit-identically by the promoted server;
	// the follower's own mirror writes must be crash-atomic; and a crash
	// inside promotion itself must leave a mirror a retry can promote.

	t.Run("failover-primary-mid-append", func(t *testing.T) {
		// The primary dies on a torn append strictly after a replication
		// round; the promoted follower serves exactly the watermark state.
		mem := fault.NewMem(fault.Config{Seed: 21, CrashAt: "wal.append.write", CrashAtHit: 8})
		primary, err := New(crashConfig(mem, newFakeRunner()))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(primary.Handler())
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_ = primary.Shutdown(ctx)
		}()

		if err := primary.Registry().Create("alpha", smallDataset(t, "alpha")); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.Registry().Append("alpha", []ClaimInput{
			{Source: "s10", Object: "o1", Attribute: "colour", Value: "red"},
		}, nil); err != nil {
			t.Fatal(err)
		}
		if err := primary.Registry().Create("beta", smallDataset(t, "beta")); err != nil {
			t.Fatal(err)
		}
		job, err := submitDiscover(t, primary, "alpha", discoverRequest{Key: "job-a"})
		if err != nil {
			t.Fatal(err)
		}
		pin := job.Spec.Snapshot

		promotedRunner := newFakeRunner()
		fol, err := NewFollower(FollowerConfig{
			Primary: ts.URL, Dir: t.TempDir(), Poll: time.Hour,
			Serve: Config{Workers: 1, QueueSize: 8, Runner: promotedRunner.run},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = fol.Close(ctx)
		}()
		if err := fol.SyncOnce(); err != nil {
			t.Fatalf("sync before crash: %v", err)
		}
		wantAlpha := mustGet(t, primary.Registry(), "alpha")
		wantBeta := mustGet(t, primary.Registry(), "beta")
		wantAlphaJSON := canonicalJSON(t, wantAlpha.Data)
		wantBetaJSON := canonicalJSON(t, wantBeta.Data)

		// Appends past the watermark, until one dies mid-write. Nothing
		// here was shipped, so nothing here is promised.
		crashed := false
		for i := 0; i < 10 && !crashed; i++ {
			_, err := primary.Registry().Append("alpha", []ClaimInput{
				{Source: fmt.Sprintf("s2%d", i), Object: "o1", Attribute: "colour", Value: "blue"},
			}, nil)
			crashed = err != nil
		}
		if !crashed {
			t.Fatal("primary never crashed mid-append")
		}
		ts.CloseClientConnections()
		ts.Close()

		promoted, err := fol.Promote()
		if err != nil {
			t.Fatalf("promoting after primary crash: %v", err)
		}
		got := mustGet(t, promoted.Registry(), "alpha")
		if got.Version != wantAlpha.Version || canonicalJSON(t, got.Data) != wantAlphaJSON {
			t.Fatalf("promoted alpha at v%d, want the watermark v%d bit-identical", got.Version, wantAlpha.Version)
		}
		got = mustGet(t, promoted.Registry(), "beta")
		if got.Version != wantBeta.Version || canonicalJSON(t, got.Data) != wantBetaJSON {
			t.Fatalf("promoted beta at v%d, want the watermark v%d bit-identical", got.Version, wantBeta.Version)
		}
		j, err := promoted.Engine().Get(job.ID)
		if err != nil {
			t.Fatalf("acked job %s lost across failover: %v", job.ID, err)
		}
		if st := j.State(); st != JobQueued && st != JobRunning {
			t.Fatalf("failed-over job %s in state %s, want queued or running", job.ID, st)
		}
		if j.Spec.Snapshot.Dataset != pin.Dataset || j.Spec.Snapshot.Version != pin.Version {
			t.Fatalf("failed-over job pinned to %s@%d, want %s@%d",
				j.Spec.Snapshot.Dataset, j.Spec.Snapshot.Version, pin.Dataset, pin.Version)
		}
	})

	// The follower crashes mid-segment-ship — before the tmp write, and
	// between the durable tmp and its rename. Both leave a mirror the
	// restarted follower resyncs into a bit-identical registry.
	for _, sc := range []struct {
		point string
		hit   int
	}{
		{"follower.mirror.write", 1},
		{"follower.mirror.rename", 1},
	} {
		t.Run(fmt.Sprintf("failover-%s-hit%d", sc.point, sc.hit), func(t *testing.T) {
			primary, err := New(Config{Workers: 1, QueueSize: 8, DataDir: t.TempDir(), Runner: newFakeRunner().run})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdownServer(t, primary)
			ts := httptest.NewServer(primary.Handler())
			defer ts.Close()
			if err := primary.Registry().Create("alpha", smallDataset(t, "alpha")); err != nil {
				t.Fatal(err)
			}
			if err := primary.Registry().Create("beta", smallDataset(t, "beta")); err != nil {
				t.Fatal(err)
			}

			mem := fault.NewMem(fault.Config{Seed: int64(sc.hit), CrashAt: sc.point, CrashAtHit: sc.hit})
			fol, err := NewFollower(FollowerConfig{
				Primary: ts.URL, Dir: "mirror", Poll: time.Hour, FS: mem,
				Serve: Config{Workers: 1, QueueSize: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := fol.SyncOnce(); err == nil {
				t.Fatal("sync survived an injected mirror crash")
			}
			{
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_ = fol.Close(ctx)
				cancel()
			}

			// Power loss on the follower box, then a fresh follower over the
			// surviving mirror image: the next round must converge.
			image := mem.Restart(fault.Config{})
			fol2, err := NewFollower(FollowerConfig{
				Primary: ts.URL, Dir: "mirror", Poll: time.Hour, FS: image,
				Serve: Config{Workers: 1, QueueSize: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				_ = fol2.Close(ctx)
			}()
			if err := fol2.SyncOnce(); err != nil {
				t.Fatalf("resync after mirror crash: %v", err)
			}
			assertRegistriesIdentical(t, fol2.Registry(), primary.Registry())
		})
	}

	t.Run("failover-crash-mid-promotion", func(t *testing.T) {
		// Promotion itself crashes while recovering the mirrored WAL. The
		// mirror is read-only input to promotion, so a retry on the
		// restarted image must succeed and serve every shipped dataset.
		primary, err := New(Config{Workers: 1, QueueSize: 8, DataDir: t.TempDir(), Runner: newFakeRunner().run})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(primary.Handler())
		if err := primary.Registry().Create("alpha", smallDataset(t, "alpha")); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.Registry().Append("alpha", []ClaimInput{
			{Source: "s30", Object: "o1", Attribute: "colour", Value: "red"},
		}, nil); err != nil {
			t.Fatal(err)
		}
		wantAlpha := mustGet(t, primary.Registry(), "alpha")
		wantAlphaJSON := canonicalJSON(t, wantAlpha.Data)

		mem := fault.NewMem(fault.Config{})
		fol, err := NewFollower(FollowerConfig{
			Primary: ts.URL, Dir: "mirror", Poll: time.Hour, FS: mem,
			Serve: Config{Workers: 1, QueueSize: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.SyncOnce(); err != nil {
			t.Fatal(err)
		}
		{
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = fol.Close(ctx)
			cancel()
		}
		ts.CloseClientConnections()
		ts.Close()
		shutdownServer(t, primary)

		// Arm the crash on the mirror image: the first mutating op of the
		// promotion's recovery (reopening the mirrored tail for append)
		// kills the box mid-promotion.
		armed := mem.Restart(fault.Config{Seed: 31, CrashAfterOps: 2})
		fol2, err := NewFollower(FollowerConfig{
			Primary: ts.URL, Dir: "mirror", Poll: time.Hour, FS: armed,
			Serve: Config{Workers: 1, QueueSize: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fol2.Promote(); err == nil {
			t.Fatal("promotion survived an injected crash mid-recovery")
		}
		{
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = fol2.Close(ctx)
			cancel()
		}

		// Retry on the post-crash image: promotion completes and serves the
		// shipped state bit-identically.
		image := armed.Restart(fault.Config{})
		fol3, err := NewFollower(FollowerConfig{
			Primary: ts.URL, Dir: "mirror", Poll: time.Hour, FS: image,
			Serve: Config{Workers: 1, QueueSize: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = fol3.Close(ctx)
		}()
		promoted, err := fol3.Promote()
		if err != nil {
			t.Fatalf("retried promotion failed: %v", err)
		}
		got := mustGet(t, promoted.Registry(), "alpha")
		if got.Version != wantAlpha.Version || canonicalJSON(t, got.Data) != wantAlphaJSON {
			t.Fatalf("retried promotion serves alpha at v%d, want v%d bit-identical", got.Version, wantAlpha.Version)
		}
	})
}

// TestShutdownRacesCompaction is the S3 satellite: SIGTERM-style
// shutdown while appends are forcing compactions must leave a log the
// next boot can recover — no torn snapshot install, no lost acked
// version. Run under -race this also exercises the store's locking.
func TestShutdownRacesCompaction(t *testing.T) {
	dir := t.TempDir()
	f := newFakeRunner()
	s, err := New(Config{
		Workers: 1, QueueSize: 8,
		DataDir:      dir,
		Fsync:        wal.SyncNever, // maximize in-flight unsynced state at shutdown
		CompactBytes: 256,           // every few appends trigger a compaction
		Runner:       f.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Create("d", smallDataset(t, "d")); err != nil {
		t.Fatal(err)
	}

	// Hammer ingests from several goroutines while the main goroutine
	// shuts the server down mid-flight.
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked int
	)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := s.Registry().Append("d", []ClaimInput{
					{Source: fmt.Sprintf("g%d-%d", g, i), Object: "o1", Attribute: "colour", Value: "red"},
				}, nil)
				if err != nil {
					return // shutdown closed the store underneath us
				}
				mu.Lock()
				acked++
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond) // let compactions get in flight
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()
	if acked == 0 {
		t.Fatal("no append was acknowledged before shutdown; race window missed")
	}

	// The interrupted log must recover: New succeeds, the dataset is
	// back, and — since Close flushes — nothing acked is missing.
	s2, err := New(Config{Workers: 1, QueueSize: 8, DataDir: dir, Runner: newFakeRunner().run})
	if err != nil {
		t.Fatalf("recovery after racing shutdown: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	snap, err := s2.Registry().Get("d")
	if err != nil {
		t.Fatalf("dataset lost across racing shutdown: %v", err)
	}
	// Version 1 was the create; every acked append bumped it once. Claims
	// acked strictly before Close returned must all be present.
	if got := snap.Version; got < acked {
		t.Fatalf("recovered version %d < %d acked appends", got, acked)
	}
	if rec := s2.Recovered(); rec.Truncated {
		t.Fatal("clean (if raced) shutdown left a truncated log")
	}
	if s2.Store().Stats().Compactions != 0 {
		// Not an assertion — just ensure the recovered log still compacts.
		t.Log("recovered store already compacted")
	}
}
