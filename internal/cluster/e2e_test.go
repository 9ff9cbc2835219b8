package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"tdac"
	"tdac/client"
	"tdac/internal/obs"
	"tdac/internal/server"
)

// blockingRunner is a controllable server.RunFunc: each run blocks
// until released (mirrors the server package's fakeRunner, which tests
// here cannot reach).
type blockingRunner struct {
	started chan string
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 8), release: make(chan struct{}, 8)}
}

func (b *blockingRunner) run(ctx context.Context, spec server.JobSpec, _ obs.EventSink) (*server.JobOutcome, error) {
	b.started <- spec.Snapshot.Dataset
	select {
	case <-b.release:
		return &server.JobOutcome{TDAC: &tdac.Result{Stats: &obs.RunStats{Total: time.Millisecond}}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func e2eClaims() []client.Claim {
	var claims []client.Claim
	for _, src := range []string{"s1", "s2", "s3"} {
		claims = append(claims,
			client.Claim{Source: src, Object: "o1", Attribute: "colour", Value: "red"},
			client.Claim{Source: src, Object: "o1", Attribute: "size", Value: "10"},
		)
	}
	return claims
}

// TestWatchSurvivesPrimaryKill is the satellite's pin: a client watches
// a running job through the router, the primary is killed mid-stream,
// the follower is promoted — and because every reconnect re-resolves
// its target from the router instead of reusing the resolved primary
// URL, the watcher still delivers the job's terminal event.
func TestWatchSurvivesPrimaryKill(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	primaryRunner := newBlockingRunner()
	primary, err := server.New(server.Config{
		Workers: 1, QueueSize: 8, DataDir: t.TempDir(),
		ShardID: "s0", Runner: primaryRunner.run,
	})
	if err != nil {
		t.Fatal(err)
	}
	primaryTS := httptest.NewServer(primary.Handler())

	promotedRunner := newBlockingRunner()
	fol, err := server.NewFollower(server.FollowerConfig{
		Primary: primaryTS.URL,
		Dir:     t.TempDir(),
		Poll:    time.Hour, // replication driven explicitly below
		Serve: server.Config{
			Workers: 1, QueueSize: 8,
			ShardID: "s0", Runner: promotedRunner.run,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		closeCtx, closeCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer closeCancel()
		_ = fol.Close(closeCtx)
	})
	folTS := httptest.NewServer(fol.Handler())
	defer folTS.Close()

	rt := newTestRouter(t, []Member{{ID: "s0", URL: primaryTS.URL, Follower: folTS.URL}})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	c, err := client.New(front.URL, client.WithRetry(client.Retry{
		MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.CreateDataset(ctx, "watched"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, "watched", e2eClaims(), nil); err != nil {
		t.Fatal(err)
	}
	job, err := c.Discover(ctx, "watched", client.DiscoverRequest{Mode: "tdac"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-primaryRunner.started:
	case <-ctx.Done():
		t.Fatal("job never started on the primary")
	}

	events, err := c.WatchJob(ctx, job.ID)
	if err != nil {
		t.Fatalf("WatchJob through router: %v", err)
	}
	// The stream is live: at least the queued/running state frames arrive
	// before the primary goes down.
	select {
	case ev := <-events:
		if ev.Err != nil {
			t.Fatalf("first event: %v", ev.Err)
		}
	case <-ctx.Done():
		t.Fatal("no event before the kill")
	}

	// Replicate the acked state (dataset, claims, pending job), then
	// kill the primary mid-watch: no graceful shutdown, the process just
	// goes away with the job still running.
	if err := fol.SyncOnce(); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	// Stop accepting first, so the watcher's reconnect cannot land on
	// the dying primary, then sever live connections (the watcher's open
	// stream included), or Close would wait for the stream to end.
	primaryTS.Listener.Close()
	primaryTS.CloseClientConnections()
	primaryTS.Close()

	// The router's deterministic prober declares the primary dead, and
	// an explicit promotion fails the shard over.
	rt.ProbeNow()
	rt.ProbeNow()
	resp, err := front.Client().Post(front.URL+"/v1/cluster/promote/s0", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("promote = %d", resp.StatusCode)
	}

	// The promoted follower re-enqueues the interrupted job under its
	// original ID and runs it to completion.
	select {
	case <-promotedRunner.started:
	case <-ctx.Done():
		t.Fatal("job never restarted on the promoted follower")
	}
	promotedRunner.release <- struct{}{}

	// The watcher — still on the channel opened before the kill — must
	// deliver the terminal event via its re-resolved reconnects.
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("watch channel closed without a terminal event")
			}
			if ev.Err != nil {
				t.Fatalf("watch error after failover: %v", ev.Err)
			}
			if ev.Job != nil && ev.Job.Terminal() {
				if ev.Job.State != "done" {
					t.Fatalf("job finished %q after failover: %s", ev.Job.State, ev.Job.Error)
				}
				if ev.Job.ID != job.ID {
					t.Fatalf("terminal event for %q, want %q", ev.Job.ID, job.ID)
				}
				return
			}
		case <-ctx.Done():
			t.Fatal("no terminal event after failover")
		}
	}
}
