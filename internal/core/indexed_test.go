package core

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"tdac/internal/algorithms"
	"tdac/internal/obs"
	"tdac/internal/partition"
	"tdac/internal/synth"
)

// countdownCtx is a deterministic cancellation source: Err reports the
// context cancelled starting with the n-th call. It lets tests hit the
// per-round context checks of the indexed hot paths without racing a
// timer against real work.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestGroupPoolBitIdentical pins the bounded per-group worker pool: for
// every pool size the merged result must be bit-identical to the
// sequential order, on a partition with more groups than workers. Under
// `go test -race` (the CI invocation) this also proves the pool's
// partials writes are race-free.
func TestGroupPoolBitIdentical(t *testing.T) {
	d, _ := smallDS1(t)
	// Split into singleton groups so the pool has more groups than
	// workers and must recycle goroutines.
	part := partition.Singletons(d.NumAttrs())
	seq, err := RunOnPartition(algorithms.NewAccu(), d, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 16} {
		td := New(algorithms.NewAccu())
		td.Workers = workers
		res, err := td.discoverOnPartition(context.Background(), d, d.Index(), part)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Truth) != len(seq.Truth) {
			t.Fatalf("workers=%d: %d truth cells, sequential %d", workers, len(res.Truth), len(seq.Truth))
		}
		for cell, v := range seq.Truth {
			if res.Truth[cell] != v {
				t.Fatalf("workers=%d: truth diverges at %v: %q vs %q", workers, cell, res.Truth[cell], v)
			}
		}
		for s := range seq.Trust {
			if res.Trust[s] != seq.Trust[s] {
				t.Fatalf("workers=%d: trust diverges at source %d: %v vs %v", workers, s, res.Trust[s], seq.Trust[s])
			}
		}
	}
}

// TestReferenceRunCancelsMidAlgorithm proves cancellation reaches inside
// a base run: a context that flips to cancelled after the pipeline's
// upfront checks must interrupt the reference algorithm between update
// rounds, not run it to completion.
func TestReferenceRunCancelsMidAlgorithm(t *testing.T) {
	d, _ := smallDS1(t)
	// Survive RunContext's upfront ctx.Err() check, then cancel on the
	// next check — the reference run's first round.
	ctx := newCountdownCtx(1)
	_, err := New(algorithms.NewAccu()).RunContext(ctx, d)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled from inside the reference run", err)
	}
}

// TestGroupRunsCancelMidAlgorithm proves the per-group base runs honour
// cancellation mid-algorithm: with a generous countdown the pipeline
// clears its reference phase and k-sweep, and the cancellation lands
// inside (or between) the per-group runs.
func TestGroupRunsCancelMidAlgorithm(t *testing.T) {
	d, _ := smallDS1(t)
	probe := New(algorithms.NewAccu()).Run
	out, err := probe(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Partition) < 2 {
		t.Skipf("dataset yields %d group(s); need 2+ to land cancellation in the group phase", len(out.Partition))
	}
	for n := int64(2); ; n++ {
		ctx := newCountdownCtx(n)
		_, err := New(algorithms.NewAccu()).RunContext(ctx, d)
		if err == nil {
			// Countdown outlived the whole run: every earlier value
			// already proved interruption at its stage.
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("countdown %d: got %v, want context.Canceled", n, err)
		}
		if n > 10_000 {
			t.Fatal("run never completes even with 10k allowed context checks")
		}
	}
}

// plainAlgorithm hides a built-in's DiscoverIndexed, so TD-AC has to take
// the plain-Algorithm fallback for it: project the group, Discover, and
// re-key the result to the original attribute ids.
type plainAlgorithm struct{ algorithms.Algorithm }

// TestPlainAlgorithmFallbackMatchesIndexed pins the plain-Algorithm path
// of the per-group base runs to the indexed path (base runs on views of
// the run's index) at DS1 scale, for a cold run and an incremental one:
// same outcome, same per-group statistics.
func TestPlainAlgorithmFallbackMatchesIndexed(t *testing.T) {
	g, err := synth.Generate(synth.DS1())
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dataset
	ctx := context.Background()
	runs := map[string]func(base algorithms.Algorithm) (*Outcome, error){
		"RunContext": func(base algorithms.Algorithm) (*Outcome, error) {
			td := New(base)
			td.Recorder = obs.NewRecorder(nil)
			return td.RunContext(ctx, d)
		},
		"RunWithState": func(base algorithms.Algorithm) (*Outcome, error) {
			td := &TDAC{Base: base, Reference: algorithms.NewMajorityVote(), Recorder: obs.NewRecorder(nil)}
			return td.RunWithState(ctx, d, NewIncrementalState())
		},
	}
	for name, run := range runs {
		indexed, err := run(algorithms.NewAccu())
		if err != nil {
			t.Fatalf("%s, indexed: %v", name, err)
		}
		plain, err := run(plainAlgorithm{algorithms.NewAccu()})
		if err != nil {
			t.Fatalf("%s, plain: %v", name, err)
		}
		if len(indexed.Partition) < 2 {
			t.Fatalf("%s: partition %s has one group; the test needs several", name, indexed.Partition)
		}
		assertOutcomesIdentical(t, name, indexed, plain)
		if indexed.Converged != plain.Converged {
			t.Errorf("%s: converged indexed %v, plain %v", name, indexed.Converged, plain.Converged)
		}
		if !slices.EqualFunc(indexed.Stats.Groups, plain.Stats.Groups, func(a, b obs.GroupStats) bool {
			return a.Group == b.Group && a.Attrs == b.Attrs && a.Claims == b.Claims && a.Iterations == b.Iterations
		}) {
			t.Errorf("%s: group stats indexed %+v, plain %+v", name, indexed.Stats.Groups, plain.Stats.Groups)
		}
	}
}
