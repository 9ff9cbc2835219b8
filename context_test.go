package tdac_test

import (
	"context"
	"strings"
	"testing"

	"tdac"
)

// cancelledCtx returns a context that is already cancelled.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestDiscoverContextPromptCancellation(t *testing.T) {
	d := publicDataset(t, 20, 11)
	if _, err := tdac.DiscoverContext(cancelledCtx(), d); err != context.Canceled {
		t.Errorf("DiscoverContext under a cancelled context: %v, want context.Canceled", err)
	}
}

func TestRunContextPromptCancellation(t *testing.T) {
	d := publicDataset(t, 20, 12)
	if _, err := tdac.RunContext(cancelledCtx(), d, "MajorityVote"); err != context.Canceled {
		t.Errorf("RunContext under a cancelled context: %v, want context.Canceled", err)
	}
	// An unknown algorithm must still be reported even when the context is
	// dead: configuration errors win over cancellation.
	if _, err := tdac.RunContext(cancelledCtx(), d, "bogus"); err == context.Canceled || err == nil {
		t.Errorf("RunContext with unknown algorithm: %v, want a configuration error", err)
	}
}

func TestCheckStabilityContextPromptCancellation(t *testing.T) {
	d := publicDataset(t, 20, 13)
	if _, err := tdac.CheckStabilityContext(cancelledCtx(), d, 3); err != context.Canceled {
		t.Errorf("CheckStabilityContext under a cancelled context: %v, want context.Canceled", err)
	}
}

func TestDiscoverContextMatchesDiscover(t *testing.T) {
	d := publicDataset(t, 40, 14)
	plain, err := tdac.Discover(d, tdac.WithBase("MajorityVote"))
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := tdac.DiscoverContext(context.Background(), d, tdac.WithBase("MajorityVote"))
	if err != nil {
		t.Fatal(err)
	}
	if !ctxed.Partition.Equal(plain.Partition) || ctxed.Silhouette != plain.Silhouette {
		t.Errorf("DiscoverContext differs from Discover: (%v, %v) vs (%v, %v)",
			ctxed.Partition, ctxed.Silhouette, plain.Partition, plain.Silhouette)
	}
}

func TestWithWorkersEquivalence(t *testing.T) {
	d := publicDataset(t, 50, 15)
	seq, err := tdac.Discover(d, tdac.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	// Default worker count (GOMAXPROCS) plus an explicit over-provisioned
	// pool: the sweep must be bit-identical regardless.
	for _, n := range []int{0, 4} {
		par, err := tdac.Discover(d, tdac.WithWorkers(n))
		if err != nil {
			t.Fatal(err)
		}
		if !par.Partition.Equal(seq.Partition) {
			t.Errorf("WithWorkers(%d): partition %v, sequential %v", n, par.Partition, seq.Partition)
		}
		if par.Silhouette != seq.Silhouette {
			t.Errorf("WithWorkers(%d): silhouette %v, sequential %v", n, par.Silhouette, seq.Silhouette)
		}
		for cell, v := range seq.Truth {
			if par.Truth[cell] != v {
				t.Fatalf("WithWorkers(%d): truth[%v] = %q, sequential %q", n, cell, par.Truth[cell], v)
			}
		}
	}
}

func TestOptionValidation(t *testing.T) {
	d := publicDataset(t, 10, 16)
	if _, err := tdac.Discover(d, tdac.WithWorkers(-1)); err == nil {
		t.Error("accepted a negative worker count")
	}
	if _, err := tdac.Discover(d, tdac.WithProjection(0)); err == nil {
		t.Error("accepted a non-positive projection dimension")
	}
	_, err := tdac.Discover(d, tdac.WithProjection(32), tdac.WithSparseAware())
	if err == nil {
		t.Fatal("accepted WithProjection combined with WithSparseAware")
	}
	if !strings.Contains(err.Error(), "WithProjection") || !strings.Contains(err.Error(), "WithSparseAware") {
		t.Errorf("conflict error does not name the options: %v", err)
	}
}

func TestWithProjectionDiscover(t *testing.T) {
	d := publicDataset(t, 40, 17)
	res, err := tdac.Discover(d, tdac.WithProjection(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) == 0 {
		t.Error("projected run produced no truth")
	}
	if res.Partition.Size() != 6 {
		t.Errorf("projected partition covers %d attrs, want 6", res.Partition.Size())
	}
}

func TestCheckStabilityRejectsWithIncremental(t *testing.T) {
	d := publicDataset(t, 20, 18)
	_, err := tdac.CheckStability(d, 3, tdac.WithIncremental(tdac.NewIncrementalState()))
	if err == nil {
		t.Fatal("CheckStability silently accepted WithIncremental")
	}
	if !strings.Contains(err.Error(), "WithIncremental") {
		t.Errorf("error should name the rejected option: %v", err)
	}
	// WithWorkers, by contrast, is honoured.
	if _, err := tdac.CheckStability(d, 3, tdac.WithWorkers(2)); err != nil {
		t.Errorf("CheckStability rejected WithWorkers: %v", err)
	}
}
