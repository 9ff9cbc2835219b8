package tdac_test

import (
	"strings"
	"sync"
	"testing"

	"tdac"
)

// statsDataset builds a small correlated dataset with enough attributes
// for a real k-sweep.
func statsDataset(t *testing.T) *tdac.Dataset {
	t.Helper()
	b := tdac.NewBuilder("stats")
	objects := []string{"o1", "o2", "o3", "o4", "o5"}
	attrs := []string{"a", "b", "c", "d", "e", "f"}
	for si, src := range []string{"s1", "s2", "s3", "s4"} {
		for _, o := range objects {
			for ai, a := range attrs {
				v := "t"
				// Sources disagree on half the attributes, in two blocks.
				if (si+ai)%2 == 1 {
					v = "f" + src
				}
				b.Claim(src, o, a, v)
			}
		}
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiscoverWithStats(t *testing.T) {
	d := statsDataset(t)
	plain, err := tdac.Discover(d, tdac.WithBase("MajorityVote"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != nil {
		t.Fatal("Stats set without WithStats")
	}
	res, err := tdac.Discover(d, tdac.WithBase("MajorityVote"), tdac.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s == nil {
		t.Fatal("WithStats did not populate Stats")
	}
	if s.Total <= 0 || len(s.Sweeps) != 1 {
		t.Fatalf("incomplete tree: %+v", s)
	}
	if !res.Partition.Equal(plain.Partition) || res.Silhouette != plain.Silhouette {
		t.Fatalf("observation changed the result: %v/%v vs %v/%v",
			res.Partition, res.Silhouette, plain.Partition, plain.Silhouette)
	}
	if !strings.Contains(s.String(), "k-sweep") {
		t.Errorf("rendered stats missing k-sweep:\n%s", s)
	}
}

// TestWithEventsStreamsPhaseEnds pins the phase-completion face of
// WithEvents: filtering the sink for EventPhaseEnd yields every pipeline
// phase, and the option implies stats collection.
func TestWithEventsStreamsPhaseEnds(t *testing.T) {
	d := statsDataset(t)
	var mu sync.Mutex
	seen := map[tdac.Phase]bool{}
	res, err := tdac.Discover(d, tdac.WithBase("MajorityVote"),
		tdac.WithEvents(func(ev tdac.Event) {
			if ev.Kind != tdac.EventPhaseEnd {
				return
			}
			mu.Lock()
			seen[ev.Phase] = true
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("WithEvents must imply stats collection")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range []tdac.Phase{
		tdac.PhaseReference, tdac.PhaseTruthVectors, tdac.PhaseDistanceMatrix,
		tdac.PhaseKSweep, tdac.PhaseBaseRuns, tdac.PhaseMerge,
	} {
		if !seen[p] {
			t.Errorf("sink never saw phase %q end (saw %v)", p, seen)
		}
	}
}

func TestRunHonoursOnlyStatsOptions(t *testing.T) {
	d := statsDataset(t)
	res, err := tdac.Run(d, "MajorityVote", tdac.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("Run with WithStats returned nil Stats")
	}
	if got := res.Stats.PhaseDuration(tdac.PhaseDiscover); got <= 0 {
		t.Errorf("discover phase = %v, want > 0", got)
	}
	for _, opt := range []tdac.Option{
		tdac.WithKRange(2, 4), tdac.WithSeed(3), tdac.WithWorkers(2),
	} {
		if _, err := tdac.Run(d, "MajorityVote", opt); err == nil {
			t.Error("Run silently accepted a TD-AC-only option")
		} else if !strings.Contains(err.Error(), "cannot honour") {
			t.Errorf("unexpected rejection message: %v", err)
		}
	}
}

func TestCheckStabilityWithStats(t *testing.T) {
	d := statsDataset(t)
	st, err := tdac.CheckStability(d, 3, tdac.WithBase("MajorityVote"), tdac.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil {
		t.Fatal("CheckStability with WithStats returned nil Stats")
	}
	if len(st.Stats.Sweeps) != 3 {
		t.Errorf("sweeps = %d, want one per reseeded run (3)", len(st.Stats.Sweeps))
	}
}

func TestWithEventsRejectsNil(t *testing.T) {
	d := statsDataset(t)
	if _, err := tdac.Discover(d, tdac.WithEvents(nil)); err == nil {
		t.Error("WithEvents(nil) accepted")
	}
}
