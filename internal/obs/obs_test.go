package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsInert pins the disabled subsystem: every method on a
// nil *Recorder must no-op (and Phase must hand back a callable no-op),
// since instrumented pipeline code calls them unconditionally.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.Start()
	r.Phase(PhaseReference)() // must not panic
	r.PhaseDone(PhaseKSweep, time.Second)
	r.MatrixDone(MatrixStats{})
	r.SweepDone(SweepStats{}, CacheStats{})
	r.GroupDone(GroupStats{})
	if got := r.Finish(); got != nil {
		t.Fatalf("nil recorder Finish = %+v, want nil", got)
	}
}

func TestRecorderCollectsTree(t *testing.T) {
	var events []Phase
	r := NewRecorder(func(ev Event) {
		if ev.Kind == EventPhaseEnd {
			events = append(events, ev.Phase)
		}
	})
	r.Start()
	done := r.Phase(PhaseReference)
	time.Sleep(time.Millisecond)
	done()
	r.PhaseDone(PhaseTruthVectors, 2*time.Millisecond)
	r.MatrixDone(MatrixStats{Points: 6, Pairs: 15, Packed: true})
	r.SweepDone(SweepStats{
		Seed: 1, Workers: 2, MinK: 2, MaxK: 4,
		Ks: []KStats{
			{K: 2, Iterations: 3, Converged: true, Silhouette: 0.2},
			{K: 3, Iterations: 5, Converged: true, Silhouette: 0.6},
			{K: 4, Iterations: 7, Converged: false, Silhouette: 0.4},
		},
	}, CacheStats{SilhouetteEvals: 3, SeededRuns: 12})
	r.GroupDone(GroupStats{Group: 1, Attrs: 3, Claims: 40})
	r.GroupDone(GroupStats{Group: 0, Attrs: 3, Claims: 50})
	s := r.Finish()

	if s.Total <= 0 {
		t.Errorf("Total = %v, want > 0", s.Total)
	}
	if got := s.PhaseDuration(PhaseReference); got < time.Millisecond {
		t.Errorf("reference phase = %v, want >= 1ms", got)
	}
	if got := s.PhaseDuration(PhaseTruthVectors); got != 2*time.Millisecond {
		t.Errorf("truth-vectors phase = %v, want 2ms", got)
	}
	if len(s.Sweeps) != 1 {
		t.Fatalf("sweeps = %d, want 1", len(s.Sweeps))
	}
	sw := s.Sweeps[0]
	if sw.Iterations() != 15 {
		t.Errorf("sweep iterations = %d, want 15", sw.Iterations())
	}
	if sw.Converged() != 2 {
		t.Errorf("converged ks = %d, want 2", sw.Converged())
	}
	if k, sil := sw.Best(); k != 3 || sil != 0.6 {
		t.Errorf("best = (%d, %v), want (3, 0.6)", k, sil)
	}
	if s.Cache.SilhouetteEvals != 3 || s.Cache.SeededRuns != 12 {
		t.Errorf("cache = %+v", s.Cache)
	}
	// Groups arrive in completion order but come back sorted by index.
	if len(s.Groups) != 2 || s.Groups[0].Group != 0 || s.Groups[1].Group != 1 {
		t.Errorf("groups not sorted by index: %+v", s.Groups)
	}
	// The sink saw the phase ends in completion order.
	if len(events) != 2 || events[0] != PhaseReference || events[1] != PhaseTruthVectors {
		t.Errorf("phase-end events = %v", events)
	}
}

// TestRecorderConcurrentWrites exercises the paths written from worker
// goroutines (per-group records, phase completions) under the race
// detector.
func TestRecorderConcurrentWrites(t *testing.T) {
	r := NewRecorder(nil)
	r.Start()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r.GroupDone(GroupStats{Group: g, Claims: g})
			r.PhaseDone(PhaseBaseRuns, time.Duration(g))
		}(g)
	}
	wg.Wait()
	s := r.Finish()
	if len(s.Groups) != 16 || len(s.Phases) != 16 {
		t.Fatalf("got %d groups, %d phases; want 16, 16", len(s.Groups), len(s.Phases))
	}
	for i, g := range s.Groups {
		if g.Group != i {
			t.Fatalf("groups not sorted: %+v", s.Groups)
		}
	}
}

func TestMemoryDeltas(t *testing.T) {
	r := NewRecorder(nil)
	r.Start()
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 64<<10)
	}
	s := r.Finish()
	if len(sink) != 64 {
		t.Fatal("unreachable")
	}
	if s.Memory.TotalAllocDelta < 64*64<<10 {
		t.Errorf("TotalAllocDelta = %d, want >= %d", s.Memory.TotalAllocDelta, 64*64<<10)
	}
	if s.Memory.MallocsDelta == 0 {
		t.Error("MallocsDelta = 0, want > 0")
	}
}

func TestRenderTree(t *testing.T) {
	s := &RunStats{
		Total: 10 * time.Millisecond,
		Phases: []PhaseStats{
			{PhaseReference, time.Millisecond},
			{PhaseTruthVectors, time.Millisecond},
			{PhaseDistanceMatrix, time.Millisecond},
			{PhaseKSweep, 4 * time.Millisecond},
			{PhaseBaseRuns, 2 * time.Millisecond},
			{PhaseMerge, time.Millisecond},
		},
		Matrix: []MatrixStats{{Points: 6, Pairs: 15, Packed: true}},
		Sweeps: []SweepStats{{MinK: 2, MaxK: 5, Workers: 1, Ks: []KStats{
			{K: 2, Iterations: 4, Converged: true, Silhouette: 0.7},
		}}},
		Groups: []GroupStats{{Group: 0, Attrs: 6, Claims: 100, Iterations: 2}},
		Cache:  CacheStats{SilhouetteEvals: 4, SeededRuns: 16},
	}
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"run stats: total 10ms",
		"reference", "truth-vectors", "distance-matrix", "k-sweep",
		"base-runs", "merge",
		"15 pairs", "packed",
		"best k=2",
		"group 0: 6 attrs, 100 claims",
		"4 silhouette evaluation(s)",
		"memory:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, out)
		}
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

// TestJSONShape pins the wire shape tdacbench consumes: durations as
// integer nanoseconds under *_ns keys, counters under stable names.
func TestJSONShape(t *testing.T) {
	s := &RunStats{
		Total:  time.Millisecond,
		Phases: []PhaseStats{{PhaseKSweep, time.Millisecond}},
		Sweeps: []SweepStats{{MinK: 2, MaxK: 3}},
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"total_ns":1000000`, `"phase":"k-sweep"`, `"min_k":2`, `"memory"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON missing %s: %s", key, raw)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond: "500ns",
		42 * time.Microsecond: "42µs",
		2 * time.Second:       "2s",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
	if got := fmtDur(1234567 * time.Nanosecond); got != "1.23ms" {
		t.Errorf("fmtDur(1.234567ms) = %q, want 1.23ms", got)
	}
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes(512) = %q", got)
	}
	if got := fmtBytes(3 << 20); got != "3.0MiB" {
		t.Errorf("fmtBytes(3MiB) = %q", got)
	}
	if got := fmtBytesSigned(-1024); got != "-1.0KiB" {
		t.Errorf("fmtBytesSigned(-1024) = %q", got)
	}
}
