package obs

import "time"

// EventKind classifies one streaming pipeline event.
type EventKind string

// The streaming event kinds. Phase events bracket every pipeline stage;
// k events report per-k sweep progress; group events report per-group
// base-run completion. Lifecycle events (queued/running/terminal) are
// not emitted here — they belong to whoever owns the job, not to the
// pipeline (internal/server adds them around the run).
const (
	EventPhaseStart EventKind = "phase-start"
	EventPhaseEnd   EventKind = "phase-end"
	EventK          EventKind = "k"
	EventGroup      EventKind = "group"
)

// Event is one streaming observation of an in-flight pipeline run — the
// push counterpart of the pull-only RunStats tree. Events carry values
// the pipeline already computed, never influence it: a run with a sink
// attached is bit-identical to one without (the same inertness contract
// as the Recorder, pinned by core.TestStatsObservationIsInert).
type Event struct {
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Phase is set on phase-start and phase-end events.
	Phase Phase `json:"phase,omitempty"`
	// Elapsed is the phase's wall time, set on phase-end events.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// K and Silhouette describe one explored cluster count (kind "k").
	K          int     `json:"k,omitempty"`
	Silhouette float64 `json:"silhouette,omitempty"`
	// Group is the finished group's partition index (kind "group").
	Group int `json:"group,omitempty"`
	// Attrs and Claims size the finished group (kind "group").
	Attrs  int `json:"attrs,omitempty"`
	Claims int `json:"claims,omitempty"`
}

// EventSink receives streaming events while a run is in flight. Events
// from parallel stages (the k-sweep, the per-group base runs) arrive in
// completion order, which is scheduling-dependent; consumers must not
// infer determinism from event order. A sink runs on the pipeline's
// critical path and may be called concurrently — keep it fast and make
// it safe for concurrent calls.
type EventSink func(Event)

// emit forwards one event to the sink, if any. Safe on a nil Recorder.
func (r *Recorder) emit(ev Event) {
	if r != nil && r.sink != nil {
		r.sink(ev)
	}
}

// KDone streams one explored cluster count of the k-sweep. Emission
// only: per-k statistics still arrive in bulk via SweepDone, so the
// RunStats tree is unchanged whether or not a sink is attached.
func (r *Recorder) KDone(k int, silhouette float64) {
	r.emit(Event{Kind: EventK, K: k, Silhouette: silhouette})
}
