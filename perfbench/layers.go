package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Per-layer metrics, reported by the traced run (--trace 1) of every
// workload. Timed layers report a median (<name>_ms) and a p90
// (<name>_p90_ms) of their per-op self time; a layer a workload does
// not exercise reports 0. BENCHMARK.json lists the same names.
var (
	timedLayers = []string{
		"truthdata.index", "truthdata.project", "truthdata.group_index",
		"algorithms.reference", "algorithms.group_run",
		"core.truth_vectors", "core.base_runs", "core.merge",
		"clustering.distmatrix", "clustering.kselect",
		"server.submit", "server.queue_wait", "server.run",
		"server.render", "server.transfer",
		"client.decode", "client.result_read", "client.append",
		"cluster.router_hop", "loadgen.lag",
	}
	valueLayers = []metricSpec{
		{"algorithms.iterations", "count"},
		{"clustering.ks_probed", "count"},
		{"clustering.lloyd_iterations", "count"},
		{"server.result_bytes", "bytes"},
		{"server.polls_per_job", "count"},
		{"server.rejected_ratio", "ratio"},
		{"cluster.retries_per_request", "ratio"},
		{"wal.bytes_per_append", "bytes"},
		{"loadgen.in_flight_max", "count"},
		{"trace.overhead_ratio", "ratio"},
		{"trace.unattributed_ratio", "ratio"},
	}
	// pipelinePhases are the phases the program itself reports (WithStats
	// on the direct path, tdacd_phase_seconds_total on the served path),
	// as stats.phase.<phase>_ms: mean wall time per run.
	pipelinePhases = []string{
		"index", "reference", "truth-vectors", "distance-matrix",
		"k-sweep", "base-runs", "merge", "incremental-sync",
	}
)

// metricSpec is a reported metric's name and unit.
type metricSpec struct{ name, unit string }

// perLayer lists every per-layer metric name with its unit.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, n := range timedLayers {
		out = append(out, metricSpec{n + "_ms", "ms"}, metricSpec{n + "_p90_ms", "ms"})
	}
	for _, v := range valueLayers {
		out = append(out, metricSpec{v.name, v.unit})
	}
	for _, p := range pipelinePhases {
		out = append(out, metricSpec{phaseMetric(p), "ms"})
	}
	return out
}

func phaseMetric(p string) string {
	return "stats.phase." + strings.ReplaceAll(p, "-", "_") + "_ms"
}

// setPhases records the mean per-run time of every phase WithStats
// reported.
func (r *run) setPhases(phases map[string][]float64) {
	for _, p := range pipelinePhases {
		v := phases[p]
		if len(v) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		r.set(phaseMetric(p), "ms", sum/float64(len(v)), fmt.Sprintf("WithStats mean over %d runs", len(v)))
	}
}

// writeTrace writes the run's spans to .bench_build/traces/.
func writeTrace(r *run, tr *Tracer) error {
	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	r.notes = append(r.notes, fmt.Sprintf("# %d spans written to %s", len(tr.Spans()), path))
	return nil
}
