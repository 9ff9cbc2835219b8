// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time on inputs generated from a seed,
// checks every operation against a correctness oracle, and prints every
// metric by name and unit, ending with one JSON line:
//
//	perfbench --workload ds-direct --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 a separate traced run records one span per
// call into a layer and reports the per-layer metrics. Workloads:
// ds-direct, exam-direct, serve-open and append-sync; README.md in this
// directory says why each exists and what each metric should move.
//
// It runs from the root of a checkout (perfbench/run.sh builds it and
// the daemons there) and writes only under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off, with their units. BENCHMARK.json must list the same.
var endToEnd = []metricSpec{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib_per_op", "MiB"},
	{"ok_ratio", "ratio"},
	{"precision", "ratio"},
}

// run carries one workload run's settings and collects its report.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	root     string // checkout root
	dir      string // scratch directory of this run, removed at exit
	out      io.Writer

	res   result
	notes []string // human-readable lines, printed before the JSON
}

// tailPercentiles is the percentile op_tail_ms reports on each
// workload: the highest that the ops of every run support under the
// sampling rule (see tailPercentile). A 25 s run gives ds-direct
// 130-160 ops, serve-open 50 jobs, append-sync 72-115 ops and
// exam-direct about 20.
var tailPercentiles = map[string]float64{
	"ds-direct":   90,
	"exam-direct": 50,
	"serve-open":  75,
	"append-sync": 75,
}

var workloads = map[string]func(*run) error{
	"ds-direct":   runDSDirect,
	"exam-direct": runExamDirect,
	"serve-open":  runServeOpen,
	"append-sync": runAppendSync,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: ds-direct, exam-direct, serve-open, append-sync")
		seed     = fs.Int64("seed", 1, "seed of the generated inputs and the arrival schedule")
		seconds  = fs.Int("seconds", 20, "measured time of the run")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spread   = fs.Bool("spread", false, "read result lines of repeated runs from the files named as arguments and print each metric's quartile spread")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spread {
		if err := printSpread(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the root of a tdac checkout:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		root:     root,
		dir:      dir,
		out:      stderr,
		res:      result{Correct: true, Metrics: map[string]metric{}},
	}
	steal0, total0, statErr := cpuTicks()
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	// Steal is not a metric of the program, but a run on a host that
	// took much of its CPU away reads slow; say so beside the figures.
	if steal1, total1, err := cpuTicks(); err == nil && statErr == nil && total1 > total0 {
		r.notes = append(r.notes, fmt.Sprintf("# CPU steal during the run: %.1f%% of CPU time", 100*(steal1-steal0)/(total1-total0)))
	}
	if err := r.complete(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, l := range r.notes {
		fmt.Fprintln(stdout, l)
	}
	raw, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// logf reports progress on standard error.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "perfbench: "+format+"\n", args...)
}

// set records one metric and its human-readable line.
func (r *run) set(name, unit string, v float64, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-34s %14.4f %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.notes = append(r.notes, line)
}

// latency records an op timing in milliseconds as <prefix>_p50_ms and
// <prefix>_tail_ms, stratified by dataset (see stratified) with the
// workload's tail percentile, stating the sample count and whether the
// tail meets the sampling rule (ten samples beyond it).
func (r *run) latency(prefix string, ms []float64, group []string) {
	n := len(ms)
	pct := tailPercentiles[r.workload]
	p50, tail, mid := stratified(ms, group, pct)
	var names []string
	for g := range mid {
		names = append(names, g)
	}
	sort.Strings(names)
	line := "# median op per dataset:"
	for _, g := range names {
		line += fmt.Sprintf(" %s %.1f ms", g, mid[g])
	}
	r.notes = append(r.notes, line)
	r.set(prefix+"_p50_ms", "ms", p50, fmt.Sprintf("mean of %d datasets' median, %d samples", len(mid), n))
	note := fmt.Sprintf("p50 + p%g of the excess over the dataset's median, %d samples", pct, n)
	if p := tailPercentile(n); p < pct {
		supported := "none"
		if p > 0 {
			supported = fmt.Sprintf("p%g", p)
		}
		note += fmt.Sprintf(" (too few for p%g under the sampling rule; highest supported: %s)", pct, supported)
	}
	r.set(prefix+"_tail_ms", "ms", tail, note)
}

// layerTiming records a per-layer timing as name_ms (median) and
// name_p90_ms over per-operation values.
func (r *run) layerTiming(name string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	r.set(name+"_ms", "ms", median(ms), fmt.Sprintf("median of %d ops", len(ms)))
	r.set(name+"_p90_ms", "ms", percentile(ms, 90), fmt.Sprintf("p90 of %d ops", len(ms)))
}

// layerValue records a per-layer median of a count or ratio.
func (r *run) layerValue(name, unit string, vals []float64) {
	if len(vals) == 0 {
		return
	}
	r.set(name, unit, median(vals), fmt.Sprintf("median of %d", len(vals)))
}

// fail counts one failed operation and says why.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	if r.res.Failed <= 5 {
		r.logf("failed op: "+format, args...)
	}
}

// complete checks the report covers every metric its mode promises:
// with tracing off every end-to-end metric must have been measured;
// with tracing on, per-layer metrics of layers this workload does not
// exercise are reported as 0 (no time spent there).
func (r *run) complete() error {
	if r.res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	if r.res.Failed > 0 {
		r.res.Correct = false
	}
	if r.trace {
		for _, m := range perLayer() {
			if _, ok := r.res.Metrics[m.name]; !ok {
				r.set(m.name, m.unit, 0, "not exercised by this workload")
			}
		}
		// Keep only per-layer metrics.
		want := map[string]bool{}
		for _, m := range perLayer() {
			want[m.name] = true
		}
		for name := range r.res.Metrics {
			if !want[name] {
				return fmt.Errorf("traced run produced unlisted metric %q", name)
			}
		}
		return nil
	}
	for _, m := range endToEnd {
		v, ok := r.res.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) {
			return fmt.Errorf("end-to-end metric %q was not measured", m.name)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %q has unit %q, want %q", m.name, v.Unit, m.unit)
		}
	}
	if len(r.res.Metrics) != len(endToEnd) {
		return fmt.Errorf("untraced run produced %d metrics, want the %d end-to-end ones", len(r.res.Metrics), len(endToEnd))
	}
	return nil
}

// printSpread reads the last JSON line of each file and prints every
// metric's median and quartile spread (Q3-Q1 as a share of the median)
// across the files.
func printSpread(files []string, w io.Writer) error {
	if len(files) < 2 {
		return errors.New("--spread needs at least two result files")
	}
	vals := map[string][]float64{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s: run was not correct (%d of %d ops failed)", f, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	var names []string
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s median %12.4f  spread %.4f  (n=%d)\n", n, median(vals[n]), quartileSpread(vals[n]), len(vals[n]))
	}
	return nil
}
