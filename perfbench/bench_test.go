package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"tdac"
	"tdac/client"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	// The tail rule: the highest percentile with at least ten samples
	// beyond it. A p90 needs 100 samples.
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestStratifiedLatency(t *testing.T) {
	// Two datasets: one whose ops take about 10 ms, one about 100 ms.
	// p50 is the mean of their medians, whatever their op counts; the
	// tail adds the pooled p90 of each op's excess over its dataset's
	// median.
	ms := []float64{9, 10, 11, 12, 100, 100, 100, 104}
	group := []string{"a", "a", "a", "a", "b", "b", "b", "b"}
	p50, p90, mid := stratified(ms, group, 90)
	if mid["a"] != 10.5 || mid["b"] != 100 {
		t.Errorf("per-dataset medians %v, want a 10.5 and b 100", mid)
	}
	// Medians 10.5 and 100; excesses -1.5 -0.5 0.5 1.5 0 0 0 4.
	if want := (10.5 + 100) / 2; math.Abs(p50-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", p50, want)
	}
	excess := []float64{-1.5, -0.5, 0.5, 1.5, 0, 0, 0, 4}
	if want := p50 + percentile(excess, 90); math.Abs(p90-want) > 1e-12 {
		t.Errorf("p90 = %v, want %v", p90, want)
	}
	// Doubling one dataset's share of the ops leaves p50 where it was.
	ms2 := append(append([]float64(nil), ms...), 9, 10, 11, 12)
	group2 := append(append([]string(nil), group...), "a", "a", "a", "a")
	if got, _, _ := stratified(ms2, group2, 90); math.Abs(got-p50) > 1e-12 {
		t.Errorf("p50 moved with the op mix: %v, was %v", got, p50)
	}
	if got, _, _ := stratified(nil, nil, 90); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %v, want NaN", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{7, 7, 7}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(quartileSpread([]float64{1})) {
		t.Error("spread of one value must be NaN")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 0, Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{ID: 2, Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 3, Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 4, Name: "d", Parent: 1, Start: 15 * ms, End: 20 * ms},
		// e is a replica of work done inside f; f's self time excludes it.
		{ID: 5, Name: "e", Parent: -1, Start: 200 * ms, End: 210 * ms},
		{ID: 6, Name: "f", Parent: -1, Start: 210 * ms, End: 250 * ms, Excludes: []int{5}},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{
		0: 40 * ms, // 100 - union([10,60], [90,100])
		1: 25 * ms, // 30 - 5
		2: 30 * ms,
		3: 30 * ms,
		4: 5 * ms,
		5: 10 * ms,
		6: 30 * ms, // 40 - 10
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	// The tracer records the same structure.
	tr := NewTracer()
	root := tr.Begin("op", 7, -1)
	child := tr.Begin("child", 7, root)
	tr.End(child)
	tr.End(root)
	other := tr.Begin("other", 8, -1)
	tr.End(other)
	if n := len(tr.OpSpans(7)); n != 2 {
		t.Fatalf("op 7 has %d spans, want 2", n)
	}
	self := selfTimes(tr.OpSpans(7))
	if s := tr.OpSpans(7)[0]; self[root] != s.Duration()-tr.OpSpans(7)[1].Duration() {
		t.Errorf("root self time %v does not exclude its child", self[root])
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	window := 25 * time.Second
	a := poissonSchedule(42, 4, window, 6)
	b := poissonSchedule(42, 4, window, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(a) != 100 {
		t.Fatalf("%d arrivals, want rate × window = 100", len(a))
	}
	for i, x := range a {
		if x.At < 0 || x.At >= window || x.Dataset < 0 || x.Dataset >= 6 {
			t.Fatalf("arrival %d = %+v out of range", i, x)
		}
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if reflect.DeepEqual(a, poissonSchedule(43, 4, window, 6)) {
		t.Error("two seeds gave the same schedule")
	}
	// Inter-arrival times of a Poisson process have mean 1/rate.
	long := poissonSchedule(7, 4, 1000*time.Second, 1)
	mean := long[len(long)-1].At.Seconds() / float64(len(long))
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("mean inter-arrival %.4f s, want 0.25 s", mean)
	}
}

func oracleDataset(t *testing.T) (*tdac.Dataset, *tdac.Result) {
	t.Helper()
	b := tdac.NewBuilder("oracle")
	for s := 0; s < 6; s++ {
		for o := 0; o < 8; o++ {
			for a := 0; a < 4; a++ {
				v := "t"
				if (s+o+a)%5 == 0 || (a < 2 && s%3 == 0) {
					v = "f"
				}
				b.Claim(string(rune('p'+s)), string(rune('A'+o)), string(rune('w'+a)), v)
			}
		}
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tdac.Discover(d, directOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func TestOracleFlagsPerturbedResults(t *testing.T) {
	d, res := oracleDataset(t)
	want := outcomeOf(d, res)

	// A result that went through JSON, as a served job's does, matches.
	raw, err := json.Marshal(client.Job{ID: "j", State: "done", Result: &client.Result{
		Silhouette: &want.Silhouette, Partition: want.Partition, Truth: want.Truth, Trust: want.Trust}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := decodeJob(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := outcomeOfJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if diff := mismatch(want, got); diff != "" {
		t.Fatalf("round-tripped result flagged: %s", diff)
	}

	perturbations := map[string]func(o *outcome){
		"truth value": func(o *outcome) { o.Truth[3].Value += "x" },
		"truth cell":  func(o *outcome) { o.Truth = o.Truth[1:] },
		"trust":       func(o *outcome) { o.Trust[0].Trust = math.Nextafter(o.Trust[0].Trust, 2) },
		"silhouette":  func(o *outcome) { o.Silhouette = math.Nextafter(o.Silhouette, 2) },
		"partition":   func(o *outcome) { o.Partition = [][]string{{"w", "x", "y", "z"}} },
	}
	for name, perturb := range perturbations {
		o := outcomeOf(d, res) // a fresh copy
		perturb(o)
		if mismatch(want, o) == "" {
			t.Errorf("perturbed %s was not flagged", name)
		}
	}
	if _, err := outcomeOfJob(&client.Job{ID: "j", State: "failed", Error: "boom"}); err == nil {
		t.Error("a failed job must not yield an outcome")
	}
}

func TestBenchmarkJSONMatchesTheMetricCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, n := range names {
		if tailPercentiles[n] == 0 {
			t.Errorf("workload %s has no tail percentile", n)
		}
	}
	var e2e []metricSpec
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	var layers []metricSpec
	for _, m := range spec.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", layers, perLayer())
	}
}
