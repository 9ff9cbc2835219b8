package experiments

import (
	"fmt"
	"math"
	"time"

	"tdac/internal/algorithms"
	"tdac/internal/core"
	"tdac/internal/metrics"
	"tdac/internal/synth"
)

// This file implements the paper's stated research perspectives (§6) as
// additional experiments, beyond the published tables and figures:
//
//   - ext-algorithms: "compare ourselves to a larger set of standard
//     truth discovery algorithms" — all thirteen registered algorithms,
//     including 2-/3-Estimates (Galland et al., the paper's [7]) and CRH,
//     with and without TD-AC on the synthetic configurations;
//   - ext-coverage: the §4.5 observation "TD-AC is more efficient when
//     the data coverage is very high" turned into a proper sweep, with
//     the sparse-aware masked variant (perspective (i)) alongside;
//   - ext-scale: running-time growth with the number of objects, and the
//     speedup of the default worker pool over one worker (perspective
//     (ii)).

// extAlgorithms reports the accuracy of every registered algorithm and of
// TD-AC over it on DS2 (the configuration the paper's setting targets).
func extAlgorithms(r *Runner) ([]*Table, error) {
	t := &Table{
		ID:     "ext-algorithms",
		Title:  "All registered algorithms on DS2, alone and wrapped in TD-AC",
		Header: []string{"Algorithm", "Accuracy", "TD-AC Accuracy", "Delta", "Time(s)", "TD-AC Time(s)"},
	}
	for _, name := range algorithms.Names() {
		base, err := r.Measure("DS2", Std(name))
		if err != nil {
			return nil, err
		}
		wrapped, err := r.Measure("DS2", TDACSpec(name))
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			f3(base.Report.Accuracy),
			f3(wrapped.Report.Accuracy),
			fmt.Sprintf("%+.3f", wrapped.Report.Accuracy-base.Report.Accuracy),
			fmt.Sprintf("%.3f", base.Runtime.Seconds()),
			fmt.Sprintf("%.3f", wrapped.Runtime.Seconds()),
		)
	}
	t.Notes = append(t.Notes,
		"TwoEstimates/ThreeEstimates are Galland et al. 2010 (the paper's [7]); CRH is Li et al. 2014")
	return []*Table{t}, nil
}

// extCoverage sweeps the claim coverage of a DS2-shaped generator and
// reports base Accu, TD-AC and sparse-aware TD-AC accuracies: the
// quantitative version of the paper's DCR observation.
func extCoverage(r *Runner) ([]*Table, error) {
	t := &Table{
		ID:     "ext-coverage",
		Title:  "TD-AC accuracy vs data coverage (DS2 structure), plain vs sparse-aware vectors",
		Header: []string{"Coverage", "DCR(%)", "Accu", "TD-AC", "TD-AC (masked)", "TD-AC delta", "Masked delta"},
	}
	objects := 150
	if r.Opts.Full {
		objects = 1000
	}
	for _, coverage := range []float64{1.0, 0.8, 0.6, 0.4, 0.25} {
		cfg := synth.DS2().Scaled(objects)
		cfg.Name = fmt.Sprintf("DS2-cov%.2f", coverage)
		cfg.Coverage = coverage
		cfg.Seed += r.Opts.Seed
		g, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		d := g.Dataset

		base, err := algorithms.NewAccu().Discover(d)
		if err != nil {
			return nil, err
		}
		baseAcc := metrics.Evaluate(d, base.Truth).Accuracy

		plain := core.New(algorithms.NewAccu())
		plainOut, err := plain.Run(d)
		if err != nil {
			return nil, err
		}
		plainAcc := metrics.Evaluate(d, plainOut.Truth).Accuracy

		masked := core.New(algorithms.NewAccu())
		masked.Masked = true
		maskedOut, err := masked.Run(d)
		if err != nil {
			return nil, err
		}
		maskedAcc := metrics.Evaluate(d, maskedOut.Truth).Accuracy

		// The DCR of fully random coverage equals the coverage itself.
		t.AddRow(
			fmt.Sprintf("%.2f", coverage),
			fmt.Sprintf("%.0f", 100*coverage),
			f3(baseAcc), f3(plainAcc), f3(maskedAcc),
			fmt.Sprintf("%+.3f", plainAcc-baseAcc),
			fmt.Sprintf("%+.3f", maskedAcc-plainAcc),
		)
	}
	t.Notes = append(t.Notes,
		"masked = future-work item (i): missing claims encoded as a mask and skipped by the clustering distance")
	return []*Table{t}, nil
}

// extScale measures TD-AC wall time against dataset size, sequential
// (one worker) vs the default GOMAXPROCS worker pool, which runs the
// k-sweep and the per-group base runs in parallel (future-work item
// (ii)).
func extScale(r *Runner) ([]*Table, error) {
	t := &Table{
		ID:     "ext-scale",
		Title:  "TD-AC running time vs dataset size, sequential vs parallel groups",
		Header: []string{"Objects", "Claims", "Accu(s)", "TD-AC seq(s)", "TD-AC par(s)", "Speedup", "Accuracy"},
	}
	sizes := []int{100, 250, 500}
	if r.Opts.Full {
		sizes = []int{250, 500, 1000, 2000, 4000}
	}
	for _, objects := range sizes {
		cfg := synth.DS2().Scaled(objects)
		cfg.Name = fmt.Sprintf("DS2-%dobj", objects)
		cfg.Seed += r.Opts.Seed
		g, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		d := g.Dataset

		baseStart := time.Now()
		if _, err := algorithms.NewAccu().Discover(d); err != nil {
			return nil, err
		}
		baseTime := time.Since(baseStart)

		seq := core.New(algorithms.NewAccu())
		seq.Workers = 1
		seqStart := time.Now()
		seqOut, err := seq.Run(d)
		if err != nil {
			return nil, err
		}
		seqTime := time.Since(seqStart)

		par := core.New(algorithms.NewAccu())
		parStart := time.Now()
		if _, err := par.Run(d); err != nil {
			return nil, err
		}
		parTime := time.Since(parStart)

		t.AddRow(
			fmt.Sprintf("%d", objects),
			fmt.Sprintf("%d", d.NumClaims()),
			fmt.Sprintf("%.3f", baseTime.Seconds()),
			fmt.Sprintf("%.3f", seqTime.Seconds()),
			fmt.Sprintf("%.3f", parTime.Seconds()),
			fmt.Sprintf("%.2fx", seqTime.Seconds()/parTime.Seconds()),
			f3(metrics.Evaluate(d, seqOut.Truth).Accuracy),
		)
	}
	t.Notes = append(t.Notes,
		"seq = one worker: the k-sweep and the per-group base runs both run sequentially; par = the default GOMAXPROCS pool for both")
	return []*Table{t}, nil
}

// extVariance replicates the key DS1–DS3 measurements over several
// generator seeds and reports mean ± standard deviation, quantifying how
// much of any single-table number is seed noise. Rigor the paper's
// single-run tables lack.
func extVariance(r *Runner) ([]*Table, error) {
	t := &Table{
		ID:     "ext-variance",
		Title:  "Accuracy mean ± std over generator seeds (TD-AC vs Accu)",
		Header: []string{"Dataset", "Runs", "Accu mean", "Accu std", "TD-AC mean", "TD-AC std", "Mean delta"},
	}
	runs := 5
	objects := 150
	if r.Opts.Full {
		objects = 1000
	}
	cfgs := map[string]func() synth.Config{"DS1": synth.DS1, "DS2": synth.DS2, "DS3": synth.DS3}
	for _, name := range []string{"DS1", "DS2", "DS3"} {
		var accuAccs, tdacAccs []float64
		for seed := int64(0); seed < int64(runs); seed++ {
			cfg := cfgs[name]().Scaled(objects)
			cfg.Seed += 1000 * seed
			g, err := synth.Generate(cfg)
			if err != nil {
				return nil, err
			}
			base, err := algorithms.NewAccu().Discover(g.Dataset)
			if err != nil {
				return nil, err
			}
			accuAccs = append(accuAccs, metrics.Evaluate(g.Dataset, base.Truth).Accuracy)
			out, err := core.New(algorithms.NewAccu()).Run(g.Dataset)
			if err != nil {
				return nil, err
			}
			tdacAccs = append(tdacAccs, metrics.Evaluate(g.Dataset, out.Truth).Accuracy)
		}
		am, as := meanStd(accuAccs)
		tm, ts := meanStd(tdacAccs)
		t.AddRow(name, fmt.Sprintf("%d", runs),
			f3(am), f3(as), f3(tm), f3(ts), fmt.Sprintf("%+.3f", tm-am))
	}
	return []*Table{t}, nil
}

// meanStd returns the mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
