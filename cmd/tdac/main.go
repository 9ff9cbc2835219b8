// Command tdac runs truth discovery on a CSV dataset of conflicting
// claims, optionally partitioning the attributes with TD-AC first.
//
// Usage:
//
//	tdac -claims claims.csv [-truth truth.csv] [-algorithm Accu]
//	     [-tdac] [-workers n] [-project dim] [-sparse]
//	     [-top n] [-trust] [-json] [-stats]
//	     [-cpuprofile f.pprof] [-memprofile f.pprof]
//
// The claims file holds "source,object,attribute,value" records; the
// optional truth file holds "object,attribute,value" ground truth, which
// enables the evaluation report. With -tdac, the named algorithm becomes
// the base algorithm F of TD-AC; without it, the algorithm runs plain.
//
// -stats prints the run's phase-scoped observation tree (wall times,
// per-k convergence, per-group base-run cost, cache reuse, allocation
// deltas) to stderr. -cpuprofile and -memprofile write pprof profiles
// covering the discovery run, for `go tool pprof`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"tdac"
)

func main() {
	// Ctrl-C cancels the run at the next cancellation point (per explored
	// k of the sweep, per partition group) instead of killing it mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tdac: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "tdac:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tdac", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		claimsPath = fs.String("claims", "", "claims CSV file (source,object,attribute,value); required")
		truthPath  = fs.String("truth", "", "ground-truth CSV file (object,attribute,value); optional")
		algorithm  = fs.String("algorithm", "Accu", "base algorithm: "+strings.Join(tdac.Algorithms(), ", "))
		useTDAC    = fs.Bool("tdac", false, "wrap the algorithm in TD-AC attribute partitioning")
		workers    = fs.Int("workers", 0, "with -tdac: worker pool size for the k-sweep and the per-group base runs (0 = all CPUs, 1 = sequential)")
		project    = fs.Int("project", 0, "with -tdac: project truth vectors to this many dimensions before clustering (0 = off)")
		sparse     = fs.Bool("sparse", false, "with -tdac: use the sparse-aware truth-vector encoding")
		top        = fs.Int("top", 0, "print only the first n predictions (0 = all)")
		showTrust  = fs.Bool("trust", false, "print the final per-source trust estimates")
		asJSON     = fs.Bool("json", false, "emit predictions as JSON instead of CSV")
		explain    = fs.String("explain", "", "explain one prediction: \"object/attribute\"")
		showStats  = fs.Bool("stats", false, "print the run's phase-scoped observation tree")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the discovery run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile taken after the discovery run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *claimsPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -claims")
	}

	f, err := os.Open(*claimsPath)
	if err != nil {
		return err
	}
	ds, err := tdac.ReadClaimsCSV(f, *claimsPath)
	f.Close()
	if err != nil {
		return err
	}
	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			return err
		}
		err = tdac.ReadTruthCSV(tf, ds)
		tf.Close()
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(stderr, tdac.ComputeStats(ds))

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var (
		truth map[tdac.Cell]string
		trust []float64
		stats *tdac.RunStats
	)
	if *useTDAC {
		opts := []tdac.Option{tdac.WithBase(*algorithm), tdac.WithWorkers(*workers)}
		if *project > 0 {
			opts = append(opts, tdac.WithProjection(*project))
		}
		if *sparse {
			opts = append(opts, tdac.WithSparseAware())
		}
		if *showStats {
			opts = append(opts, tdac.WithStats())
		}
		res, err := tdac.DiscoverContext(ctx, ds, opts...)
		if err != nil {
			return err
		}
		truth, trust, stats = res.Truth, res.Trust, res.Stats
		fmt.Fprintf(stderr, "TD-AC partition: %s (silhouette %.3f), %s\n",
			res.Partition, res.Silhouette, res.Runtime.Round(0))
	} else {
		var opts []tdac.Option
		if *showStats {
			opts = append(opts, tdac.WithStats())
		}
		res, err := tdac.RunContext(ctx, ds, *algorithm, opts...)
		if err != nil {
			return err
		}
		truth, trust, stats = res.Truth, res.Trust, res.Stats
		fmt.Fprintf(stderr, "%s: %d iterations, %s\n", res.Algorithm, res.Iterations, res.Runtime.Round(0))
	}
	if stats != nil {
		if err := stats.Render(stderr); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return fmt.Errorf("writing heap profile: %w", err)
		}
	}

	if len(ds.Truth) > 0 {
		fmt.Fprintln(stderr, "evaluation:", tdac.Evaluate(ds, truth))
	}
	if *showTrust {
		for s, t := range trust {
			fmt.Fprintf(stderr, "trust %s: %.3f\n", ds.SourceName(tdac.SourceID(s)), t)
		}
	}
	if *explain != "" {
		cell, err := findCell(ds, *explain)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "explanation for %s:\n", *explain)
		for _, v := range tdac.Inspect(ds, cell, truth, trust) {
			marker := " "
			if v.Chosen {
				marker = "*"
			}
			fmt.Fprintf(stderr, "  %s %-20q votes=%d trust=%.3f sources=%s\n",
				marker, v.Value, len(v.Sources), v.TrustSum, strings.Join(v.Sources, ","))
		}
	}

	cells := make([]tdac.Cell, 0, len(truth))
	for c := range truth {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Object != cells[j].Object {
			return cells[i].Object < cells[j].Object
		}
		return cells[i].Attr < cells[j].Attr
	})
	if *top > 0 && len(cells) > *top {
		cells = cells[:*top]
	}
	if *asJSON {
		type pred struct {
			Object    string `json:"object"`
			Attribute string `json:"attribute"`
			Value     string `json:"value"`
		}
		out := make([]pred, len(cells))
		for i, c := range cells {
			out[i] = pred{Object: ds.ObjectName(c.Object), Attribute: ds.AttrName(c.Attr), Value: truth[c]}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintln(stdout, "object,attribute,value")
	for _, c := range cells {
		fmt.Fprintf(stdout, "%s,%s,%s\n", ds.ObjectName(c.Object), ds.AttrName(c.Attr), truth[c])
	}
	return nil
}

// findCell resolves an "object/attribute" reference against the dataset's
// names.
func findCell(ds *tdac.Dataset, ref string) (tdac.Cell, error) {
	sep := strings.LastIndex(ref, "/")
	if sep < 0 {
		return tdac.Cell{}, fmt.Errorf("-explain wants \"object/attribute\", got %q", ref)
	}
	objName, attrName := ref[:sep], ref[sep+1:]
	var cell tdac.Cell
	foundO, foundA := false, false
	for i, n := range ds.Objects {
		if n == objName {
			cell.Object = tdac.ObjectID(i)
			foundO = true
		}
	}
	for i, n := range ds.Attrs {
		if n == attrName {
			cell.Attr = tdac.AttrID(i)
			foundA = true
		}
	}
	if !foundO {
		return tdac.Cell{}, fmt.Errorf("unknown object %q", objName)
	}
	if !foundA {
		return tdac.Cell{}, fmt.Errorf("unknown attribute %q", attrName)
	}
	return cell, nil
}
