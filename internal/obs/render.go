package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Render writes the stats tree as indented human-readable text — the
// view behind cmd/tdac's -stats flag.
//
//	run stats: total 12.4ms
//	├─ reference        1.2ms   9.8%
//	├─ truth-vectors    0.3ms   2.4%
//	├─ distance-matrix  0.8ms   6.5%   24 points, 276 pairs, packed
//	├─ k-sweep          8.0ms  64.2%   k ∈ [2,23] on 8 workers: 22 ks, 61 iterations, all converged, best k=4 (silhouette 0.424)
//	├─ base-runs        1.9ms  15.4%   4 groups, sequential
//	└─ merge            0.2ms   1.6%
//	cache:  22 silhouette evaluations and 88 k-means++ seedings served from the shared distance matrix
//	memory: 1.2MiB allocated (3456 objects), live heap +401.2KiB, 0 GC cycles
func (s *RunStats) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "run stats: total %s\n", fmtDur(s.Total))

	sweep, matrix, group := 0, 0, 0
	for i, ps := range s.Phases {
		branch := "├─"
		if i == len(s.Phases)-1 {
			branch = "└─"
		}
		pct := ""
		if s.Total > 0 {
			pct = fmt.Sprintf("%5.1f%%", 100*float64(ps.Duration)/float64(s.Total))
		}
		fmt.Fprintf(&b, "%s %-16s %8s  %s", branch, ps.Phase, fmtDur(ps.Duration), pct)
		switch ps.Phase {
		case PhaseDistanceMatrix:
			if matrix < len(s.Matrix) {
				m := s.Matrix[matrix]
				matrix++
				kind := "float kernels"
				if m.Packed {
					kind = "packed"
					if m.Masked {
						kind = "packed two-plane"
					}
				}
				fmt.Fprintf(&b, "   %d points, %d pairs, %s", m.Points, m.Pairs, kind)
			}
		case PhaseKSweep:
			if sweep < len(s.Sweeps) {
				sw := s.Sweeps[sweep]
				sweep++
				conv := fmt.Sprintf("%d/%d converged", sw.Converged(), len(sw.Ks))
				if sw.Converged() == len(sw.Ks) {
					conv = "all converged"
				}
				bestK, bestSil := sw.Best()
				span := fmt.Sprintf("k ∈ [%d,%d]", sw.MinK, sw.MaxK)
				if sw.Strategy != "" {
					span = fmt.Sprintf("%s search, %d/%d ks probed in [%d,%d]",
						sw.Strategy, len(sw.Ks), sw.MaxK-sw.MinK+1, sw.MinK, sw.MaxK)
				}
				fmt.Fprintf(&b, "   %s on %d worker(s): %d iterations, %s, best k=%d (silhouette %.3f)",
					span, sw.Workers, sw.Iterations(), conv, bestK, bestSil)
			}
		case PhaseBaseRuns:
			fmt.Fprintf(&b, "   %d group(s)", len(s.Groups))
		}
		b.WriteByte('\n')
		if ps.Phase == PhaseBaseRuns {
			for group < len(s.Groups) {
				g := s.Groups[group]
				group++
				fmt.Fprintf(&b, "│    group %d: %d attrs, %d claims, %d iterations, %s\n",
					g.Group, g.Attrs, g.Claims, g.Iterations, fmtDur(g.Duration))
			}
		}
	}
	if s.Cache != (CacheStats{}) {
		fmt.Fprintf(&b, "cache:  %d silhouette evaluation(s) and %d k-means++ seeding(s) served from the shared distance matrix\n",
			s.Cache.SilhouetteEvals, s.Cache.SeededRuns)
	}
	fmt.Fprintf(&b, "memory: %s allocated (%d objects), live heap %s, %d GC cycle(s)\n",
		fmtBytes(int64(s.Memory.TotalAllocDelta)), s.Memory.MallocsDelta,
		fmtBytesSigned(s.Memory.HeapAllocDelta), s.Memory.GCCycles)
	_, err := io.WriteString(w, b.String())
	return err
}

// Best returns the explored k with the highest silhouette, resolving
// ties towards the smaller k exactly as the sweep does.
func (s *SweepStats) Best() (k int, silhouette float64) {
	have := false
	for _, ks := range s.Ks {
		if !have || ks.Silhouette > silhouette {
			have = true
			k, silhouette = ks.K, ks.Silhouette
		}
	}
	return k, silhouette
}

// String renders the tree into a string (fmt.Stringer for logs).
func (s *RunStats) String() string {
	var b strings.Builder
	s.Render(&b)
	return strings.TrimRight(b.String(), "\n")
}

// fmtDur rounds a duration to a human scale: µs under 1ms, 10µs
// resolution above, 1ms resolution above a second.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	units := []string{"B", "KiB", "MiB", "GiB"}
	v := float64(n)
	u := 0
	for v >= 1024 && u < len(units)-1 {
		v /= 1024
		u++
	}
	if u == 0 {
		return fmt.Sprintf("%d%s", n, units[0])
	}
	return fmt.Sprintf("%.1f%s", v, units[u])
}

// fmtBytesSigned is fmtBytes with an explicit sign (heap deltas shrink
// when a GC ran mid-pipeline).
func fmtBytesSigned(n int64) string {
	if n < 0 {
		return "-" + fmtBytes(-n)
	}
	return "+" + fmtBytes(n)
}
