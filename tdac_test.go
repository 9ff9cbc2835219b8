package tdac_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tdac"
)

// publicDataset builds a structurally correlated dataset through the
// public API only: 2 attribute groups, sources expert on one group each.
func publicDataset(t testing.TB, objects int, seed int64) *tdac.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := tdac.NewBuilder("public")
	attrs := []string{"g1a", "g1b", "g1c", "g2a", "g2b", "g2c"}
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("o%03d", o)
		for ai, attr := range attrs {
			truth := fmt.Sprintf("t-%d-%d", o, ai)
			distractor := fmt.Sprintf("w-%d-%d", o, ai)
			b.Truth(obj, attr, truth)
			for s := 0; s < 8; s++ {
				acc := 0.25
				if (s%2 == 0) == (ai < 3) {
					acc = 0.95
				}
				v := truth
				if rng.Float64() >= acc {
					if rng.Float64() < 0.5 {
						v = distractor
					} else {
						v = fmt.Sprintf("n-%d-%d-%d", o, ai, rng.Intn(20))
					}
				}
				b.Claim(fmt.Sprintf("s%d", s), obj, attr, v)
			}
		}
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiscoverDefaults(t *testing.T) {
	d := publicDataset(t, 60, 1)
	res, err := tdac.Discover(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) == 0 {
		t.Fatal("no predictions")
	}
	if res.Partition.Size() != 6 {
		t.Errorf("partition covers %d attrs, want 6", res.Partition.Size())
	}
	rep := tdac.Evaluate(d, res.Truth)
	if rep.Accuracy < 0.9 {
		t.Errorf("accuracy = %v, want >= 0.9", rep.Accuracy)
	}
	if len(res.Partition) != 2 {
		t.Errorf("expected the 2 planted groups, got %s", res.Partition)
	}
}

func TestDiscoverOptions(t *testing.T) {
	d := publicDataset(t, 40, 2)
	res, err := tdac.Discover(d,
		tdac.WithBase("MajorityVote"),
		tdac.WithReference("MajorityVote"),
		tdac.WithKRange(2, 3),
		tdac.WithWorkers(2),
		tdac.WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partition) > 3 {
		t.Errorf("k range [2,3] produced %d groups", len(res.Partition))
	}
}

func TestDiscoverSparseAware(t *testing.T) {
	d := publicDataset(t, 40, 3)
	res, err := tdac.Discover(d, tdac.WithSparseAware())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) == 0 {
		t.Error("sparse-aware mode produced nothing")
	}
}

func TestDiscoverRejectsBadOptions(t *testing.T) {
	d := publicDataset(t, 10, 4)
	if _, err := tdac.Discover(d, tdac.WithBase("nope")); err == nil {
		t.Error("accepted unknown base algorithm")
	}
	if _, err := tdac.Discover(d, tdac.WithReference("nope")); err == nil {
		t.Error("accepted unknown reference algorithm")
	}
	if _, err := tdac.Discover(d, tdac.WithKRange(1, 5)); err == nil {
		t.Error("accepted minK < 2")
	}
	if _, err := tdac.Discover(d, tdac.WithKRange(4, 3)); err == nil {
		t.Error("accepted maxK < minK")
	}
}

func TestRunEveryRegisteredAlgorithm(t *testing.T) {
	d := publicDataset(t, 25, 5)
	for _, name := range tdac.Algorithms() {
		res, err := tdac.Run(d, name)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		if res.Algorithm != name {
			t.Errorf("Run(%s).Algorithm = %q", name, res.Algorithm)
		}
		if len(res.Truth) == 0 {
			t.Errorf("Run(%s) produced no truth", name)
		}
	}
	if _, err := tdac.Run(d, "bogus"); err == nil {
		t.Error("Run accepted an unknown algorithm")
	}
}

func TestAlgorithmsListStable(t *testing.T) {
	names := tdac.Algorithms()
	if len(names) != 13 {
		t.Errorf("registry has %d algorithms, want 13", len(names))
	}
	for _, want := range []string{"MajorityVote", "TruthFinder", "Accu", "AccuSim", "Depen"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("algorithm %s missing", want)
		}
	}
}

func TestCSVRoundTripThroughPublicAPI(t *testing.T) {
	d := publicDataset(t, 10, 6)
	var claims, truth bytes.Buffer
	if err := tdac.WriteClaimsCSV(&claims, d); err != nil {
		t.Fatal(err)
	}
	if err := tdac.WriteTruthCSV(&truth, d); err != nil {
		t.Fatal(err)
	}
	d2, err := tdac.ReadClaimsCSV(&claims, "reloaded")
	if err != nil {
		t.Fatal(err)
	}
	if err := tdac.ReadTruthCSV(&truth, d2); err != nil {
		t.Fatal(err)
	}
	if d2.NumClaims() != d.NumClaims() || len(d2.Truth) != len(d.Truth) {
		t.Error("CSV round trip lost data")
	}
}

func TestJSONRoundTripThroughPublicAPI(t *testing.T) {
	d := publicDataset(t, 10, 7)
	var buf bytes.Buffer
	if err := tdac.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := tdac.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumClaims() != d.NumClaims() {
		t.Error("JSON round trip lost claims")
	}
}

func TestComputeStats(t *testing.T) {
	d := publicDataset(t, 10, 8)
	st := tdac.ComputeStats(d)
	if st.Sources != 8 || st.Attrs != 6 || st.Objects != 10 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "public") {
		t.Errorf("stats string = %q", st.String())
	}
}

func TestPartitionRendering(t *testing.T) {
	d := publicDataset(t, 30, 9)
	res, err := tdac.Discover(d, tdac.WithBase("MajorityVote"))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Partition.String()
	if !strings.HasPrefix(s, "[(") || !strings.HasSuffix(s, ")]") {
		t.Errorf("partition renders as %q", s)
	}
}

func TestTrustExposed(t *testing.T) {
	d := publicDataset(t, 40, 10)
	res, err := tdac.Discover(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trust) != d.NumSources() {
		t.Fatalf("trust entries = %d, want %d", len(res.Trust), d.NumSources())
	}
}

func TestPublicDatasetUtilities(t *testing.T) {
	d := publicDataset(t, 12, 11)
	half, rest, err := tdac.SplitObjects(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumClaims()+rest.NumClaims() != d.NumClaims() {
		t.Error("SplitObjects lost claims")
	}
	merged, err := tdac.Merge("again", half, rest)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumClaims() != d.NumClaims() {
		t.Error("Merge lost claims")
	}
	without := tdac.WithoutSource(d, 0)
	if without.NumClaims() >= d.NumClaims() {
		t.Error("WithoutSource removed nothing")
	}
	only := tdac.FilterSources(d, func(s tdac.SourceID, _ string) bool { return s == 0 })
	if only.NumClaims()+without.NumClaims() != d.NumClaims() {
		t.Error("FilterSources/WithoutSource do not partition the claims")
	}
	acc, n := tdac.SourceAccuracy(d)
	if len(acc) != d.NumSources() || len(n) != d.NumSources() {
		t.Error("SourceAccuracy shape wrong")
	}
}

func TestPublicCheckStability(t *testing.T) {
	d := publicDataset(t, 50, 12)
	st, err := tdac.CheckStability(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanRandIndex < 0.9 {
		t.Errorf("MeanRandIndex = %v on clean structure", st.MeanRandIndex)
	}
	if len(st.Modal) != 2 {
		t.Errorf("modal partition %s, want the 2 planted groups", st.Modal)
	}
	if _, err := tdac.CheckStability(d, 1); err == nil {
		t.Error("accepted runs < 2")
	}
	if _, err := tdac.CheckStability(d, 3, tdac.WithBase("nope")); err == nil {
		t.Error("accepted unknown base")
	}
}

func TestInspect(t *testing.T) {
	b := tdac.NewBuilder("inspect")
	b.Claim("s1", "o", "a", "x")
	b.Claim("s2", "o", "a", "x")
	b.Claim("s3", "o", "a", "y")
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tdac.Run(d, "MajorityVote")
	if err != nil {
		t.Fatal(err)
	}
	votes := tdac.Inspect(d, tdac.Cell{}, res.Truth, res.Trust)
	if len(votes) != 2 {
		t.Fatalf("votes = %+v", votes)
	}
	if votes[0].Value != "x" || !votes[0].Chosen || len(votes[0].Sources) != 2 {
		t.Errorf("top vote = %+v", votes[0])
	}
	if votes[1].Value != "y" || votes[1].Chosen {
		t.Errorf("second vote = %+v", votes[1])
	}
	if votes[0].TrustSum <= votes[1].TrustSum {
		t.Errorf("trust sums: %v vs %v", votes[0].TrustSum, votes[1].TrustSum)
	}
	// nil trust is allowed.
	votes = tdac.Inspect(d, tdac.Cell{}, res.Truth, nil)
	if votes[0].TrustSum != 0 {
		t.Error("nil trust should give zero sums")
	}
	// Unknown cell returns empty.
	if got := tdac.Inspect(d, tdac.Cell{Object: 9, Attr: 9}, res.Truth, nil); len(got) != 0 {
		t.Errorf("unknown cell votes = %+v", got)
	}
}

func TestEvaluatePerAttribute(t *testing.T) {
	d := publicDataset(t, 20, 13)
	res, err := tdac.Run(d, "MajorityVote")
	if err != nil {
		t.Fatal(err)
	}
	per := tdac.EvaluatePerAttribute(d, res.Truth)
	if len(per) != d.NumAttrs() {
		t.Fatalf("per-attribute entries = %d, want %d", len(per), d.NumAttrs())
	}
	for _, r := range per {
		if r.CellAccuracy < 0 || r.CellAccuracy > 1 || r.Cells == 0 {
			t.Errorf("report %+v out of range", r)
		}
	}
}
