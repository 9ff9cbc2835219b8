package truthdata

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIndexCellLayout(t *testing.T) {
	d := sampleDataset(t)
	ix := NewIndex(d)
	if got, want := ix.NumCells(), 4; got != want {
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	// Cell (o1, a1) has values blue/red sorted, with voters attached.
	i, ok := ix.CellIdx[Cell{Object: 0, Attr: 0}]
	if !ok {
		t.Fatal("cell (0,0) missing from index")
	}
	cc := ix.Cells[i]
	if len(cc.Values) != 2 || cc.Values[0] != "blue" || cc.Values[1] != "red" {
		t.Fatalf("values = %v, want [blue red]", cc.Values)
	}
	if len(cc.Voters[1]) != 2 {
		t.Errorf("red voters = %v, want two sources", cc.Voters[1])
	}
	if len(cc.Voters[0]) != 1 || cc.Voters[0][0] != 1 {
		t.Errorf("blue voters = %v, want [1]", cc.Voters[0])
	}
}

func TestIndexValueOf(t *testing.T) {
	d := sampleDataset(t)
	ix := NewIndex(d)
	cc := ix.Cells[ix.CellIdx[Cell{Object: 0, Attr: 0}]]
	if v, ok := cc.ValueOf("red"); !ok || v != 1 {
		t.Errorf("ValueOf(red) = %d,%v want 1,true", v, ok)
	}
	if v, ok := cc.ValueOf("blue"); !ok || v != 0 {
		t.Errorf("ValueOf(blue) = %d,%v want 0,true", v, ok)
	}
	if _, ok := cc.ValueOf("purple"); ok {
		t.Error("ValueOf(purple) found a value that was never claimed")
	}
	if _, ok := cc.ValueOf(""); ok {
		t.Error("ValueOf(\"\") found a value that was never claimed")
	}
}

func TestIndexTruthValue(t *testing.T) {
	d := sampleDataset(t)
	ix := NewIndex(d)
	i := ix.CellIdx[Cell{Object: 0, Attr: 0}]
	if got := ix.TruthValue[i]; ix.ValueText(i, got) != "red" {
		t.Errorf("TruthValue text = %q, want red", ix.ValueText(i, got))
	}
	// A truth value nobody claimed maps to -1.
	d2 := sampleDataset(t)
	d2.Truth[Cell{Object: 0, Attr: 0}] = "never-claimed"
	ix2 := NewIndex(d2)
	if got := ix2.TruthValue[ix2.CellIdx[Cell{Object: 0, Attr: 0}]]; got != -1 {
		t.Errorf("TruthValue for unclaimed truth = %d, want -1", got)
	}
}

func TestIndexBySourceSortedByCell(t *testing.T) {
	d := sampleDataset(t)
	ix := NewIndex(d)
	for s, claims := range ix.BySource {
		for i := 1; i < len(claims); i++ {
			if claims[i-1].CellIdx >= claims[i].CellIdx {
				t.Errorf("source %d claims not sorted by cell: %v", s, claims)
			}
		}
	}
}

func TestIndexDeduplicatesIdenticalClaims(t *testing.T) {
	d := sampleDataset(t)
	d.Claims = append(d.Claims, d.Claims[0], d.Claims[0])
	ix := NewIndex(d)
	if got, want := ix.ClaimCount(), 7; got != want {
		t.Errorf("ClaimCount = %d, want %d (duplicates collapsed)", got, want)
	}
}

func TestIndexClaimCountMatchesDataset(t *testing.T) {
	d := sampleDataset(t)
	ix := NewIndex(d)
	if got, want := ix.ClaimCount(), d.NumClaims(); got != want {
		t.Errorf("ClaimCount = %d, want %d", got, want)
	}
}

// TestIndexRoundTripProperty: every claim of a random dataset must be
// findable through the index, and the index must not invent claims.
func TestIndexRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("prop")
		nS, nO, nA := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(4)+1
		// Pre-intern so ids match the loop indexes below.
		for s := 0; s < nS; s++ {
			b.Source(string(rune('S' + s)))
		}
		for o := 0; o < nO; o++ {
			b.Object(string(rune('O' + o)))
		}
		for a := 0; a < nA; a++ {
			b.Attr(string(rune('A' + a)))
		}
		type key struct {
			s, o, a int
		}
		want := map[key]string{}
		for i := 0; i < rng.Intn(60); i++ {
			k := key{rng.Intn(nS), rng.Intn(nO), rng.Intn(nA)}
			v, ok := want[k]
			if !ok {
				v = string(rune('a' + rng.Intn(6)))
				want[k] = v
			}
			b.ClaimIDs(SourceID(k.s), ObjectID(k.o), AttrID(k.a), v)
		}
		d, err := b.Build()
		if err != nil {
			return false
		}
		ix := NewIndex(d)
		if ix.ClaimCount() != len(want) {
			return false
		}
		for k, v := range want {
			i, ok := ix.CellIdx[Cell{Object: ObjectID(k.o), Attr: AttrID(k.a)}]
			if !ok {
				return false
			}
			vid, ok := ix.Cells[i].ValueOf(v)
			if !ok {
				return false
			}
			found := false
			for _, s := range ix.Cells[i].Voters[vid] {
				if s == SourceID(k.s) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIndexValuesSortedProperty: candidate values of every cell must be
// sorted, which argmax tie-breaking depends on.
func TestIndexValuesSortedProperty(t *testing.T) {
	d := sampleDataset(t)
	ix := NewIndex(d)
	for _, cc := range ix.Cells {
		for i := 1; i < len(cc.Values); i++ {
			if cc.Values[i-1] >= cc.Values[i] {
				t.Errorf("cell %v values not sorted: %v", cc.Cell, cc.Values)
			}
		}
	}
}

// FuzzNewIndex pins the sort-based NewIndex to the map-based reference
// builder it replaced, field for field and through Flat.
func FuzzNewIndex(f *testing.F) {
	f.Add(int64(1), "")
	f.Add(int64(2), "x|y,z|\"|\n")
	f.Add(int64(3), "a|ab|a\x00b")
	f.Add(int64(42), "ü|u|U")
	f.Fuzz(func(t *testing.T, seed int64, raw string) {
		d := randomIndexDataset(seed, raw)
		if diff := indexDiff(NewIndex(d), referenceIndex(d)); diff != "" {
			t.Fatalf("seed %d: NewIndex differs from the reference: %s", seed, diff)
		}
	})
}

func TestNewIndexMatchesReference(t *testing.T) {
	cases := map[string]*Dataset{"sample": sampleDataset(t), "empty": {Name: "empty"}}
	dup := sampleDataset(t)
	dup.Claims = append(dup.Claims, dup.Claims[0], dup.Claims[3], dup.Claims[0])
	cases["duplicates"] = dup
	silent := sampleDataset(t)
	silent.Sources = append(silent.Sources, "silent")
	cases["silent source"] = silent
	for seed := int64(0); seed < 200; seed++ {
		cases[fmt.Sprintf("random %d", seed)] = randomIndexDataset(seed, "")
	}
	for name, d := range cases {
		if diff := indexDiff(NewIndex(d), referenceIndex(d)); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// FuzzIndexRestrict pins Index.Restrict to the projection it replaces on
// arbitrary attribute lists: repeats, out-of-range and negative ids
// included.
func FuzzIndexRestrict(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0})
	f.Add(int64(3), []byte{0, 1, 2, 3, 4})
	f.Add(int64(4), []byte{1, 1, 0xff, 9, 0x80})
	f.Fuzz(func(t *testing.T, seed int64, sel []byte) {
		d := randomIndexDataset(seed, "")
		attrs := make([]AttrID, len(sel))
		for i, b := range sel {
			attrs[i] = AttrID(int8(b))
		}
		if diff := restrictDiff(NewIndex(d), attrs); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
	})
}

func TestIndexRestrictTable(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		d := randomIndexDataset(seed, "")
		nA := AttrID(d.NumAttrs())
		all, reversed := make([]AttrID, nA), make([]AttrID, nA)
		for a := range all {
			all[a], reversed[a] = AttrID(a), nA-1-AttrID(a)
		}
		subsets := map[string][]AttrID{
			"nil":          nil,
			"empty":        {},
			"single":       {0},
			"last":         {nA - 1},
			"all":          all,
			"reversed":     reversed,
			"duplicated":   {0, 0, nA - 1, nA - 1},
			"out of range": {-1, nA, nA + 7},
			"mixed":        {nA, 0, -3, 0},
		}
		ix := NewIndex(d)
		for name, attrs := range subsets {
			if diff := restrictDiff(ix, attrs); diff != "" {
				t.Errorf("seed %d, %s: %s", seed, name, diff)
			}
		}
	}
}
