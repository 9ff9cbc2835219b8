package truthdata

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
)

// referenceIndex is the map-based index builder NewIndex replaced: it
// accumulates a map[Cell] of per-value voter maps, then sorts cells,
// values and voters. It is kept as the differential reference for the
// sort-based build (FuzzNewIndex) and must not be optimised.
func referenceIndex(d *Dataset) *Index {
	type cellAcc struct {
		values map[string][]SourceID
	}
	acc := make(map[Cell]*cellAcc, len(d.Claims)/2+1)
	for _, c := range d.Claims {
		cell := c.Cell()
		a, ok := acc[cell]
		if !ok {
			a = &cellAcc{values: make(map[string][]SourceID, 4)}
			acc[cell] = a
		}
		a.values[c.Value] = append(a.values[c.Value], c.Source)
	}

	cells := make([]Cell, 0, len(acc))
	for c := range acc {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Object != cells[j].Object {
			return cells[i].Object < cells[j].Object
		}
		return cells[i].Attr < cells[j].Attr
	})

	idx := &Index{
		Dataset:    d,
		Cells:      make([]CellClaims, len(cells)),
		CellIdx:    make(map[Cell]int, len(cells)),
		BySource:   make([][]SourceClaim, len(d.Sources)),
		TruthValue: make([]ValueID, len(cells)),
	}
	for i, cell := range cells {
		a := acc[cell]
		vals := make([]string, 0, len(a.values))
		for v := range a.values {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		voters := make([][]SourceID, len(vals))
		for vi, v := range vals {
			srcs := a.values[v]
			sort.Slice(srcs, func(x, y int) bool { return srcs[x] < srcs[y] })
			// Collapse duplicate identical claims from the same source.
			dedup := srcs[:0]
			for k, s := range srcs {
				if k == 0 || srcs[k-1] != s {
					dedup = append(dedup, s)
				}
			}
			voters[vi] = dedup
		}
		idx.Cells[i] = CellClaims{Cell: cell, Values: vals, Voters: voters}
		idx.CellIdx[cell] = i

		idx.TruthValue[i] = -1
		if tv, ok := d.Truth[cell]; ok {
			if vid, ok := idx.Cells[i].ValueOf(tv); ok {
				idx.TruthValue[i] = vid
			}
		}
		for vi, vs := range voters {
			for _, s := range vs {
				idx.BySource[s] = append(idx.BySource[s], SourceClaim{CellIdx: i, Value: ValueID(vi)})
			}
		}
	}
	return idx
}

// hostileValues are claim values that stress value ordering and any
// accidental string splitting: CSV separators and quotes, newlines, NUL,
// shared prefixes, multi-byte runes and numeric look-alikes.
var hostileValues = []string{
	"v", "a", "ab", "a\x00", "a,b", `"q"`, "a\nb", " ", "ä", "Z", "1000", "1e3", "|", "\t",
}

// randomIndexDataset draws a valid dataset that exercises every corner
// of index compilation: sources with no claims, duplicate identical
// claims, shuffled claim order, hostile values (plus any extra values
// split from raw on '|'), and ground truth on unclaimed cells and on
// values no source claimed.
func randomIndexDataset(seed int64, raw string) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]string(nil), hostileValues...)
	for _, v := range strings.Split(raw, "|") {
		if v != "" {
			pool = append(pool, v)
		}
	}
	nS, nO, nA := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(5)
	d := &Dataset{Name: "rand", Truth: map[Cell]string{}}
	for s := 0; s < nS; s++ {
		d.Sources = append(d.Sources, fmt.Sprintf("s%d", s))
	}
	for o := 0; o < nO; o++ {
		d.Objects = append(d.Objects, fmt.Sprintf("o%d", o))
	}
	for a := 0; a < nA; a++ {
		d.Attrs = append(d.Attrs, fmt.Sprintf("a%d", a))
	}
	coverage := rng.Float64()
	for s := 0; s < nS; s++ {
		if rng.Intn(4) == 0 {
			continue // a source that claims nothing
		}
		for o := 0; o < nO; o++ {
			for a := 0; a < nA; a++ {
				if rng.Float64() >= coverage {
					continue
				}
				c := Claim{Source: SourceID(s), Object: ObjectID(o), Attr: AttrID(a), Value: pool[rng.Intn(len(pool))]}
				d.Claims = append(d.Claims, c)
				for rng.Intn(4) == 0 {
					d.Claims = append(d.Claims, c) // duplicate identical claim
				}
			}
		}
	}
	rng.Shuffle(len(d.Claims), func(i, j int) { d.Claims[i], d.Claims[j] = d.Claims[j], d.Claims[i] })
	for o := 0; o < nO; o++ {
		for a := 0; a < nA; a++ {
			cell := Cell{Object: ObjectID(o), Attr: AttrID(a)}
			switch rng.Intn(4) {
			case 1:
				d.Truth[cell] = pool[rng.Intn(len(pool))] // claimed or not
			case 2:
				d.Truth[cell] = "never-claimed"
			case 3:
				for _, c := range d.Claims {
					if c.Cell() == cell {
						d.Truth[cell] = c.Value
						break
					}
				}
			}
		}
	}
	return d
}

// indexDiff reports the first field on which two indexes over the same
// dataset differ, comparing the compiled Flat adjacencies too, or ""
// when they are equal field for field.
func indexDiff(got, want *Index) string {
	switch {
	case got.Dataset != want.Dataset:
		return "Dataset"
	case !reflect.DeepEqual(got.Cells, want.Cells):
		return fmt.Sprintf("Cells:\n got %v\nwant %v", got.Cells, want.Cells)
	case !reflect.DeepEqual(got.CellIdx, want.CellIdx):
		return fmt.Sprintf("CellIdx:\n got %v\nwant %v", got.CellIdx, want.CellIdx)
	case !reflect.DeepEqual(got.BySource, want.BySource):
		return fmt.Sprintf("BySource:\n got %v\nwant %v", got.BySource, want.BySource)
	case !reflect.DeepEqual(got.TruthValue, want.TruthValue):
		return fmt.Sprintf("TruthValue:\n got %v\nwant %v", got.TruthValue, want.TruthValue)
	case !reflect.DeepEqual(got.Flat(), want.Flat()):
		return fmt.Sprintf("Flat:\n got %+v\nwant %+v", got.Flat(), want.Flat())
	}
	return ""
}

// restrictDiff checks ix.Restrict(attrs) against the index of the
// projection it replaces, NewIndex(d.Project(attrs)) with attribute ids
// mapped back, and checks that the view's cells are the parent's cells
// at the reported positions, sharing their storage. It returns "" when
// everything holds.
func restrictDiff(ix *Index, attrs []AttrID) string {
	d := ix.Dataset
	view, pos := ix.Restrict(attrs)
	sub, backMap := d.Project(attrs)
	want := NewIndex(sub)
	want.Dataset = d
	for i := range want.Cells {
		want.Cells[i].Cell.Attr = backMap[want.Cells[i].Cell.Attr]
	}
	wantIdx := make(map[Cell]int, len(want.CellIdx))
	for c, i := range want.CellIdx {
		wantIdx[Cell{Object: c.Object, Attr: backMap[c.Attr]}] = i
	}
	want.CellIdx = wantIdx
	if diff := indexDiff(view, want); diff != "" {
		return fmt.Sprintf("attrs %v: view differs from the projection's index: %s", attrs, diff)
	}
	if len(pos) != len(view.Cells) {
		return fmt.Sprintf("attrs %v: %d positions for %d view cells", attrs, len(pos), len(view.Cells))
	}
	for i, p := range pos {
		vc, pc := &view.Cells[i], &ix.Cells[p]
		if !reflect.DeepEqual(*vc, *pc) {
			return fmt.Sprintf("attrs %v: view cell %d is not parent cell %d", attrs, i, p)
		}
		if &vc.Values[0] != &pc.Values[0] || &vc.Voters[0] != &pc.Voters[0] {
			return fmt.Sprintf("attrs %v: view cell %d copies the parent's values or voters", attrs, i)
		}
	}
	return ""
}
