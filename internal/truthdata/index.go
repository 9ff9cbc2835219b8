package truthdata

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// ValueID identifies a distinct value within one cell's candidate set.
type ValueID int

// CellClaims groups, for one cell, the distinct candidate values and which
// sources vote for each of them.
type CellClaims struct {
	Cell Cell
	// Values are the distinct claimed values, sorted lexicographically so
	// that ValueIDs are deterministic.
	Values []string
	// Voters[v] lists the sources claiming Values[v], ascending.
	Voters [][]SourceID
}

// NumValues returns the number of distinct claimed values for the cell.
func (cc *CellClaims) NumValues() int { return len(cc.Values) }

// ValueOf returns the ValueID of val and whether it is claimed at all.
func (cc *CellClaims) ValueOf(val string) (ValueID, bool) {
	// Values is sorted; binary search keeps hot loops allocation-free.
	lo, hi := 0, len(cc.Values)
	for lo < hi {
		mid := (lo + hi) / 2
		if cc.Values[mid] < val {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cc.Values) && cc.Values[lo] == val {
		return ValueID(lo), true
	}
	return -1, false
}

// SourceClaim is one claim as seen from a source's perspective: the index
// of the cell in Index.Cells and the ValueID the source voted for.
type SourceClaim struct {
	CellIdx int
	Value   ValueID
}

// Index is the compiled, read-only view of a Dataset that algorithms
// iterate over. Building it once per run keeps every iteration of every
// algorithm free of map lookups on string keys.
type Index struct {
	Dataset *Dataset
	// Cells lists all claimed cells in deterministic order.
	Cells []CellClaims
	// CellIdx maps a Cell to its position in Cells.
	CellIdx map[Cell]int
	// BySource[s] lists the claims of source s, ordered by CellIdx.
	BySource [][]SourceClaim
	// TruthValue[i] is the ValueID of the ground-truth value of Cells[i]
	// within its candidate set, or -1 when the truth is unknown or was
	// claimed by no source.
	TruthValue []ValueID

	// flatOnce guards the lazily-built CSR adjacency; see Flat.
	flatOnce sync.Once
	flat     *Flat
}

// NewIndex compiles d. The dataset must be valid (see Dataset.Validate);
// duplicate identical claims collapse to a single vote.
//
// The build needs no maps. Two stable counting sorts, by attribute and
// then by object, order the claim positions by cell, so every cell is a
// contiguous run in (object, attr) order. Sorting each run by (value,
// source) makes every candidate value a sub-run, in lexicographic order,
// and its voters ascending, with duplicates collapsed as the sub-run is
// read. Values, voters and per-source claims are carved from one backing
// array each. Sorting per cell, not per object, keeps the comparison
// sorts small even when one object carries every claim (the Exam
// datasets).
func NewIndex(d *Dataset) *Index {
	claims := d.Claims
	order := make([]int32, len(claims))
	for i := range order {
		order[i] = int32(i)
	}
	order = countingSort(claims, order, len(d.Attrs), func(c *Claim) int { return int(c.Attr) })
	order = countingSort(claims, order, len(d.Objects), func(c *Claim) int { return int(c.Object) })

	// Cut order into cells, sort each cell and size the fact and vote
	// spaces; a vote is a claim that does not repeat its predecessor's
	// (value, source).
	byValueSource := func(a, b int32) int {
		ca, cb := &claims[a], &claims[b]
		if c := strings.Compare(ca.Value, cb.Value); c != 0 {
			return c
		}
		return cmp.Compare(ca.Source, cb.Source)
	}
	var cellEnd []int
	nFacts, nVotes := 0, 0
	for lo := 0; lo < len(order); {
		cell := claims[order[lo]].Cell()
		hi := lo + 1
		for hi < len(order) && claims[order[hi]].Cell() == cell {
			hi++
		}
		run := order[lo:hi]
		slices.SortFunc(run, byValueSource)
		for k, p := range run {
			c := &claims[p]
			switch {
			case k == 0 || claims[run[k-1]].Value != c.Value:
				nFacts++
				nVotes++
			case claims[run[k-1]].Source != c.Source:
				nVotes++
			}
		}
		cellEnd = append(cellEnd, hi)
		lo = hi
	}

	idx := &Index{
		Dataset:    d,
		Cells:      make([]CellClaims, len(cellEnd)),
		CellIdx:    make(map[Cell]int, len(cellEnd)),
		TruthValue: make([]ValueID, len(cellEnd)),
	}
	values := make([]string, 0, nFacts)
	voterRows := make([][]SourceID, 0, nFacts)
	voters := make([]SourceID, 0, nVotes)
	lo := 0
	for i, hi := range cellEnd {
		run := order[lo:hi]
		lo = hi
		firstFact := len(values)
		for k := 0; k < len(run); {
			val := claims[run[k]].Value
			firstVoter := len(voters)
			for ; k < len(run) && claims[run[k]].Value == val; k++ {
				if s := claims[run[k]].Source; len(voters) == firstVoter || voters[len(voters)-1] != s {
					voters = append(voters, s)
				}
			}
			values = append(values, val)
			voterRows = append(voterRows, voters[firstVoter:len(voters):len(voters)])
		}
		cell := claims[run[0]].Cell()
		cc := CellClaims{
			Cell:   cell,
			Values: values[firstFact:len(values):len(values)],
			Voters: voterRows[firstFact:len(voterRows):len(voterRows)],
		}
		idx.Cells[i] = cc
		idx.CellIdx[cell] = i
		idx.TruthValue[i] = -1
		if v, ok := d.Truth[cell]; ok {
			if vid, ok := cc.ValueOf(v); ok {
				idx.TruthValue[i] = vid
			}
		}
	}
	idx.BySource = bySource(idx.Cells, len(d.Sources))
	return idx
}

// countingSort stably reorders the claim positions in by key, which maps
// every claim into [0, n).
func countingSort(claims []Claim, in []int32, n int, key func(*Claim) int) []int32 {
	start := make([]int32, n+1)
	for _, p := range in {
		start[key(&claims[p])+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	out := make([]int32, len(in))
	for _, p := range in {
		k := key(&claims[p])
		out[start[k]] = p
		start[k]++
	}
	return out
}

// Restrict returns a view of ix over the cells of the given attributes,
// plus each view cell's position in ix.Cells. Attribute ids outside the
// dataset and repeats are ignored, as in Dataset.Project.
//
// The view is the index NewIndex(d.Project(attrs)) would compile, minus
// the copy: Project's attribute remap is monotone, so the projection's
// cell, value and voter orders are the parent's, and an algorithm run on
// the view sums every per-fact term in the same order as on the
// projection. Cells share the parent's Values and Voters storage and
// keep their original AttrID (so results need no remapping), the view's
// Dataset is the parent's, and only BySource is rebuilt, into one
// backing array.
func (ix *Index) Restrict(attrs []AttrID) (*Index, []int) {
	keep := make([]bool, ix.Dataset.NumAttrs())
	for _, a := range attrs {
		if a >= 0 && int(a) < len(keep) {
			keep[a] = true
		}
	}
	var pos []int
	for i := range ix.Cells {
		if keep[ix.Cells[i].Cell.Attr] {
			pos = append(pos, i)
		}
	}
	view := &Index{
		Dataset:    ix.Dataset,
		Cells:      make([]CellClaims, len(pos)),
		CellIdx:    make(map[Cell]int, len(pos)),
		TruthValue: make([]ValueID, len(pos)),
	}
	for vi, i := range pos {
		view.Cells[vi] = ix.Cells[i]
		view.CellIdx[ix.Cells[i].Cell] = vi
		view.TruthValue[vi] = ix.TruthValue[i]
	}
	view.BySource = bySource(view.Cells, len(ix.BySource))
	return view, pos
}

// bySource inverts the cells' voter lists into one claim list per
// source, ordered by cell index and carved from a single backing array.
// Sources that claim nothing keep a nil list.
func bySource(cells []CellClaims, nSources int) [][]SourceClaim {
	counts := make([]int, nSources)
	total := 0
	for i := range cells {
		for _, vs := range cells[i].Voters {
			for _, s := range vs {
				counts[s]++
			}
			total += len(vs)
		}
	}
	rows := make([][]SourceClaim, nSources)
	backing := make([]SourceClaim, total)
	off := 0
	for s, n := range counts {
		if n > 0 {
			rows[s] = backing[off : off : off+n]
		}
		off += n
	}
	for i := range cells {
		for v, vs := range cells[i].Voters {
			for _, s := range vs {
				rows[s] = append(rows[s], SourceClaim{CellIdx: i, Value: ValueID(v)})
			}
		}
	}
	return rows
}

// NumCells returns the number of claimed cells.
func (ix *Index) NumCells() int { return len(ix.Cells) }

// ClaimCount returns the total number of (deduplicated) claims.
func (ix *Index) ClaimCount() int {
	n := 0
	for _, sc := range ix.BySource {
		n += len(sc)
	}
	return n
}

// ValueText returns the string value of (cell i, value v).
func (ix *Index) ValueText(i int, v ValueID) string { return ix.Cells[i].Values[v] }
