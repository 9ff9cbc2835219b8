package main

import (
	"fmt"
	"sort"

	"tdac"
	"tdac/client"
)

// outcome is the name-keyed form of a discovery result that every path
// is compared in: a direct tdac.Result and a decoded tdac-server job
// both reduce to it. It mirrors the server's rendering: each partition
// group's attribute names sorted, groups in partition order, truth sorted
// by (object, attribute), trust in source order.
type outcome struct {
	Partition  [][]string
	Silhouette float64
	Truth      []client.CellValue
	Trust      []client.TrustValue
}

// outcomeOf renders a direct result over dataset d.
func outcomeOf(d *tdac.Dataset, r *tdac.Result) *outcome {
	o := &outcome{Silhouette: r.Silhouette}
	for _, group := range r.Partition {
		names := make([]string, 0, len(group))
		for _, a := range group {
			names = append(names, d.AttrName(a))
		}
		sort.Strings(names)
		o.Partition = append(o.Partition, names)
	}
	o.Truth = make([]client.CellValue, 0, len(r.Truth))
	for cell, v := range r.Truth {
		o.Truth = append(o.Truth, client.CellValue{
			Object: d.ObjectName(cell.Object), Attribute: d.AttrName(cell.Attr), Value: v})
	}
	sort.Slice(o.Truth, func(i, j int) bool {
		a, b := o.Truth[i], o.Truth[j]
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Attribute < b.Attribute
	})
	for i, t := range r.Trust {
		o.Trust = append(o.Trust, client.TrustValue{Source: d.SourceName(tdac.SourceID(i)), Trust: t})
	}
	return o
}

// outcomeOfJob reduces a decoded terminal job; a job that did not finish
// with a TD-AC result is an error.
func outcomeOfJob(j *client.Job) (*outcome, error) {
	if j.State != "done" || j.Result == nil {
		return nil, fmt.Errorf("job %s ended %q without a result (%s)", j.ID, j.State, j.Error)
	}
	if j.Result.Silhouette == nil {
		return nil, fmt.Errorf("job %s: result has no silhouette", j.ID)
	}
	return &outcome{
		Partition:  j.Result.Partition,
		Silhouette: *j.Result.Silhouette,
		Truth:      j.Result.Truth,
		Trust:      j.Result.Trust,
	}, nil
}

// mismatch compares got against the oracle's want on partition,
// silhouette, truth and trust, and describes the first difference; ""
// means equal. Floats compare exactly: JSON round-trips float64 without
// loss, and every path is pinned bit-identical to tdac.Discover.
func mismatch(want, got *outcome) string {
	if len(want.Partition) != len(got.Partition) {
		return fmt.Sprintf("partition %v, want %v", got.Partition, want.Partition)
	}
	for i := range want.Partition {
		if fmt.Sprint(want.Partition[i]) != fmt.Sprint(got.Partition[i]) {
			return fmt.Sprintf("partition %v, want %v", got.Partition, want.Partition)
		}
	}
	if want.Silhouette != got.Silhouette {
		return fmt.Sprintf("silhouette %v, want %v", got.Silhouette, want.Silhouette)
	}
	if len(want.Truth) != len(got.Truth) {
		return fmt.Sprintf("%d truth cells, want %d", len(got.Truth), len(want.Truth))
	}
	for i, w := range want.Truth {
		g := got.Truth[i]
		if w.Object != g.Object || w.Attribute != g.Attribute || w.Value != g.Value {
			return fmt.Sprintf("truth cell %d = %s/%s:%q, want %s/%s:%q",
				i, g.Object, g.Attribute, g.Value, w.Object, w.Attribute, w.Value)
		}
	}
	if len(want.Trust) != len(got.Trust) {
		return fmt.Sprintf("%d trust values, want %d", len(got.Trust), len(want.Trust))
	}
	for i, w := range want.Trust {
		if g := got.Trust[i]; g != w {
			return fmt.Sprintf("trust %s = %v, want %s = %v", g.Source, g.Trust, w.Source, w.Trust)
		}
	}
	return ""
}
