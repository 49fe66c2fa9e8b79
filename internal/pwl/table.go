// Package pwl implements the piecewise-linear tabular device models of the
// paper (Section III-B). A nonlinear branch equation i = f(v) is sampled
// once, offline, into segments; during simulation each lookup returns the
// local companion pair (G, J) such that i ≈ G·v + J on the segment
// containing v. Because the explicit integration algorithm marches forward
// in time, the Jacobian values can be retrieved from the table in O(1)
// without evaluating the underlying physical equations, and — as the paper
// notes — the granularity of the table can be made arbitrarily fine
// without affecting simulation speed.
package pwl

import (
	"fmt"
	"math"
)

// Segment is one linear piece i = G·v + J valid on [V0, V1).
type Segment struct {
	V0, V1 float64
	G, J   float64
}

// Table is a uniform-grid piecewise-linear model of a scalar function.
// Uniform spacing makes the segment lookup a single multiply (O(1)),
// which is what makes table granularity free at simulation time.
type Table struct {
	vmin, vmax float64
	inv        float64 // 1/dv
	segs       []Segment
	// Slopes used outside the sampled window; linear extrapolation keeps
	// the simulated system passive rather than clamping current flat.
	loG, loJ float64
	hiG, hiJ float64
}

// Build samples f on [vmin, vmax] with n segments (n >= 1) and returns the
// table. f must be finite on the interval.
func Build(f func(v float64) float64, vmin, vmax float64, n int) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("pwl: need at least 1 segment, got %d", n)
	}
	if !(vmax > vmin) {
		return nil, fmt.Errorf("pwl: invalid interval [%g, %g]", vmin, vmax)
	}
	dv := (vmax - vmin) / float64(n)
	t := &Table{vmin: vmin, vmax: vmax, inv: 1 / dv, segs: make([]Segment, n)}
	prev := f(vmin)
	if math.IsNaN(prev) || math.IsInf(prev, 0) {
		return nil, fmt.Errorf("pwl: f(%g) is not finite", vmin)
	}
	v0 := vmin
	for k := 0; k < n; k++ {
		v1 := vmin + float64(k+1)*dv
		if k == n-1 {
			v1 = vmax // avoid accumulation error at the top edge
		}
		y1 := f(v1)
		if math.IsNaN(y1) || math.IsInf(y1, 0) {
			return nil, fmt.Errorf("pwl: f(%g) is not finite", v1)
		}
		g := (y1 - prev) / (v1 - v0)
		j := prev - g*v0
		t.segs[k] = Segment{V0: v0, V1: v1, G: g, J: j}
		prev = y1
		v0 = v1
	}
	first, last := t.segs[0], t.segs[n-1]
	t.loG, t.loJ = first.G, first.J
	t.hiG, t.hiJ = last.G, last.J
	return t, nil
}

// MustBuild is Build that panics on error; for package-level tables with
// constant arguments.
func MustBuild(f func(v float64) float64, vmin, vmax float64, n int) *Table {
	t, err := Build(f, vmin, vmax, n)
	if err != nil {
		panic(err)
	}
	return t
}

// NumSegments returns the table granularity.
func (t *Table) NumSegments() int { return len(t.segs) }

// Domain returns the sampled interval.
func (t *Table) Domain() (vmin, vmax float64) { return t.vmin, t.vmax }

// SegmentIndex returns the index of the segment containing v, with values
// outside the domain mapped to -1 (below) or NumSegments() (above). The
// index identity is what the linearised state-space engine uses to decide
// whether the Jacobian entries changed between time points (LLE control).
func (t *Table) SegmentIndex(v float64) int {
	if math.IsNaN(v) {
		return -1 // degenerate input: treat as off-table low
	}
	if v < t.vmin {
		return -1
	}
	if v >= t.vmax {
		return len(t.segs)
	}
	k := int((v - t.vmin) * t.inv)
	// Guard against floating-point edge effects at segment boundaries.
	if k >= len(t.segs) {
		k = len(t.segs) - 1
	}
	if k > 0 && v < t.segs[k].V0 {
		k--
	} else if v >= t.segs[k].V1 && k < len(t.segs)-1 {
		k++
	}
	return k
}

// Lookup returns the companion pair (G, J) for operating point v, i.e.
// f(v) ≈ G·v + J locally.
func (t *Table) Lookup(v float64) (g, j float64) {
	return t.pair(t.SegmentIndex(v))
}

// pair returns the companion pair of segment index k as SegmentIndex
// reports it: the edge slopes for the off-table indices.
func (t *Table) pair(k int) (g, j float64) {
	switch {
	case k < 0:
		return t.loG, t.loJ
	case k >= len(t.segs):
		return t.hiG, t.hiJ
	default:
		s := &t.segs[k]
		return s.G, s.J
	}
}

// Eval returns the PWL approximation of f at v.
func (t *Table) Eval(v float64) float64 {
	g, j := t.Lookup(v)
	return g*v + j
}

// MaxAbsError returns the maximum absolute deviation between the table and
// f measured on a grid of probes-per-segment points. Used in tests and in
// the granularity ablation.
func (t *Table) MaxAbsError(f func(v float64) float64, probesPerSegment int) float64 {
	if probesPerSegment < 1 {
		probesPerSegment = 1
	}
	var worst float64
	for _, s := range t.segs {
		for p := 0; p <= probesPerSegment; p++ {
			v := s.V0 + (s.V1-s.V0)*float64(p)/float64(probesPerSegment)
			if e := math.Abs(t.Eval(v) - f(v)); e > worst {
				worst = e
			}
		}
	}
	return worst
}
