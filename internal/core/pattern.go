package core

import (
	"math"
	"math/bits"

	"harvsim/internal/la"
)

// Jacobian block indices into stampPattern, in the order of paper Eq. 2.
const (
	blkXX = iota
	blkXY
	blkYX
	blkYY
)

// stampPattern records which positions of the four Jacobian blocks
// (Jxx, Jxy, Jyx, Jyy) a Stamp has written since the storage was last
// cleared, and compiles them into entry lists. Every other position
// still holds the zero System.Build wrote, so the engine's step products
// and its Jacobian-change monitor run over the lists alone.
//
// Block models are sparse: a Dickson multiplier couples each stage only
// to its neighbours, so on the Table I grid the lists hold 13-34 of
// Jxx's 64-225 entries. Skipping a 0·v term leaves a row sum's bits
// unchanged for finite v: the sum starts at +0 and can never become -0,
// and s + (±0) == s for every other s. Non-finite inputs are handled in
// mulVec so that a diverging march fails exactly as the dense product
// would make it fail.
//
// The pattern lives beside the Jacobians: in the pooled Workspace when
// the system has one, so a warm same-shape job reuses its storage. It
// also holds the change monitor's per-entry snapshot, which has to move
// with the entries when the pattern grows.
type stampPattern struct {
	rows, cols [4]int
	mask       [4][]uint64 // bit r*cols+c set: position stamped

	// Entry e of block b, span[b] <= e < span[b+1], is position
	// (row[e], col[e]); each block's entries are in row-major order.
	// prev[e] is the change monitor's snapshot of that entry (see
	// Engine.jacChange).
	span     [5]int
	row, col []int32
	prev     []float64

	gen      int // bumped whenever a position is stamped for the first time
	compiled int // gen the lists were compiled at
}

// newStampPattern returns an empty pattern for an nx-state, ny-terminal
// system. The entry lists grow on the first compile to the pattern's
// size.
func newStampPattern(nx, ny int) *stampPattern {
	p := &stampPattern{
		rows: [4]int{nx, nx, ny, ny},
		cols: [4]int{nx, ny, nx, ny},
	}
	for b := range p.mask {
		p.mask[b] = make([]uint64, (p.rows[b]*p.cols[b]+63)/64)
	}
	return p
}

// reset forgets every stamped position (System.Build, alongside zeroing
// the Jacobians).
func (p *stampPattern) reset() {
	for b := range p.mask {
		clear(p.mask[b])
	}
	p.span = [5]int{}
	p.row, p.col, p.prev = p.row[:0], p.col[:0], p.prev[:0]
	p.gen, p.compiled = 0, 0
}

// set writes v at (i, j) of block b's matrix m and records the position.
func (p *stampPattern) set(b int, m *la.Matrix, i, j int, v float64) {
	k := i*m.Cols + j
	m.Data[k] = v
	if w, bit := k>>6, uint64(1)<<(k&63); p.mask[b][w]&bit == 0 {
		p.mask[b][w] |= bit
		p.gen++
	}
}

// stamped reports whether position k of block b has been stamped.
func (p *stampPattern) stamped(b, k int) bool {
	return p.mask[b][k>>6]&(1<<(k&63)) != 0
}

// sync recompiles the entry lists when a new position was stamped since
// the last compile.
func (p *stampPattern) sync() {
	if p.gen != p.compiled {
		p.compile()
	}
}

// compile rebuilds the entry lists from the masks. An entry already in
// the lists keeps its snapshot; a position that joins them starts from
// 0, the value an unstamped position held at every earlier snapshot.
// compile allocates only when the pattern outgrows every earlier
// pattern on this storage.
func (p *stampPattern) compile() {
	n := 0
	for b := range p.mask {
		for _, w := range p.mask[b] {
			n += bits.OnesCount64(w)
		}
	}
	old := len(p.row)
	if cap(p.row) < n {
		p.row = append(make([]int32, 0, n), p.row...)
		p.col = append(make([]int32, 0, n), p.col...)
		p.prev = append(make([]float64, 0, n), p.prev...)
	}
	// Positions are only ever added, so the old entries are a
	// subsequence of the new ones. Merging from the back in place reads
	// old entry j before any new entry i >= j overwrites its slot.
	oldSpan, j, i := p.span, old, n
	p.row, p.col, p.prev = p.row[:n], p.col[:n], p.prev[:n]
	for b := len(p.mask) - 1; b >= 0; b-- {
		p.span[b+1] = i
		cols := p.cols[b]
		for k := p.rows[b]*cols - 1; k >= 0; k-- {
			if !p.stamped(b, k) {
				continue
			}
			r, c, v := int32(k/cols), int32(k%cols), 0.0
			if j > oldSpan[b] && p.row[j-1] == r && p.col[j-1] == c {
				j--
				v = p.prev[j]
			}
			i--
			p.row[i], p.col[i], p.prev[i] = r, c, v
		}
	}
	p.span[0] = 0
	p.compiled = p.gen
}

// entries returns block b's stamped positions as parallel row and
// column lists, with the change monitor's snapshot of each.
func (p *stampPattern) entries(b int) (row, col []int32, prev []float64) {
	lo, hi := p.span[b], p.span[b+1]
	return p.row[lo:hi], p.col[lo:hi], p.prev[lo:hi]
}

// mulVec computes dst = m*x for block b's matrix m. Each row's terms are
// added in column order onto +0, as in the dense product, but only over
// the stamped positions, so for finite x the result is bit-identical.
// When x holds a non-finite entry, a row whose unstamped positions meet
// it becomes NaN, as the dense sum's 0·Inf or 0·NaN term would make it
// (only the payload bits of that NaN may differ from the dense sum's).
func (p *stampPattern) mulVec(dst []float64, b int, m *la.Matrix, x []float64) {
	clear(dst)
	row, col, _ := p.entries(b)
	a, n := m.Data, m.Cols
	for e, r := range row {
		c := int(col[e])
		dst[r] += a[int(r)*n+c] * x[c]
	}
	if !la.AllFinite(x) {
		p.poisonSkipped(dst, b, x)
	}
}

// poisonSkipped sets dst[r] to NaN for every row r of block b with an
// unstamped position in a column where x is not finite.
func (p *stampPattern) poisonSkipped(dst []float64, b int, x []float64) {
	for r := range dst {
		for c, v := range x {
			if v-v != 0 && !p.stamped(b, r*p.cols[b]+c) {
				dst[r] = math.NaN()
				break
			}
		}
	}
}
