package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"harvsim/internal/la"
)

// TestPatternMulVecNonFinite pins mulVec to the dense product it
// replaces on random sparse patterns: bit-identical for finite inputs,
// and with a non-finite input entry every row is NaN, ±Inf or finite
// exactly where the dense row sum is (NaN payloads aside).
func TestPatternMulVecNonFinite(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	class := func(v float64) int {
		switch {
		case math.IsNaN(v):
			return 0
		case math.IsInf(v, 1):
			return 1
		case math.IsInf(v, -1):
			return 2
		}
		return 3
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 500; trial++ {
		nx, ny := 1+r.Intn(6), 1+r.Intn(6)
		p := newStampPattern(nx, ny)
		m := la.NewMatrix(nx, nx)
		for k := r.Intn(nx*nx + 1); k > 0; k-- {
			v := r.NormFloat64()
			if r.Intn(8) == 0 {
				v = 0 // a stamped zero stays in the pattern
			}
			p.set(blkXX, m, r.Intn(nx), r.Intn(nx), v)
		}
		p.sync()
		x := make([]float64, nx)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		finite := trial%2 == 0
		if !finite {
			for k := 1 + r.Intn(2); k > 0; k-- {
				x[r.Intn(nx)] = specials[r.Intn(len(specials))]
			}
		}
		got, want := make([]float64, nx), make([]float64, nx)
		p.mulVec(got, blkXX, m, x)
		m.MulVec(want, x)
		for i := range got {
			if finite && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d row %d: pattern %v, dense %v", trial, i, got[i], want[i])
			}
			if class(got[i]) != class(want[i]) {
				t.Fatalf("trial %d row %d (x=%v): pattern %v, dense %v", trial, i, x, got[i], want[i])
			}
		}
	}
}

// starBlock is a passive RC star driven from its terminal pair: node 0
// hangs off the terminal and every other node couples to node 0 only.
// It has the state and equation counts of a ladderBlock of the same
// size but a different stamp pattern.
type starBlock struct {
	ladderBlock
}

func (b *starBlock) Linearise(t float64, x, y []float64, st Stamp) bool {
	if b.stamped {
		return false
	}
	n := len(b.c)
	diag0 := b.gSer[0] + b.gSh[0]
	st.B(0, 0, b.gSer[0]/b.c[0])
	for i := 1; i < n; i++ {
		st.A(0, i, b.gSer[i]/b.c[0])
		st.A(i, 0, b.gSer[i]/b.c[i])
		st.A(i, i, -(b.gSer[i]+b.gSh[i])/b.c[i])
		diag0 += b.gSer[i]
	}
	st.A(0, 0, -diag0/b.c[0])
	st.D(0, 0, -b.gSer[0])
	st.D(0, 1, 1)
	st.C(0, 0, b.gSer[0])
	b.stamped = true
	return true
}

func (b *starBlock) JacNonlinear(t float64, x, y []float64, st Stamp) {
	b.stamped = false
	b.Linearise(t, x, y, st)
	b.stamped = false
}

// TestPooledWorkspaceAcrossPatterns runs two systems of one shape but
// different stamp patterns in turn on one WorkspacePool, so each job
// inherits the previous job's Jacobians, masks, entry lists and
// snapshot. Every run must reproduce its fresh-assembly result bit for
// bit.
func TestPooledWorkspaceAcrossPatterns(t *testing.T) {
	const n = 5
	build := func(star bool, pool *WorkspacePool) *System {
		sys := NewSystem()
		sys.UsePool(pool)
		sys.AddBlock(&srcBlock{name: "src", v: func(t float64) float64 { return math.Sin(300 * t) }})
		lad := newLadder("net", rand.New(rand.NewSource(3)), n)
		if star {
			sys.AddBlock(&starBlock{*lad})
		} else {
			sys.AddBlock(lad)
		}
		return sys
	}
	type outcome struct {
		x        []float64
		stats    Stats
		row, col []int32 // compiled stamp pattern
	}
	run := func(star bool, pool *WorkspacePool) outcome {
		sys := build(star, pool)
		defer sys.Release()
		eng := NewEngine(sys)
		if err := eng.Run(0, 0.05); err != nil {
			t.Fatal(err)
		}
		return outcome{slices.Clone(eng.State()), eng.Stats, slices.Clone(sys.pat.row), slices.Clone(sys.pat.col)}
	}
	pool := NewWorkspacePool()
	a, b := build(false, nil), build(true, nil)
	a.MustBuild()
	b.MustBuild()
	if a.NX() != b.NX() || a.NY() != b.NY() {
		t.Fatalf("test premise broken: shapes %dx%d vs %dx%d", a.NX(), a.NY(), b.NX(), b.NY())
	}
	x, y := make([]float64, a.NX()), make([]float64, a.NY())
	a.Linearise(0, x, y)
	b.Linearise(0, x, y)
	a.pat.sync()
	b.pat.sync()
	if slices.Equal(a.pat.row, b.pat.row) && slices.Equal(a.pat.col, b.pat.col) {
		t.Fatal("test premise broken: ladder and star stamp the same pattern")
	}
	for i, star := range []bool{false, true, false, true} {
		got, want := run(star, pool), run(star, nil)
		if gets, hits := pool.Stats(); gets != i+1 || hits != i {
			t.Fatalf("job %d: pool served %d of %d gets from reuse", i, hits, gets)
		}
		same := got.stats == want.stats && slices.Equal(got.row, want.row) && slices.Equal(got.col, want.col)
		for k := range got.x {
			same = same && math.Float64bits(got.x[k]) == math.Float64bits(want.x[k])
		}
		if !same {
			t.Errorf("job %d (star=%v): pooled %+v, fresh %+v", i, star, got, want)
		}
	}
}

// TestStampPatternCompileKeepsSnapshot stamps random positions in rounds
// and recompiles after each. The entry lists must hold exactly the
// stamped positions, block by block in row-major order; an entry that
// was already listed keeps its snapshot, and a position that joins
// starts from 0.
func TestStampPatternCompileKeepsSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nx, ny := 1+r.Intn(5), 1+r.Intn(4)
		p := newStampPattern(nx, ny)
		mats := [4]*la.Matrix{la.NewMatrix(nx, nx), la.NewMatrix(nx, ny), la.NewMatrix(ny, nx), la.NewMatrix(ny, ny)}
		var want map[[3]int]float64 // (block, row, col) -> expected snapshot
		for round := 0; round < 8; round++ {
			if round%4 == 0 {
				// Halfway, reset: the recycled pattern must behave like
				// a new one.
				p.reset()
				want = map[[3]int]float64{}
			}
			for k := r.Intn(6); k > 0; k-- {
				b := r.Intn(4)
				i, j := r.Intn(mats[b].Rows), r.Intn(mats[b].Cols)
				p.set(b, mats[b], i, j, r.NormFloat64())
				if _, ok := want[[3]int{b, i, j}]; !ok {
					want[[3]int{b, i, j}] = 0
				}
			}
			p.sync()
			n := 0
			for b := range mats {
				row, col, prev := p.entries(b)
				for e := range row {
					key := [3]int{b, int(row[e]), int(col[e])}
					if e > 0 && (row[e] < row[e-1] || row[e] == row[e-1] && col[e] <= col[e-1]) {
						t.Fatalf("trial %d: block %d entries out of row-major order: %v %v", trial, b, row, col)
					}
					v, ok := want[key]
					if !ok {
						t.Fatalf("trial %d: unstamped position %v listed", trial, key)
					}
					if prev[e] != v {
						t.Fatalf("trial %d round %d: snapshot of %v = %v, want %v", trial, round, key, prev[e], v)
					}
					// Take a new snapshot for the next round to carry.
					prev[e] = float64(round*1000 + e + 1)
					want[key] = prev[e]
					n++
				}
			}
			if n != len(want) {
				t.Fatalf("trial %d: %d entries listed, %d positions stamped", trial, n, len(want))
			}
		}
	}
}

// lateBlock is a one-state decay whose coupling to a second state is
// first stamped at tJoin: the position joins the stamp pattern mid-run.
type lateBlock struct {
	tJoin, k float64
	joined   bool
}

func (b *lateBlock) Name() string          { return "late" }
func (b *lateBlock) NumStates() int        { return 2 }
func (b *lateBlock) NumEquations() int     { return 1 }
func (b *lateBlock) Terminals() []string   { return []string{"late.aux"} }
func (b *lateBlock) InitState(x []float64) { x[0], x[1] = 1, 1 }

func (b *lateBlock) Linearise(t float64, x, y []float64, st Stamp) bool {
	st.A(0, 0, -1)
	st.A(1, 1, -1)
	st.D(0, 0, 1)
	if t < b.tJoin || b.joined {
		return false
	}
	st.A(0, 1, b.k)
	b.joined = true
	return true
}

func (b *lateBlock) EvalNonlinear(t float64, x, y, fx, fy []float64)  {}
func (b *lateBlock) JacNonlinear(t float64, x, y []float64, st Stamp) {}

// TestJacChangeNewPositionComparesAgainstZero pins the change monitor
// for a position first stamped mid-run: its change is measured against
// 0, the value it held at the previous refresh, so the relative change
// is |k|/(1+0).
func TestJacChangeNewPositionComparesAgainstZero(t *testing.T) {
	blk := &lateBlock{tJoin: 0.5, k: 0.3}
	sys := NewSystem()
	sys.AddBlock(blk)
	eng := NewEngine(sys)
	if err := eng.Run(0, 1); err != nil {
		t.Fatal(err)
	}
	if !blk.joined {
		t.Fatal("test premise broken: the late position was never stamped")
	}
	if eng.Stats.MaxJacChange != blk.k {
		t.Fatalf("MaxJacChange = %v, want %v", eng.Stats.MaxJacChange, blk.k)
	}
}
