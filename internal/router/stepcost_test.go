package router

import (
	"math/rand"
	"slices"
	"testing"

	"sadproute/internal/astar"
	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/rules"
)

// refStepCost is the map-based formulation of stepCostOn the flat penalty
// array and pin list replace: penalties keyed by cell, pins as a set.
func refStepCost(st *state, g *grid.Grid, pen map[grid.Cell]int, id int32, pins map[grid.Cell]bool) astar.StepCost {
	return func(from, to grid.Cell) (int, bool) {
		extra := pen[to]
		if to.L != from.L && (pins[from] || pins[to]) {
			extra += 6 * st.opt.Alpha * astar.Scale
		}
		if to.L == from.L {
			if st.opt.Gamma2 > 0 {
				ahead := grid.Cell{X: to.X + (to.X - from.X), Y: to.Y + (to.Y - from.Y), L: to.L}
				if g.In(ahead) {
					if v := g.At(ahead); v >= 0 && v != id {
						extra += st.opt.Gamma2 * st.opt.Alpha
					}
				}
			}
			if st.opt.DirPenalty > 0 {
				horizStep := to.X != from.X
				if horizStep != (to.L%2 == 0) {
					extra += st.opt.DirPenalty
				}
			}
		}
		return extra, true
	}
}

// stepFixture is a small occupied grid plus a random walk of legal steps
// (planar and via) to price.
type stepFixture struct {
	st    *state
	g     *grid.Grid
	pins  []grid.Cell
	steps [][2]grid.Cell
}

func newStepFixture(rng *rand.Rand) *stepFixture {
	g := grid.New(24, 20, 3, rules.Node10nm())
	g.Block(1, geom.Rect{X0: 5, Y0: 5, X1: 9, Y1: 7})
	for i := 0; i < 120; i++ {
		c := grid.Cell{X: rng.Intn(g.W), Y: rng.Intn(g.H), L: rng.Intn(g.Layers)}
		if g.At(c) == grid.Free {
			g.Occupy(c, int32(rng.Intn(6)))
		}
	}
	f := &stepFixture{st: &state{g: g, opt: Defaults()}, g: g}
	for i := 0; i < 4; i++ {
		f.pins = append(f.pins, grid.Cell{X: rng.Intn(g.W), Y: rng.Intn(g.H), L: rng.Intn(g.Layers)})
	}
	dirs := [6]grid.Cell{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {L: 1}, {L: -1}}
	c := f.pins[0]
	for len(f.steps) < 2000 {
		d := dirs[rng.Intn(len(dirs))]
		nc := grid.Cell{X: c.X + d.X, Y: c.Y + d.Y, L: c.L + d.L}
		if !g.In(nc) {
			continue
		}
		f.steps = append(f.steps, [2]grid.Cell{c, nc})
		c = nc
		if rng.Intn(50) == 0 { // occasionally jump onto a pin
			c = f.pins[rng.Intn(len(f.pins))]
		}
	}
	return f
}

func (f *stepFixture) compare(t *testing.T, what string, got, want astar.StepCost) {
	t.Helper()
	for _, s := range f.steps {
		ge, gok := got(s[0], s[1])
		we, wok := want(s[0], s[1])
		if ge != we || gok != wok {
			t.Fatalf("%s: step %v->%v = (%d,%v), map reference (%d,%v)", what, s[0], s[1], ge, gok, we, wok)
		}
	}
}

// TestStepCostMatchesMapReference checks the flat-penalty, pin-list step
// cost against the map-based reference over random bump sequences,
// including the nil penalty array before the first bump, findBlockers'
// empty pin set, and an episode clone taken mid-sequence.
func TestStepCostMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 20; round++ {
		f := newStepFixture(rng)
		st, g := f.st, f.g
		id := int32(rng.Intn(6))
		pinSet := map[grid.Cell]bool{}
		for _, c := range f.pins {
			pinSet[c] = true
		}
		refPen := map[grid.Cell]int{}

		if st.pen != nil {
			t.Fatal("penalty array allocated before the first bump")
		}
		f.compare(t, "nil penalty", st.stepCostOn(g, st.pen, id, f.pins), refStepCost(st, g, refPen, id, pinSet))
		f.compare(t, "nil penalty, no pins", st.stepCostOn(g, st.pen, id, nil), refStepCost(st, g, refPen, id, map[grid.Cell]bool{}))

		var clone penalty
		var cloneRef map[grid.Cell]int
		bumps := 1 + rng.Intn(300)
		for b := 0; b < bumps; b++ {
			c := grid.Cell{X: rng.Intn(g.W), Y: rng.Intn(g.H), L: rng.Intn(g.Layers)}
			v := []int{6, 4, 32}[rng.Intn(3)] * st.opt.Alpha
			st.pen.bump(g, c, v)
			refPen[c] += v
			if b == bumps/2 {
				clone = slices.Clone(st.pen)
				cloneRef = make(map[grid.Cell]int, len(refPen))
				for k, v := range refPen {
					cloneRef[k] = v
				}
			}
		}
		if len(st.pen) != g.Cells() {
			t.Fatalf("penalty array has %d entries, grid %d cells", len(st.pen), g.Cells())
		}
		f.compare(t, "bumped", st.stepCostOn(g, st.pen, id, f.pins), refStepCost(st, g, refPen, id, pinSet))
		f.compare(t, "bumped, no pins", st.stepCostOn(g, st.pen, id, nil), refStepCost(st, g, refPen, id, map[grid.Cell]bool{}))
		// Later bumps of st.pen must not leak into the episode's clone.
		f.compare(t, "episode clone", st.stepCostOn(g, clone, id, f.pins), refStepCost(st, g, cloneRef, id, pinSet))
	}
}

// TestStepCostAllocsZero pins the hot closure to zero allocations per
// call, with and without a penalty array.
func TestStepCostAllocsZero(t *testing.T) {
	f := newStepFixture(rand.New(rand.NewSource(1)))
	for _, bumped := range []bool{false, true} {
		if bumped {
			for _, s := range f.steps[:200] {
				f.st.pen.bump(f.g, s[1], 4)
			}
		}
		step := f.st.stepCostOn(f.g, f.st.pen, 2, f.pins)
		avg := testing.AllocsPerRun(20, func() {
			for _, s := range f.steps {
				step(s[0], s[1])
			}
		})
		if avg != 0 {
			t.Fatalf("step cost (penalty allocated: %v) allocates %.1f objects per %d calls, want 0", bumped, avg, len(f.steps))
		}
	}
}

// BenchmarkStepCost prices one A* step: the closure the engine calls for
// every neighbor it relaxes, with a populated penalty array and a
// two-pin, one-candidate net.
func BenchmarkStepCost(b *testing.B) {
	f := newStepFixture(rand.New(rand.NewSource(1)))
	for _, s := range f.steps[:400] {
		f.st.pen.bump(f.g, s[1], 4)
	}
	step := f.st.stepCostOn(f.g, f.st.pen, 2, f.pins[:2])
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		s := f.steps[i%len(f.steps)]
		e, _ := step(s[0], s[1])
		sum += e
	}
	if sum < 0 {
		b.Fatal("negative step cost")
	}
}
