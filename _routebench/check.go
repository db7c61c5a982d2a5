package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"sadproute/internal/decomp"
	"sadproute/internal/drc"
	"sadproute/internal/grid"
	"sadproute/internal/netlist"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// output is one routed and evaluated instance: the router's result plus
// the oracle verdict the timed evaluation returned for it.
type output struct {
	nl   *netlist.Netlist
	res  *router.Result
	decs []*decomp.Result
	tot  decomp.Totals
}

// maxProblems caps the problems one check reports; the first few say
// what broke.
const maxProblems = 8

// problems collects check failures, each tagged with its kind.
type problems []string

func (p *problems) addf(kind, format string, args ...any) {
	if len(*p) < maxProblems {
		*p = append(*p, kind+": "+fmt.Sprintf(format, args...))
	}
}

// check verifies one output against Problem 1 and against itself, from
// the netlist and the result alone:
//
//   - every path is a unit-step chain from a candidate of pin A to a
//     candidate of pin B (either direction) over unblocked cells;
//   - no cell is on two nets' paths, and Result.Grid occupancy equals the
//     union of the paths, so unrouted nets own no cells;
//   - the oracle layouts carry exactly the path cells of each net;
//   - the oracle reports zero hard overlays, cut conflicts and violations,
//     drc.CheckDesign over the oracle's layouts and materials is Clean, and
//     its side overlay, hard overlay and conflict totals equal the oracle's.
//
// It returns the number of nets whose path passed, and what failed. The
// verifier call is recorded as a drc.CheckDesign span on tr.
func check(out output, ds rules.Set, tr *tracer, parent, trace int64) (routed int, bad problems) {
	nl, res := out.nl, out.res
	g := res.Grid
	if g == nil || g.W != nl.W || g.H != nl.H || g.Layers != nl.Layers {
		bad.addf("grid", "result grid does not match the %dx%dx%d netlist", nl.W, nl.H, nl.Layers)
		return 0, bad
	}
	idx := func(c grid.Cell) int { return (c.L*nl.H+c.Y)*nl.W + c.X }
	blocked := make([]bool, nl.W*nl.H*nl.Layers)
	for _, b := range nl.Blockages {
		for y := max(b.Rect.Y0, 0); y < min(b.Rect.Y1, nl.H); y++ {
			for x := max(b.Rect.X0, 0); x < min(b.Rect.X1, nl.W); x++ {
				blocked[idx(grid.Cell{X: x, Y: y, L: b.L})] = true
			}
		}
	}

	ids := make([]int, 0, len(res.Paths))
	for id := range res.Paths {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	owner := make([]int32, len(blocked))
	for i := range owner {
		owner[i] = -1
	}
	for _, id := range ids {
		if id < 0 || id >= len(nl.Nets) {
			bad.addf("path", "path for unknown net %d", id)
			continue
		}
		if checkPath(nl.Nets[id], res.Paths[id], g, blocked, owner, idx, &bad) {
			routed++
		}
	}
	pathCells := make([]int, len(nl.Nets)*nl.Layers) // distinct path cells per net and layer
	for l := 0; l < nl.Layers; l++ {
		for y := 0; y < nl.H; y++ {
			for x := 0; x < nl.W; x++ {
				c := grid.Cell{X: x, Y: y, L: l}
				at, want := g.At(c), owner[idx(c)]
				if at != want && (at >= 0 || want >= 0) {
					bad.addf("grid", "cell %v is owned by %d in the grid but by %d in the paths", c, at, want)
				}
				if want >= 0 {
					pathCells[int(want)*nl.Layers+l]++
				}
			}
		}
	}
	layouts := res.Layouts()
	checkLayouts(out, layouts, owner, pathCells, idx, &bad)

	if out.tot.HardOverlays != 0 || out.tot.Conflicts != 0 || out.tot.Violations != 0 {
		bad.addf("oracle", "hard overlays %d, cut conflicts %d, violations %d; all must be 0",
			out.tot.HardOverlays, out.tot.Conflicts, out.tot.Violations)
	}
	if len(out.decs) != len(layouts) {
		bad.addf("oracle", "%d oracle results for %d layers", len(out.decs), len(layouts))
		return routed, bad
	}
	layers := make([]drc.Layer, len(layouts))
	for l, ly := range layouts {
		layers[l] = drc.FromDecomp(ly, out.decs[l].Materials)
	}
	_, end := tr.begin("drc.CheckDesign", parent, trace)
	rep := drc.CheckDesign(layers, ds)
	end()
	if !rep.Clean() {
		bad.addf("drc", "not clean: %s", drcSummary(rep))
	}
	var side, hard, conf int
	for _, lr := range rep.Layers {
		side += lr.SideOverlayNM
		hard += lr.HardOverlays
		conf += lr.Conflicts
	}
	if side != out.tot.SideOverlayNM || hard != out.tot.HardOverlays || conf != out.tot.Conflicts {
		bad.addf("drc", "verifier totals side %d nm, hard %d, conflicts %d differ from the oracle's %d nm, %d, %d",
			side, hard, conf, out.tot.SideOverlayNM, out.tot.HardOverlays, out.tot.Conflicts)
	}
	return routed, bad
}

// checkPath verifies one net's path and claims its cells in owner. It
// reports whether the path passed.
func checkPath(n netlist.Net, path []grid.Cell, g *grid.Grid, blocked []bool, owner []int32,
	idx func(grid.Cell) int, bad *problems) bool {
	before := len(*bad)
	if len(path) == 0 {
		bad.addf("path", "net %d has an empty path", n.ID)
		return false
	}
	first, last := path[0], path[len(path)-1]
	if !(isCandidate(n.A, first) && isCandidate(n.B, last) || isCandidate(n.B, first) && isCandidate(n.A, last)) {
		bad.addf("endpoint", "net %d path runs %v..%v, not from a candidate of pin A to one of pin B", n.ID, first, last)
	}
	for i, c := range path {
		if !g.In(c) {
			bad.addf("path", "net %d cell %v is off the grid", n.ID, c)
			return false
		}
		if i > 0 && !unitStep(path[i-1], c) {
			bad.addf("step", "net %d steps %v -> %v", n.ID, path[i-1], c)
		}
		k := idx(c)
		if blocked[k] {
			bad.addf("blocked", "net %d uses blocked cell %v", n.ID, c)
		}
		if o := owner[k]; o >= 0 && int(o) != n.ID {
			bad.addf("short", "cell %v is on the paths of nets %d and %d", c, o, n.ID)
		}
		owner[k] = int32(n.ID)
	}
	return len(*bad) == before
}

// checkLayouts verifies that each net's oracle patterns cover exactly its
// path cells on every layer. Pattern rects are metal rectangles of cell
// runs: [x0*pitch, (x1-1)*pitch + w_line) in each axis.
func checkLayouts(out output, layouts []decomp.Layout, owner []int32, pathCells []int, idx func(grid.Cell) int, bad *problems) {
	nl, res := out.nl, out.res
	p, w := res.Grid.Rules.Pitch(), res.Grid.Rules.WLine
	toCells := func(lo, hi int) (int, int, bool) {
		if lo%p != 0 || (hi-w)%p != 0 {
			return 0, 0, false
		}
		return lo / p, (hi-w)/p + 1, true
	}
	covered := make([]bool, len(owner))
	patCells := make([]int, len(pathCells))
	for l, ly := range layouts {
		for _, pat := range ly.Pats {
			if pat.Net < 0 || pat.Net >= len(nl.Nets) {
				bad.addf("layout", "layer %d has a pattern of unknown net %d", l, pat.Net)
				continue
			}
			for _, r := range pat.Rects {
				x0, x1, okX := toCells(r.X0, r.X1)
				y0, y1, okY := toCells(r.Y0, r.Y1)
				if !okX || !okY || x0 < 0 || y0 < 0 || x1 > nl.W || y1 > nl.H {
					bad.addf("layout", "net %d layer %d rect %v is not on the track grid", pat.Net, l, r)
					continue
				}
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						k := idx(grid.Cell{X: x, Y: y, L: l})
						if int(owner[k]) != pat.Net {
							bad.addf("layout", "net %d layer %d pattern covers (%d,%d), which is not on its path", pat.Net, l, x, y)
						}
						if !covered[k] {
							covered[k] = true
							patCells[pat.Net*nl.Layers+l]++
						}
					}
				}
			}
		}
	}
	for i, n := range pathCells {
		if patCells[i] != n {
			bad.addf("layout", "net %d layer %d: patterns cover %d cells, the path has %d", i/nl.Layers, i%nl.Layers, patCells[i], n)
		}
	}
}

func isCandidate(p netlist.Pin, c grid.Cell) bool {
	for _, k := range p.Candidates {
		if k == c {
			return true
		}
	}
	return false
}

// unitStep reports whether a and b differ by one in exactly one coordinate.
func unitStep(a, b grid.Cell) bool {
	d := abs(a.X-b.X) + abs(a.Y-b.Y) + abs(a.L-b.L)
	return d == 1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// drcSummary names the first failures of a verifier report.
func drcSummary(rep *drc.Report) string {
	var parts []string
	for l, lr := range rep.Layers {
		if lr.HardOverlays > 0 || lr.Conflicts > 0 {
			parts = append(parts, fmt.Sprintf("layer %d: %d hard overlays, %d conflicts", l, lr.HardOverlays, lr.Conflicts))
		}
		for _, v := range append(append([]string(nil), lr.Violations...), lr.RuleErrs...) {
			parts = append(parts, fmt.Sprintf("layer %d: %s", l, v))
		}
	}
	parts = append(parts, rep.ConnErrs...)
	if len(parts) > 3 {
		parts = append(parts[:3], fmt.Sprintf("and %d more", len(parts)-3))
	}
	return strings.Join(parts, "; ")
}

// fingerprint hashes the paths and colors of a result in canonical order,
// so two runs that routed identically hash identically.
func fingerprint(nl *netlist.Netlist, res *router.Result) [32]byte {
	h := sha256.New()
	for id := range nl.Nets {
		if path, ok := res.Paths[id]; ok {
			fmt.Fprintf(h, "p %d", id)
			for _, c := range path {
				fmt.Fprintf(h, " %d,%d,%d", c.X, c.Y, c.L)
			}
			h.Write([]byte{'\n'})
		}
	}
	for l, colors := range res.Colors {
		for id := range nl.Nets {
			if c, ok := colors[id]; ok {
				fmt.Fprintf(h, "c %d %d %d\n", l, id, c)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
