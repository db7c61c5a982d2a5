// Package astar implements the grid A*-search engine underlying the
// paper's overlay-aware detailed router (Section III-E): multi-source /
// multi-target search over a 3-D routing grid with a pluggable step-cost
// hook, an admissible Manhattan heuristic, and path backtrace.
//
// Costs are integers in half-wirelength units so that the paper's
// gamma = 1.5 type-2-b weight stays exact.
package astar

import (
	"sync"

	"sadproute/internal/geom"
	"sadproute/internal/grid"
	"sadproute/internal/obs"
)

// StepCost prices a move from one cell to an adjacent cell (planar step or
// via). Returning ok=false forbids the step. The base wirelength/via terms
// are added by the engine; the hook adds scenario-driven penalties.
type StepCost func(from, to grid.Cell) (extra int, ok bool)

// Config parameterizes a search.
type Config struct {
	// WL, Via are the alpha and beta weights of cost equation (5), in
	// engine cost units (use Scale to convert).
	WL, Via int
	// Step is the extra-cost hook (may be nil).
	Step StepCost
	// MaxExpand bounds node expansions; 0 means no bound.
	MaxExpand int
	// SoftOccupied, when positive, makes cells owned by other nets passable
	// at this extra cost per cell instead of impassable — used to discover
	// which nets block an otherwise unroutable connection. Blockages stay
	// impassable.
	SoftOccupied int
}

// Scale is the engine cost multiplier: one grid step of wirelength costs
// WL*Scale implicitly through Config, so fractional weights like gamma=1.5
// remain integral.
const Scale = 2

// Engine holds reusable search state for one grid; it is not safe for
// concurrent use. Engines are cheap to rebind (Bind) and poolable
// (Acquire/Release), so a worker routing many instances back to back reuses
// one engine's allocations instead of paying a fresh O(cells) allocation
// per instance.
type Engine struct {
	g      *grid.Grid
	dist   []int
	stamp  []int32
	parent []int32
	tmark  []int32 // target marks for the current search (stamped with cur)
	cur    int32
	queue  pq
	// Per-search statistics, reset by Search. The inner loop maintains them
	// as plain field increments (no branches) so the cost is identical
	// whether or not a Recorder is attached.
	Expand   int // node expansions of the last search
	Pushes   int // heap pushes of the last search
	Pops     int // heap pops of the last search
	HeapPeak int // open-list high-water mark of the last search
	// Read-region tracking for speculative routing (ReadBBox): the XY
	// bounding box of every source, target and expanded cell of the last
	// search. Maintained unconditionally — four compares per expansion.
	rx0, ry0, rx1, ry1 int
	// Rec, when non-nil, receives the per-search statistics (counters plus
	// the heap-peak gauge) in one flush at the end of every search.
	Rec *obs.Recorder
	// cfg and targets are the current search's parameters, held as fields so
	// the hot heuristic/push paths are methods instead of closures — a
	// closure pair plus captured locals escaped to the heap on every Search
	// call before. targets is a reused copy of the caller's slice.
	cfg     Config
	targets []grid.Cell
}

// New creates an engine bound to g.
func New(g *grid.Grid) *Engine {
	e := &Engine{}
	e.Bind(g)
	return e
}

// Bind points the engine at g, reusing the per-cell arrays when they are
// large enough and reallocating only when g exceeds every grid this engine
// has seen. Search state from the previous grid is discarded.
func (e *Engine) Bind(g *grid.Grid) {
	n := g.Cells()
	e.g = g
	e.cur = 0
	e.queue = e.queue[:0]
	if cap(e.dist) < n {
		e.dist = make([]int, n)
		e.stamp = make([]int32, n)
		e.parent = make([]int32, n)
		e.tmark = make([]int32, n)
		return
	}
	e.dist = e.dist[:n]
	e.stamp = e.stamp[:n]
	e.parent = e.parent[:n]
	e.tmark = e.tmark[:n]
	// Stamps compare against cur, which restarts at 0: clear them so stale
	// entries from the previous binding cannot alias the new search ids.
	clear(e.stamp)
	clear(e.tmark)
}

// enginePool backs Acquire/Release. Pooled engines keep their per-cell
// arrays, so a worker that routes many same-order-of-magnitude instances
// allocates the arrays once instead of once per instance.
var enginePool = sync.Pool{New: func() any { return &Engine{} }}

// Acquire returns a pooled engine bound to g. Callers that route many
// netlists in sequence (the bench harness workers, the baselines) should
// pair it with Release; the engine is NOT safe for concurrent use.
func Acquire(g *grid.Grid) *Engine {
	e := enginePool.Get().(*Engine)
	e.Bind(g)
	return e
}

// Release detaches the engine from its grid and recorder and returns it to
// the pool. The caller must not use the engine afterwards.
func (e *Engine) Release() {
	e.g = nil
	e.Rec = nil
	// Drop references the pool must not retain (the step hook closes over
	// router state); the queue and per-cell arrays keep their capacity.
	e.cfg = Config{}
	e.targets = e.targets[:0]
	enginePool.Put(e)
}

func (e *Engine) cell(i int) grid.Cell {
	w, h := e.g.W, e.g.H
	return grid.Cell{X: i % w, Y: (i / w) % h, L: i / (w * h)}
}

type pqItem struct {
	idx  int32
	f, g int
}

// pq is a binary min-heap of open-list entries ordered by f ascending,
// then g descending (prefer deeper nodes on f-ties: straighter paths).
// Entries equal in both keys leave in an order fixed by their heap
// positions, which the exact comparison sequence of push/pop determines;
// any other heap shape (d-ary, bucket queue) reorders those ties and
// therefore changes paths.
type pq []pqItem

func (q pq) Len() int { return len(q) }

func less(a, b pqItem) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.g > b.g
}

// push and pop are the container/heap sift-up and sift-down with a moving
// hole instead of pairwise swaps: each level makes the same comparison on
// the same positions as the swap form (so pop order and traces are
// unchanged) but writes one entry instead of two.
func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(it, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	top, x := h[0], h[n]
	*q = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			j = r
		}
		if !less(h[j], x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	return top
}

// Search finds a minimum-cost path from any source to any target under cfg.
// Occupied and blocked cells are impassable except cells owned by net id.
// The returned path runs source→target inclusive; ok is false when no path
// exists.
func (e *Engine) Search(id int32, sources, targets []grid.Cell, cfg Config) ([]grid.Cell, bool) {
	if len(sources) == 0 || len(targets) == 0 {
		return nil, false
	}
	e.cur++
	e.queue = e.queue[:0]
	e.Expand, e.Pushes, e.Pops, e.HeapPeak = 0, 0, 0, 0
	e.rx0, e.ry0, e.rx1, e.ry1 = int(^uint(0)>>1), int(^uint(0)>>1), -1<<30, -1<<30
	for _, s := range sources {
		e.note(s)
	}
	defer e.flushObs()

	// Targets are marked in the reusable tmark array (stamped with the
	// search id) instead of a per-search map: membership tests in the pop
	// loop become one array load and Search stops allocating per call.
	ntargets := 0
	for _, t := range targets {
		e.note(t)
		if !e.g.In(t) {
			continue
		}
		if i := e.g.Index(t); e.tmark[i] != e.cur {
			e.tmark[i] = e.cur
			ntargets++
		}
	}
	if ntargets == 0 {
		return nil, false
	}
	e.cfg = cfg
	e.targets = append(e.targets[:0], targets...)

	for _, s := range sources {
		if !e.g.In(s) || !e.g.FreeOrNet(s, id) {
			continue
		}
		e.pushNode(e.g.Index(s), 0, -1)
	}

	var steps = [6]grid.Cell{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {L: 1}, {L: -1}}
	for e.queue.Len() > 0 {
		it := e.queue.pop()
		e.Pops++
		i := int(it.idx)
		if e.stamp[i] == e.cur && e.dist[i] < it.g {
			continue // stale entry
		}
		e.Expand++
		if cfg.MaxExpand > 0 && e.Expand > cfg.MaxExpand {
			return nil, false
		}
		if e.tmark[i] == e.cur {
			return e.trace(i), true
		}
		c := e.cell(i)
		e.note(c)
		for _, d := range steps {
			nc := grid.Cell{X: c.X + d.X, Y: c.Y + d.Y, L: c.L + d.L}
			if !e.g.In(nc) {
				continue
			}
			step := cfg.WL * Scale
			if d.L != 0 {
				step = cfg.Via * Scale
			}
			if !e.g.FreeOrNet(nc, id) {
				if cfg.SoftOccupied <= 0 || e.g.At(nc) < 0 {
					continue // foreign cell or hard blockage
				}
				step += cfg.SoftOccupied
			}
			if cfg.Step != nil {
				extra, ok := cfg.Step(c, nc)
				if !ok {
					continue
				}
				step += extra
			}
			e.pushNode(e.g.Index(nc), it.g+step, int32(i))
		}
	}
	return nil, false
}

// h is the admissible Manhattan heuristic over the current search's
// targets, in engine cost units.
func (e *Engine) h(c grid.Cell) int {
	best := -1
	for _, t := range e.targets {
		d := absi(c.X-t.X) + absi(c.Y-t.Y)
		if dl := absi(c.L - t.L); dl > 0 {
			d += dl
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best * e.cfg.WL * Scale
}

// pushNode relaxes node i to gcost and pushes it on the open list.
func (e *Engine) pushNode(i, gcost int, parent int32) {
	if e.stamp[i] == e.cur && e.dist[i] <= gcost {
		return
	}
	e.stamp[i] = e.cur
	e.dist[i] = gcost
	e.parent[i] = parent
	e.queue.push(pqItem{idx: int32(i), f: gcost + e.h(e.cell(i)), g: gcost})
	e.Pushes++
	if n := e.queue.Len(); n > e.HeapPeak {
		e.HeapPeak = n
	}
}

// note grows the read-region bounding box to cover c.
func (e *Engine) note(c grid.Cell) {
	if c.X < e.rx0 {
		e.rx0 = c.X
	}
	if c.X > e.rx1 {
		e.rx1 = c.X
	}
	if c.Y < e.ry0 {
		e.ry0 = c.Y
	}
	if c.Y > e.ry1 {
		e.ry1 = c.Y
	}
}

// ReadBBox over-approximates, as an XY bounding box in cell coordinates,
// the set of grid cells whose occupancy or penalty the last Search may have
// read: every expanded cell, every source and target candidate, plus a
// two-cell margin covering neighbor probes and the step-cost hook's
// one-cell lookahead. Any cell outside the box provably did not influence
// the search result, which is exactly the property the speculative net
// scheduler (internal/sched) needs to validate a concurrently computed
// path at commit time.
func (e *Engine) ReadBBox() geom.Rect {
	if e.rx1 < e.rx0 {
		return geom.Rect{}
	}
	return geom.Rect{X0: e.rx0, Y0: e.ry0, X1: e.rx1 + 1, Y1: e.ry1 + 1}.Expand(2)
}

// flushObs reports the last search's statistics to the attached Recorder
// in one batch — the inner loop stays free of atomic operations.
func (e *Engine) flushObs() {
	if e.Rec == nil {
		return
	}
	e.Rec.Inc(obs.CtrAstarSearches)
	e.Rec.Add(obs.CtrAstarExpanded, int64(e.Expand))
	e.Rec.Add(obs.CtrAstarPushes, int64(e.Pushes))
	e.Rec.Add(obs.CtrAstarPops, int64(e.Pops))
	e.Rec.Max(obs.GaugeAstarHeapPeak, int64(e.HeapPeak))
	e.Rec.Observe(obs.HistAstarExpanded, int64(e.Expand))
}

// trace reconstructs the path ending at index i.
func (e *Engine) trace(i int) []grid.Cell {
	var rev []grid.Cell
	for j := int32(i); j >= 0; j = e.parent[j] {
		rev = append(rev, e.cell(int(j)))
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

func absi(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
