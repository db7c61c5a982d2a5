package decomp

import (
	"slices"

	"sadproute/internal/geom"
)

// rectIndex is a uniform-bucket spatial index over rectangles, used for all
// proximity queries in the oracle (assist keepouts, merge-pair search,
// boundary-protection coverage). Bucket size is a few track pitches so a
// query touches O(1) buckets for the short interaction ranges of SADP rules.
//
// add only records (id, rect). The first query after an add builds the
// buckets as a flat CSR grid over the bucket bounding box of the recorded
// rects: bucket b of the box holds flat[start[b]:start[b+1]], ids in add
// order. Every caller adds all rects and then queries, so the grid is
// built once per fill. The box spans the layout's extent in buckets, at
// most one bucket per 25 routing-grid cells for router layouts.
type rectIndex struct {
	cell int
	// Recorded non-empty rects and their ids, in add order.
	ids   []int32
	rects []geom.Rect
	n     int // 1 + the largest id added, empty rects included
	// CSR bucket grid over buckets [bx0, bx0+bw) x [by0, by0+bh), row
	// major; valid while built is true.
	built    bool
	bx0, by0 int
	bw, bh   int
	start    []int32
	flat     []int32
	stamp    []int32
	cur      int32
}

// reset empties the index for reuse (pooled engines), keeping every
// slice's storage. The stamp table survives across uses — entries from an
// earlier life are always below the ever-increasing query stamp — but the
// stamp must not wrap, so a long-lived engine re-zeros it well before
// int32 overflow.
func (ix *rectIndex) reset(cell int) {
	if cell <= 0 {
		cell = 200
	}
	ix.cell = cell
	ix.ids = ix.ids[:0]
	ix.rects = ix.rects[:0]
	ix.n = 0
	ix.built = false
	if ix.cur > 1<<30 {
		clear(ix.stamp)
		ix.cur = 0
	}
}

func (ix *rectIndex) buckets(r geom.Rect) (bx0, by0, bx1, by1 int) {
	return floordiv(r.X0, ix.cell), floordiv(r.Y0, ix.cell),
		floordiv(r.X1-1, ix.cell), floordiv(r.Y1-1, ix.cell)
}

// add registers rect r under integer id. Ids must be assigned densely from
// zero in insertion order.
func (ix *rectIndex) add(id int, r geom.Rect) {
	if id >= ix.n {
		// Keep the stamp table aligned with ids even for empty rects.
		ix.n = id + 1
	}
	if r.Empty() {
		return
	}
	ix.ids = append(ix.ids, int32(id))
	ix.rects = append(ix.rects, r)
	ix.built = false
}

// build lays the recorded rects out as the CSR bucket grid: a counting
// sort by bucket that keeps add order inside each bucket.
func (ix *rectIndex) build() {
	ix.built = true
	ix.bw, ix.bh = 0, 0
	if len(ix.rects) == 0 {
		return
	}
	x0, y0, x1, y1 := ix.buckets(ix.rects[0])
	for _, r := range ix.rects[1:] {
		a, b, c, d := ix.buckets(r)
		x0, y0, x1, y1 = min(x0, a), min(y0, b), max(x1, c), max(y1, d)
	}
	ix.bx0, ix.by0, ix.bw, ix.bh = x0, y0, x1-x0+1, y1-y0+1
	// start has two slots of slack: counts land at start[b+2], the prefix
	// sum turns start[b+1] into bucket b's first slot, and the fill pass
	// advances start[b+1] to bucket b's end — which is bucket b+1's start.
	nb := ix.bw * ix.bh
	ix.start = slices.Grow(ix.start[:0], nb+2)[:nb+2]
	clear(ix.start)
	total := 0
	for _, r := range ix.rects {
		a, b, c, d := ix.buckets(r)
		for by := b; by <= d; by++ {
			row := (by-ix.by0)*ix.bw - ix.bx0
			for bx := a; bx <= c; bx++ {
				ix.start[row+bx+2]++
			}
		}
		total += (c - a + 1) * (d - b + 1)
	}
	for i := 2; i < len(ix.start); i++ {
		ix.start[i] += ix.start[i-1]
	}
	ix.flat = slices.Grow(ix.flat[:0], total)[:total]
	for k, r := range ix.rects {
		id := ix.ids[k]
		a, b, c, d := ix.buckets(r)
		for by := b; by <= d; by++ {
			row := (by-ix.by0)*ix.bw - ix.bx0
			for bx := a; bx <= c; bx++ {
				s := &ix.start[row+bx+1]
				ix.flat[*s] = id
				*s++
			}
		}
	}
}

// query calls fn exactly once for every registered id whose rect's buckets
// intersect r's buckets. Callers re-check precise geometry themselves.
// Buckets are visited row by row, ids within a bucket in add order.
func (ix *rectIndex) query(r geom.Rect, fn func(id int)) {
	if r.Empty() {
		return
	}
	if !ix.built {
		ix.build()
	}
	if len(ix.stamp) < ix.n {
		ix.stamp = make([]int32, ix.n)
		ix.cur = 0
	}
	ix.cur++
	bx0, by0, bx1, by1 := ix.buckets(r)
	bx0, by0 = max(bx0, ix.bx0), max(by0, ix.by0)
	bx1, by1 = min(bx1, ix.bx0+ix.bw-1), min(by1, ix.by0+ix.bh-1)
	for by := by0; by <= by1; by++ {
		row := (by-ix.by0)*ix.bw - ix.bx0
		for bx := bx0; bx <= bx1; bx++ {
			b := row + bx
			for _, id := range ix.flat[ix.start[b]:ix.start[b+1]] {
				if ix.stamp[id] == ix.cur {
					continue
				}
				ix.stamp[id] = ix.cur
				fn(int(id))
			}
		}
	}
}

func floordiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
