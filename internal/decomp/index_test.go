package decomp

import (
	"math/rand"
	"slices"
	"testing"

	"sadproute/internal/geom"
	"sadproute/internal/rules"
)

// mapIndex is the hash-bucket formulation of rectIndex that the CSR grid
// replaces: a map from bucket coordinate to the ids added there, in add
// order, appended eagerly by add.
type mapIndex struct {
	cell  int
	m     map[geom.Pt][]int32
	n     int
	stamp []int32
	cur   int32
}

func (ix *mapIndex) reset(cell int) {
	if cell <= 0 {
		cell = 200
	}
	ix.cell, ix.m, ix.n = cell, map[geom.Pt][]int32{}, 0
}

func (ix *mapIndex) add(id int, r geom.Rect) {
	if id >= ix.n {
		ix.n = id + 1
	}
	if r.Empty() {
		return
	}
	for by := floordiv(r.Y0, ix.cell); by <= floordiv(r.Y1-1, ix.cell); by++ {
		for bx := floordiv(r.X0, ix.cell); bx <= floordiv(r.X1-1, ix.cell); bx++ {
			k := geom.Pt{X: bx, Y: by}
			ix.m[k] = append(ix.m[k], int32(id))
		}
	}
}

func (ix *mapIndex) query(r geom.Rect, fn func(id int)) {
	if r.Empty() {
		return
	}
	if len(ix.stamp) < ix.n {
		ix.stamp = make([]int32, ix.n)
		ix.cur = 0
	}
	ix.cur++
	for by := floordiv(r.Y0, ix.cell); by <= floordiv(r.Y1-1, ix.cell); by++ {
		for bx := floordiv(r.X0, ix.cell); bx <= floordiv(r.X1-1, ix.cell); bx++ {
			for _, id := range ix.m[geom.Pt{X: bx, Y: by}] {
				if ix.stamp[id] != ix.cur {
					ix.stamp[id] = ix.cur
					fn(int(id))
				}
			}
		}
	}
}

// randRect draws a rect with corners in [-span, span) and sides in
// [-10, 300): about one in fifteen is empty.
func randRect(rng *rand.Rand, span int) geom.Rect {
	x, y := rng.Intn(2*span)-span, rng.Intn(2*span)-span
	return geom.Rect{X0: x, Y0: y, X1: x + rng.Intn(310) - 10, Y1: y + rng.Intn(310) - 10}
}

// TestRectIndexMatchesMapReference drives one long-lived rectIndex and a
// fresh map reference with the same random fills and queries and demands
// the identical id visit sequence: negative coordinates, empty rects,
// queries partly or wholly outside the bucket bounding box, reset reuse,
// and adds interleaved after queries.
func TestRectIndexMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var ix rectIndex
	var got, want []int
	for round := 0; round < 300; round++ {
		cell := []int{0, 16, 37, 64, 200}[rng.Intn(5)]
		var ref mapIndex
		ix.reset(cell)
		ref.reset(cell)
		id, phases := 0, 1+rng.Intn(3)
		for phase := 0; phase < phases; phase++ {
			for k := rng.Intn(40); k > 0; k-- {
				r := randRect(rng, 1000)
				ix.add(id, r)
				ref.add(id, r)
				id++
			}
			for k := 0; k < 30; k++ {
				q := randRect(rng, 3000).Expand(rng.Intn(400))
				if k%10 == 0 && cell >= 64 {
					// Covers the whole bounding box and far beyond.
					q = geom.Rect{X0: -5000, Y0: -5000, X1: 5000, Y1: 5000}
				}
				got, want = got[:0], want[:0]
				ix.query(q, func(i int) { got = append(got, i) })
				ref.query(q, func(i int) { want = append(want, i) })
				if !slices.Equal(got, want) {
					t.Fatalf("round %d phase %d cell %d query %+v: visited %v, map reference %v",
						round, phase, cell, q, got, want)
				}
			}
		}
	}
}

// indexRects lays out wire-like rects on a 120-track die: horizontal and
// vertical segments of 2-12 tracks at random track positions, the
// geometry profile the oracle indexes on a routed layer.
func indexRects(n int) ([]geom.Rect, int) {
	ds := rules.Node10nm()
	p := ds.Pitch()
	rng := rand.New(rand.NewSource(7))
	rs := make([]geom.Rect, n)
	for i := range rs {
		x, y, l := rng.Intn(120), rng.Intn(120), 2+rng.Intn(10)
		r := geom.Rect{X0: x * p, Y0: y * p, X1: (x+l)*p + ds.WLine, Y1: y*p + ds.WLine}
		if i%2 == 1 {
			r = geom.Rect{X0: x * p, Y0: y * p, X1: x*p + ds.WLine, Y1: (y+l)*p + ds.WLine}
		}
		rs[i] = r
	}
	return rs, 5 * p
}

// TestRectIndexWarmAllocs pins a warmed index to zero allocations for a
// full refill plus queries.
func TestRectIndexWarmAllocs(t *testing.T) {
	rs, cell := indexRects(300)
	var ix rectIndex
	hits := 0
	fill := func() {
		ix.reset(cell)
		for i, r := range rs {
			ix.add(i, r)
		}
		for _, r := range rs {
			ix.query(r.Expand(cell), func(int) { hits++ })
		}
	}
	fill()
	if avg := testing.AllocsPerRun(20, fill); avg != 0 {
		t.Fatalf("warm add+query allocates %.1f objects per fill, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("queries visited nothing")
	}
}

// BenchmarkRectIndexQuery is one oracle-shaped use of a pooled index:
// reset, add 400 wire rects, then one proximity query per rect (its own
// box grown by a bucket, as the assist keepout and merge searches do).
func BenchmarkRectIndexQuery(b *testing.B) {
	rs, cell := indexRects(400)
	var ix rectIndex
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.reset(cell)
		for id, r := range rs {
			ix.add(id, r)
		}
		for _, r := range rs {
			ix.query(r.Expand(cell), func(int) { hits++ })
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/query")
}
