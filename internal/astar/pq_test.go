package astar

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refPQ is the container/heap formulation of the open list: the swap-based
// sift the hole-moving push/pop must reproduce comparison for comparison.
type refPQ []pqItem

func (q refPQ) Len() int           { return len(q) }
func (q refPQ) Less(i, j int) bool { return less(q[i], q[j]) }
func (q refPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPQMatchesContainerHeap drives the engine heap and container/heap with
// the same interleaved push/pop sequence over a tiny key range, so most
// entries tie on (f, g) and differ only in idx. Every pop must return the
// identical entry: ties leave in heap-position order, and that order is
// part of the engine's deterministic output.
func TestPQMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 200; round++ {
		var q pq
		var ref refPQ
		next := int32(0)
		for op := 0; op < 400; op++ {
			if len(q) == 0 || rng.Intn(3) != 0 {
				it := pqItem{idx: next, f: rng.Intn(4), g: rng.Intn(3)}
				next++
				q.push(it)
				heap.Push(&ref, it)
				continue
			}
			got, want := q.pop(), heap.Pop(&ref).(pqItem)
			if got != want {
				t.Fatalf("round %d op %d: pop %+v, container/heap %+v", round, op, got, want)
			}
		}
		for len(q) > 0 {
			if got, want := q.pop(), heap.Pop(&ref).(pqItem); got != want {
				t.Fatalf("round %d drain: pop %+v, container/heap %+v", round, got, want)
			}
		}
	}
}
