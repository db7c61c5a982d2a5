package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one operation (a routing pass, a service job) share a trace id;
// parent is the span that caused it (0 for a root).
type span struct {
	id, parent, trace int64
	name              string
	start, end        time.Duration // since the tracer's epoch
}

// tracer records spans in memory and writes them out once, at the end of
// the run. A nil *tracer records nothing, which is the untraced mode: the
// timed code calls the same methods either way.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name string, parent, trace int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.epoch)
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, span{id: id, parent: parent, trace: trace, name: name, start: start, end: end})
		t.mu.Unlock()
	}
}

// durations returns the duration in seconds of every span of one trace
// with the given name, in the order the spans closed.
func (t *tracer) durations(name string, trace int64) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.trace == trace {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover, keyed by span id.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, reach := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.id] = s.end - s.start - covered
	}
	return out
}

// write dumps every span, with its self time, as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	self := selfTimes(t.spans)
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n",
			s.id, s.parent, s.trace, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), self[s.id].Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
