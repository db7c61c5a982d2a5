package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"sadproute/internal/decomp"
	"sadproute/internal/grid"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// tinyOutput routes and evaluates the tiny congested instance.
func tinyOutput(t *testing.T) output {
	t.Helper()
	w := congested(config{tiny: true})
	nls, err := w.load(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := router.Route(nls[0], rules.Node10nm(), w.opt)
	decs, tot := res.DecomposeLayersR(nil)
	return output{nl: nls[0], res: res, decs: decs, tot: tot}
}

// requireKind runs the checker and requires a problem of the given kind.
func requireKind(t *testing.T, o output, kind string) {
	t.Helper()
	_, bad := check(o, rules.Node10nm(), nil, 0, 0)
	for _, b := range bad {
		if strings.HasPrefix(b, kind+":") {
			return
		}
	}
	t.Fatalf("checker did not report a %q problem; it reported %q", kind, bad)
}

// longPath returns a routed net whose path has at least n cells.
func longPath(t *testing.T, o output, n int) int {
	t.Helper()
	for id := range o.nl.Nets {
		if len(o.res.Paths[id]) >= n {
			return id
		}
	}
	t.Fatalf("no path of %d cells", n)
	return -1
}

func TestCheckerAcceptsRoutedOutput(t *testing.T) {
	o := tinyOutput(t)
	routed, bad := check(o, rules.Node10nm(), nil, 0, 0)
	if len(bad) > 0 {
		t.Fatalf("verified output rejected: %q", bad)
	}
	if routed == 0 || routed != len(o.res.Paths) {
		t.Fatalf("routed %d of %d paths", routed, len(o.res.Paths))
	}
}

func TestCheckerRejectsDroppedCell(t *testing.T) {
	o := tinyOutput(t)
	id := longPath(t, o, 3)
	p := o.res.Paths[id]
	o.res.Paths[id] = append(append([]grid.Cell(nil), p[:1]...), p[2:]...)
	requireKind(t, o, "step")
}

func TestCheckerRejectsEndpointOffPin(t *testing.T) {
	o := tinyOutput(t)
	id := longPath(t, o, 3)
	p := o.res.Paths[id]
	o.res.Grid.Release(p[0])
	o.res.Paths[id] = p[1:]
	requireKind(t, o, "endpoint")
}

func TestCheckerRejectsSharedCell(t *testing.T) {
	o := tinyOutput(t)
	a := longPath(t, o, 3)
	for b := range o.nl.Nets {
		if pb, ok := o.res.Paths[b]; ok && b != a {
			o.res.Paths[b] = append(pb, o.res.Paths[a][1])
			requireKind(t, o, "short")
			return
		}
	}
	t.Fatal("need two routed nets")
}

func TestCheckerRejectsGridMismatch(t *testing.T) {
	o := tinyOutput(t)
	id := longPath(t, o, 2)
	o.res.Grid.Release(o.res.Paths[id][1])
	requireKind(t, o, "grid")
}

// TestCheckerRejectsColorConflict flips one net's color at a time and
// re-evaluates, as the program would report such a coloring. Every flip
// the oracle finds a conflict or hard overlay in must be rejected, and at
// least one flip must produce one.
func TestCheckerRejectsColorConflict(t *testing.T) {
	o := tinyOutput(t)
	rejected := 0
	for _, colors := range o.res.Colors {
		for id := range o.nl.Nets {
			c, ok := colors[id]
			if !ok {
				continue
			}
			colors[id] = c.Flip()
			decs, tot := decomp.DecomposeLayers(o.res.Layouts())
			if tot.Conflicts > 0 || tot.HardOverlays > 0 {
				requireKind(t, output{nl: o.nl, res: o.res, decs: decs, tot: tot}, "oracle")
				rejected++
			}
			colors[id] = c
			if rejected > 0 {
				return
			}
		}
	}
	t.Fatal("no single color flip created a conflict or hard overlay")
}

func TestCheckerRejectsStaleOracleTotals(t *testing.T) {
	o := tinyOutput(t)
	o.tot.SideOverlayNM += 20
	requireKind(t, o, "drc")
}

// TestServiceCheckRejectsChangedByte serves one job, checks it against the
// in-process reference, then changes one byte of the served text.
func TestServiceCheckRejectsChangedByte(t *testing.T) {
	w := service(config{tiny: true})
	w.distinct = 1
	ins, err := w.inputs(7, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	j := &job{due: time.Now(), traced: true}
	w.drive(http.DefaultClient, d.url, ins, j, nil, 1)
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
	if j.err != "" {
		t.Fatal(j.err)
	}
	rep := newReport()
	refs, _ := w.references(ins, false, 1, rep)
	if len(rep.problems) > 0 {
		t.Fatal(rep.problems)
	}
	if p := checkJob(j, refs[0]); len(p) > 0 {
		t.Fatalf("served job rejected: %q", p)
	}
	b := []byte(j.text)
	b[len(b)/2] ^= 1
	j.text = string(b)
	if p := checkJob(j, refs[0]); len(p) == 0 {
		t.Fatal("a changed byte of result_text was accepted")
	}
	j.text = refs[0].text
	j.replayEvents--
	if p := checkJob(j, refs[0]); len(p) == 0 {
		t.Fatal("an SSE replay missing an event was accepted")
	}
}

// TestWorkloadsTiny runs every workload end to end at test scale, untraced
// and traced, and requires correct output and every metric.
func TestWorkloadsTiny(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			c := config{seed: 3, seconds: time.Second, trace: traced, tiny: true}
			rep, err := run(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(rep.problems) > 0 || rep.attempted == 0 || rep.failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d failed %d problems %q notes %q",
					name, traced, rep.attempted, rep.failed, rep.problems, rep.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var sb strings.Builder
			if _, err := rep.render(&sb, defs); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !traced {
				for _, d := range endToEnd {
					if rep.values[d.name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, rep.values[d.name])
					}
				}
				continue
			}
			sparse := rep.values["sparse.searches"]
			if (name == "huge") != (sparse > 0) {
				t.Errorf("%s: sparse.searches = %v", name, sparse)
			}
			for _, m := range []string{"astar.expanded", "router.route_s", "decomp.decompositions", "drc.check_s", "obs.trace_events"} {
				if rep.values[m] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, rep.values[m])
				}
			}
		}
	}
}

// TestSeedSelectsServiceInputs pins the seed contract: the same seed gives
// the same job schedule, another seed another one, and every schedule
// serves each instance once per round; the instance seed selects the
// instances.
func TestSeedSelectsServiceInputs(t *testing.T) {
	w := service(config{})
	a, b, c := w.schedule(5, 2*w.distinct), w.schedule(5, 2*w.distinct), w.schedule(6, 2*w.distinct)
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("the service schedule does not follow the seed")
	}
	seen := map[int]int{}
	for _, k := range a {
		seen[k]++
	}
	for k := 0; k < w.distinct; k++ {
		if seen[k] != 2 {
			t.Fatalf("instance %d is served %d times in two rounds", k, seen[k])
		}
	}
	tiny := service(config{tiny: true, instanceSeed: 6})
	x, _ := tiny.inputs(serviceBase, nil, 0)
	y, _ := tiny.inputs(tiny.base, nil, 0)
	if tiny.base != 6 || string(x[0].bodies[0]) == string(y[0].bodies[0]) {
		t.Fatal("service inputs do not follow the instance seed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "job", start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60},
		{id: 4, parent: 1, start: 90, end: 120},
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 {
		t.Fatalf("self time of the root = %v, want 40", self[1])
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got[i] != (entry{d.name, d.unit, better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
}
