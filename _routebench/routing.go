package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// routingWorkload routes a fixed set of generated instances once per
// pass and evaluates each with the oracle, as cmd/sadproute does.
type routingWorkload struct {
	specs []bench.Spec
	opt   router.Options
}

// congested is the ROADMAP baseline instance, benchgen -nets 540 -tracks
// 120 -layers 3 -seed 1001: dense standard-cell congestion, routed
// serially with the paper's default options.
func congested(c config) routingWorkload {
	sp := bench.Spec{Name: "gen-540-120-1001", Nets: 540, Tracks: 120, Layers: 3, Seed: 1001,
		PinCandidates: 1, AvgHPWL: 12, Blockages: 540 / 150}
	if c.tiny {
		sp = bench.Spec{Name: "tiny-congested", Nets: 60, Tracks: 32, Layers: 3, Seed: 1001,
			PinCandidates: 1, AvgHPWL: 3}
	}
	if c.instanceSeed != 0 {
		sp.Seed = c.instanceSeed
	}
	return routingWorkload{specs: []bench.Spec{sp}, opt: router.Defaults()}
}

// huge is the Huge1-3 family with the corridor graph on, as a -sparse
// user routes it.
func huge(c config) routingWorkload {
	specs := bench.HugeSpecs()
	if c.tiny {
		specs = []bench.Spec{{Name: "tiny-huge", Nets: 8, Tracks: 240, Layers: 3, Seed: 3001,
			PinCandidates: 1, AvgHPWL: 80, Blockages: 2, MacroBlockages: 2}}
	}
	if c.instanceSeed != 0 {
		for i := range specs {
			specs[i].Seed += c.instanceSeed
		}
	}
	opt := router.Defaults()
	opt.SparseSearch = true
	return routingWorkload{specs: specs, opt: opt}
}

// load generates every instance and round-trips it through the netlist
// text format, so the router receives what a file user would give it.
func (w routingWorkload) load(tr *tracer, trace int64) ([]*netlist.Netlist, error) {
	nls := make([]*netlist.Netlist, len(w.specs))
	var buf bytes.Buffer
	for i, sp := range w.specs {
		_, end := tr.begin("bench.Generate", 0, trace)
		nl := bench.Generate(sp)
		end()
		_, end = tr.begin("netlist.Read", 0, trace)
		buf.Reset()
		err := nl.Write(&buf)
		if err == nil {
			nls[i], err = netlist.Read(&buf)
		}
		end()
		if err != nil {
			return nil, fmt.Errorf("netlist round trip of %s: %w", sp.Name, err)
		}
	}
	return nls, nil
}

// traceTap is the trace sink of a traced pass. It counts events and takes
// a snapshot of the recorder at the first repair_pass event: the route
// stage has ended by then and the final repair has not rerouted anything,
// so the snapshot separates the window checks made while routing from
// those made while repairing.
type traceTap struct {
	rec      *obs.Recorder
	events   int64
	atRepair *obs.Snapshot
}

var repairPassEvent = []byte(`"ev":"repair_pass"`)

func (t *traceTap) Write(p []byte) (int, error) {
	t.events++
	if t.atRepair == nil && bytes.Contains(p, repairPassEvent) {
		s := t.rec.Snapshot()
		t.atRepair = &s
	}
	return len(p), nil
}

// pass is one timed route-and-evaluate of every instance.
type pass struct {
	wall    float64   // seconds, the sum of the instance times
	latency []float64 // seconds, per instance
	outs    []output
	taps    []*traceTap // traced passes only
	allocMB float64     // heap allocated during the pass
	gcs     float64     // GC cycles during the pass
}

// routeAll runs one pass. With traced set, each instance routes with its
// own recorder and trace tap, and the calls are recorded as spans.
func (w routingWorkload) routeAll(nls []*netlist.Netlist, ds rules.Set, traced bool, tr *tracer, trace int64) pass {
	p := pass{latency: make([]float64, len(nls)), outs: make([]output, len(nls))}
	recs := make([]*obs.Recorder, len(nls))
	if traced {
		p.taps = make([]*traceTap, len(nls))
		for i := range recs {
			recs[i] = obs.New()
			p.taps[i] = &traceTap{rec: recs[i]}
			recs[i].SetTrace(p.taps[i])
		}
	} else {
		tr = nil
	}
	// Each instance starts on a collected heap, as in its own sadproute
	// process. The pass time is the sum of the instance times, so the
	// collections between instances are not timed.
	for i, nl := range nls {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		opt := w.opt
		opt.Obs = recs[i]
		t0 := time.Now()
		root, endOp := tr.begin("route+evaluate", 0, trace)
		_, end := tr.begin("router.Route", root, trace)
		res := router.Route(nl, ds, opt)
		end()
		_, end = tr.begin("Result.DecomposeLayersR", root, trace)
		decs, tot := res.DecomposeLayersR(recs[i])
		end()
		endOp()
		p.latency[i] = time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		p.wall += p.latency[i]
		p.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		p.gcs += float64(m1.NumGC - m0.NumGC)
		p.outs[i] = output{nl: nl, res: res, decs: decs, tot: tot}
	}
	return p
}

// verify checks every output of a pass outside the timed region and
// compares its fingerprints with want (filled from the first pass). It
// returns the verified routed nets and the side overlay of the pass.
func verify(p pass, ds rules.Set, want [][32]byte, rep *report, tr *tracer, trace int64) (routed int, overlay float64, _ [][32]byte) {
	root, end := tr.begin("check", 0, trace)
	defer end()
	first := want == nil
	if first {
		want = make([][32]byte, len(p.outs))
	}
	for i, o := range p.outs {
		n, bad := check(o, ds, tr, root, trace)
		for _, b := range bad {
			rep.fail("%s: %s", o.nl.Name, b)
		}
		if fp := fingerprint(o.nl, o.res); first {
			want[i] = fp
		} else if fp != want[i] {
			rep.fail("%s: paths or colors differ from the first pass", o.nl.Name)
		}
		routed += n
		overlay += o.tot.SideOverlayUnits
	}
	return routed, overlay, want
}

func (w routingWorkload) run(c config) (*report, error) {
	rep := newReport()
	ds := rules.Node10nm()
	if c.trace {
		rep.tr = newTracer()
	}
	var nls []*netlist.Netlist
	var setup, gen, read []float64
	for r := int64(1); r <= setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		// Set-up spans carry negative trace ids, passes positive ones.
		if nls, err = w.load(rep.tr, -r); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		gen = append(gen, sum(rep.tr.durations("bench.Generate", -r)))
		read = append(read, sum(rep.tr.durations("netlist.Read", -r)))
	}
	nets := 0
	for _, nl := range nls {
		nets += len(nl.Nets)
	}

	var want [][32]byte
	var walls []float64
	routedPct, overlay := 0.0, 0.0
	if !c.trace {
		perInstance := make([][]float64, len(nls))
		for more(walls, c.seconds) {
			p := w.routeAll(nls, ds, false, nil, 0)
			walls = append(walls, p.wall)
			for i, l := range p.latency {
				perInstance[i] = append(perInstance[i], l)
			}
			var routed int
			routed, overlay, want = verify(p, ds, want, rep, nil, 0)
			routedPct = 100 * float64(routed) / float64(nets)
		}
		rep.attempted = len(walls) * len(nls)
		// An instance's latency is its median over the passes: a quantile
		// of the raw per-pass times would sit in the tail of the host's
		// scheduling noise rather than on the slow instances.
		lats := make([]float64, len(nls))
		for i, xs := range perInstance {
			lats[i] = median(xs)
		}
		rep.values["setup_s"] = median(setup)
		rep.values["wall_s"] = median(walls)
		rep.values["latency_p50_s"] = quantile(lats, 0.5)
		rep.values["latency_p90_s"] = quantile(lats, 0.9)
		rep.values["jobs_per_s"] = float64(len(nls)) / median(walls)
		rep.values["routed_pct"] = routedPct
		rep.values["overlay_units"] = overlay
		rep.values["peak_rss_mb"] = peakRSSMiB()
		return rep, nil
	}

	// Traced run: alternate untraced and traced passes, so the trace
	// overhead compares like with like, and take the layer numbers from
	// the traced ones.
	var traced, pairs, allocMB, gcs []float64
	var layers []map[string]float64
	for step := 0; more(pairs, c.seconds); step++ {
		p := w.routeAll(nls, ds, false, nil, 0)
		walls = append(walls, p.wall)
		allocMB = append(allocMB, p.allocMB)
		gcs = append(gcs, p.gcs)
		_, _, want = verify(p, ds, want, rep, nil, 0)

		id := int64(step + 1)
		p = w.routeAll(nls, ds, true, rep.tr, id)
		traced = append(traced, p.wall)
		_, _, want = verify(p, ds, want, rep, rep.tr, id)
		layers = append(layers, layerNumbers(p, nets, rep, id))
		pairs = append(pairs, walls[len(walls)-1]+p.wall)
	}
	rep.attempted = (len(walls) + len(traced)) * len(nls)
	// Metrics no layer set here, such as serve.*, read 0.
	for _, d := range perLayer {
		var xs []float64
		for _, m := range layers {
			xs = append(xs, m[d.name])
		}
		rep.values[d.name] = median(xs)
	}
	rep.values["bench.generate_s"] = median(gen)
	rep.values["netlist.read_s"] = median(read)
	rep.values["runtime.alloc_mb"] = median(allocMB)
	rep.values["runtime.gc_cycles"] = median(gcs)
	rep.values["obs.trace_overhead_pct"] = 100 * (median(traced)/median(walls) - 1)
	return rep, nil
}

// layerNumbers derives one traced pass's per-layer metrics from its
// recorders, its spans and an uncached replay of the oracle. Counts and
// stage times are summed over the pass's instances.
func layerNumbers(p pass, nets int, rep *report, trace int64) map[string]float64 {
	var snap, atRepair obs.Snapshot
	var events int64
	routed, failed := 0, 0
	for i, tap := range p.taps {
		s := tap.rec.Snapshot()
		snap.Accumulate(&s)
		if tap.atRepair == nil {
			rep.fail("%s: traced run emitted no repair_pass event", p.outs[i].nl.Name)
			continue
		}
		atRepair.Accumulate(tap.atRepair)
		events += tap.events
		routed += p.outs[i].res.Routed
		failed += p.outs[i].res.Failed
	}
	ctr := func(id obs.CounterID) float64 { return float64(snap.Counter(id)) }
	stage := func(id obs.StageID) float64 { return snap.Stage(id).Seconds() }
	sweep := stage(obs.StageRoute) - atRepair.Stage(obs.StageWindowCheck).Seconds()
	decompositions := ctr(obs.CtrDecompositions)
	m := map[string]float64{
		"astar.searches":                 ctr(obs.CtrAstarSearches),
		"astar.expanded":                 ctr(obs.CtrAstarExpanded),
		"astar.pushes":                   ctr(obs.CtrAstarPushes),
		"astar.heap_peak":                float64(snap.Gauge(obs.GaugeAstarHeapPeak)),
		"astar.ns_per_expand":            1e9 * ratio(sweep, float64(atRepair.Counter(obs.CtrAstarExpanded))),
		"router.route_s":                 stage(obs.StageRoute),
		"router.sweep_s":                 sweep,
		"router.final_repair_s":          stage(obs.StageFinalRepair),
		"router.route_attempts":          ctr(obs.CtrRouteAttempts),
		"router.ripups":                  ctr(obs.CtrRouteRipups),
		"router.blocker_rips":            ctr(obs.CtrBlockerRips),
		"router.repair_passes":           ctr(obs.CtrRepairPasses),
		"router.repair_rips":             ctr(obs.CtrRepairRips),
		"router.attempts_per_net":        ratio(ctr(obs.CtrRouteAttempts), float64(nets)),
		"router.failed_nets":             float64(failed),
		"router.lost_nets":               float64(nets - routed - failed),
		"router.window_check_s":          stage(obs.StageWindowCheck),
		"window.checks":                  ctr(obs.CtrWindowChecks),
		"window.fail_ratio":              ratio(ctr(obs.CtrWindowFailed), ctr(obs.CtrWindowChecks)),
		"decomp.decompose_s":             stage(obs.StageDecompose),
		"decomp.decompositions":          decompositions,
		"decomp.hit_ratio":               ratio(ctr(obs.CtrDecompCacheHits), ctr(obs.CtrDecompCacheHits)+ctr(obs.CtrDecompCacheMisses)),
		"decomp.us_per_decomposition":    1e6 * ratio(stage(obs.StageDecompose), decompositions),
		"decomp.blobs_per_decomposition": ratio(ctr(obs.CtrDecompBlobs), decompositions),
		"decomp.evaluate_s":              sum(rep.tr.durations("Result.DecomposeLayersR", trace)),
		"colorflip.color_flip_s":         stage(obs.StageColorFlip),
		"colorflip.dp_runs":              ctr(obs.CtrFlipRuns),
		"colorflip.component_peak":       float64(snap.Gauge(obs.GaugeFlipComponentPeak)),
		"sparse.searches":                ctr(obs.CtrSparseSearches),
		"sparse.fallbacks":               ctr(obs.CtrSparseFallbacks),
		"sparse.fallback_ratio":          ratio(ctr(obs.CtrSparseFallbacks), ctr(obs.CtrSparseSearches)),
		"sparse.nodes":                   ctr(obs.CtrSparseNodes),
		"sparse.nodes_per_search":        ratio(ctr(obs.CtrSparseNodes), ctr(obs.CtrSparseSearches)),
		"obs.trace_events":               float64(events),
		"drc.check_s":                    sum(rep.tr.durations("drc.CheckDesign", trace)),
	}

	// Replay: the uncached oracle on each final layer, timed from outside.
	// Its totals must equal the ones the run's memo cache returned.
	replay := 0.0
	for _, o := range p.outs {
		var tot decomp.Totals
		for _, ly := range o.res.Layouts() {
			_, end := rep.tr.begin("decomp.DecomposeCut", 0, trace)
			t0 := time.Now()
			r := decomp.DecomposeCut(ly)
			replay += time.Since(t0).Seconds()
			end()
			tot.Accumulate(r)
		}
		if tot != o.tot {
			rep.fail("%s: uncached oracle totals %+v differ from the evaluated %+v", o.nl.Name, tot, o.tot)
		}
	}
	m["decomp.replay_ms"] = 1e3 * replay
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
