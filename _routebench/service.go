package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
	"sadproute/internal/serve"
)

// serviceRate is the open-loop submission rate of the service workload,
// in jobs per second: about half of the 6.9 jobs/s two workers completed
// when saturated (12 jobs/s offered, 2-core Xeon, parent code).
const serviceRate = 3.5

// serviceWorkload drives an in-process internal/serve daemon over
// loopback HTTP with an open loop of small routing jobs.
type serviceWorkload struct {
	nets, tracks int
	// distinct instances, generated with seeds base..base+distinct-1; job
	// i routes instance (i + seed) mod distinct, with trace on for every
	// other pair of jobs, so each instance runs once traced and once
	// polled.
	distinct int
	base     int64
	rate     float64 // jobs per second
}

// serviceBase is the pinned generator seed of the first service instance.
const serviceBase = 1

const (
	jobDeadline  = 20 * time.Second // a job whose result is not fetched by due+jobDeadline failed
	pollInterval = 10 * time.Millisecond
)

func service(c config) serviceWorkload {
	w := serviceWorkload{nets: 120, tracks: 48, distinct: 50, base: serviceBase, rate: serviceRate}
	if c.tiny {
		w = serviceWorkload{nets: 20, tracks: 24, distinct: 4, base: serviceBase, rate: 8}
	}
	if c.instanceSeed != 0 {
		w.base = c.instanceSeed
	}
	return w
}

// schedule returns the instance each of n jobs routes: the distinct
// instances in turn, starting at the one the seed selects. A rotation
// rather than a shuffle keeps which jobs overlap in the two workers the
// same from seed to seed, so the latency percentiles measure the program
// and not the order.
func (w serviceWorkload) schedule(seed int64, n int) []int {
	first := int(uint64(seed) % uint64(w.distinct))
	ks := make([]int, n)
	for i := range ks {
		ks[i] = (first + i) % w.distinct
	}
	return ks
}

// jobInput is one distinct instance: its netlist and the two request
// bodies (trace on, trace off) that submit it.
type jobInput struct {
	nl     *netlist.Netlist
	bodies [2][]byte
}

// inputs generates the distinct instances, seed base+k, alternating 1 and
// 3 pin candidates, and encodes their requests.
func (w serviceWorkload) inputs(base int64, tr *tracer, trace int64) ([]jobInput, error) {
	out := make([]jobInput, w.distinct)
	var buf bytes.Buffer
	for k := range out {
		cands := 1
		if k%2 == 1 {
			cands = 3
		}
		sp := bench.Spec{Name: fmt.Sprintf("svc-%d", base+int64(k)), Nets: w.nets, Tracks: w.tracks, Layers: 3,
			Seed: base + int64(k), PinCandidates: cands, AvgHPWL: w.tracks / 10, Blockages: w.nets / 150}
		_, end := tr.begin("bench.Generate", 0, trace)
		nl := bench.Generate(sp)
		end()
		_, end = tr.begin("netlist.Read", 0, trace)
		buf.Reset()
		err := nl.Write(&buf)
		text := buf.String()
		if err == nil {
			out[k].nl, err = netlist.Read(&buf)
		}
		end()
		if err != nil {
			return nil, fmt.Errorf("netlist round trip of %s: %w", sp.Name, err)
		}
		for t, on := range [2]bool{true, false} {
			if out[k].bodies[t], err = json.Marshal(serve.Request{Name: sp.Name, Netlist: text, Trace: &on}); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// daemon is an in-process serve.Server on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{Workers: 2}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the job pool, closes the listener and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := d.srv.Drain(ctx)
	serr := d.hs.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr)
}

// job is the client's record of one submitted job.
type job struct {
	k                                   int
	traced                              bool
	due, sent, acked, started, finished time.Time
	fetchStart, fetched                 time.Time
	rejected                            bool
	err                                 string
	text                                string
	traceEvents, replayEvents           int
	replayEnd                           bool
	endEvents                           int
}

func (w serviceWorkload) run(c config) (*report, error) {
	rep := newReport()
	if c.trace {
		rep.tr = newTracer()
	}
	var ins []jobInput
	var d *daemon
	var setup, gen, read []float64
	for r := int64(1); r <= setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if ins, err = w.inputs(w.base, rep.tr, -r); err != nil {
			return nil, err
		}
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		gen = append(gen, sum(rep.tr.durations("bench.Generate", -r)))
		read = append(read, sum(rep.tr.durations("netlist.Read", -r)))
		if r < setupReps {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}

	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	client := &http.Client{Transport: transport}
	n := max(1, int(math.Ceil(w.rate*c.seconds.Seconds())))
	jobs := make([]job, n)
	ks := w.schedule(c.seed, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range jobs {
		jobs[i] = job{k: ks[i], traced: (i/2)%2 == 0,
			due: start.Add(time.Duration(float64(i) / w.rate * float64(time.Second)))}
		time.Sleep(time.Until(jobs[i].due))
		wg.Add(1)
		go func(j *job, trace int64) {
			defer wg.Done()
			w.drive(client, d.url, ins, j, rep.tr, trace)
		}(&jobs[i], int64(i+1))
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	transport.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	rss := peakRSSMiB() // before the references, which are the checker's cost

	refs, layers := w.references(ins, c.trace, conns, rep)

	var lats, submit, wait, runMs, result, lag, events []float64
	last := start
	done, rejected, routedNets, nets := 0, 0, 0, 0
	overlay := 0.0
	for i := range jobs {
		j := &jobs[i]
		lag = append(lag, ms(j.sent.Sub(j.due)))
		if j.rejected {
			rejected++
		}
		if j.err != "" {
			rep.note("job %d failed: %s", i+1, j.err)
		}
		if j.err != "" || j.rejected {
			lats = append(lats, jobDeadline.Seconds())
			continue
		}
		done++
		lats = append(lats, j.fetched.Sub(j.due).Seconds())
		submit = append(submit, ms(j.acked.Sub(j.sent)))
		wait = append(wait, ms(j.started.Sub(j.acked)))
		runMs = append(runMs, ms(j.finished.Sub(j.started)))
		result = append(result, ms(j.fetched.Sub(j.fetchStart)))
		if j.fetched.After(last) {
			last = j.fetched
		}
		ref := refs[j.k]
		for _, p := range checkJob(j, ref) {
			rep.fail("job %d (%s): %s", i+1, ins[j.k].nl.Name, p)
		}
		routedNets += ref.routed
		nets += len(ins[j.k].nl.Nets)
		overlay += ref.overlay
		if j.traced {
			events = append(events, float64(j.traceEvents))
		}
	}
	rep.attempted, rep.failed = n, n-done
	if !c.trace {
		wall := last.Sub(start).Seconds()
		rep.values["setup_s"] = median(setup)
		rep.values["peak_rss_mb"] = rss
		rep.values["wall_s"] = wall
		rep.values["latency_p50_s"] = quantile(lats, 0.5)
		rep.values["latency_p90_s"] = quantile(lats, 0.9)
		rep.values["jobs_per_s"] = ratio(float64(done), wall)
		rep.values["routed_pct"] = 100 * ratio(float64(routedNets), float64(nets))
		rep.values["overlay_units"] = ratio(overlay, float64(done))
		return rep, nil
	}
	// Metrics no layer set here, such as sparse.* and
	// obs.trace_overhead_pct, read 0.
	for _, def := range perLayer {
		var xs []float64
		for _, m := range layers {
			xs = append(xs, m[def.name])
		}
		rep.values[def.name] = mean(xs)
	}
	rep.values["bench.generate_s"] = median(gen)
	rep.values["netlist.read_s"] = median(read)
	rep.values["serve.submit_ms_p50"] = quantile(submit, 0.5)
	rep.values["serve.queue_wait_ms_p50"] = quantile(wait, 0.5)
	rep.values["serve.queue_wait_ms_p90"] = quantile(wait, 0.9)
	rep.values["serve.run_ms_p50"] = quantile(runMs, 0.5)
	rep.values["serve.result_ms_p50"] = quantile(result, 0.5)
	rep.values["serve.rejected"] = float64(rejected)
	rep.values["serve.generator_lag_ms_max"] = quantile(lag, 1)
	rep.values["serve.heap_live_mb"] = float64(live.HeapAlloc) / (1 << 20)
	rep.values["obs.trace_events"] = mean(events)
	rep.values["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(n)
	rep.values["runtime.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / float64(n)
	return rep, nil
}

// drive runs one job through the API: submit at its due time, poll its
// status until it is terminal, fetch the result and, for a traced job,
// replay its SSE stream. Every HTTP call is a span of the job's trace.
func (w serviceWorkload) drive(client *http.Client, url string, ins []jobInput, j *job, tr *tracer, trace int64) {
	root, end := tr.begin("job", 0, trace)
	defer end()
	call := func(name, method, path string, body []byte) (int, []byte, error) {
		_, end := tr.begin(name, root, trace)
		defer end()
		req, err := http.NewRequest(method, url+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	fail := func(format string, args ...any) { j.err = fmt.Sprintf(format, args...) }

	body := ins[j.k].bodies[0]
	if !j.traced {
		body = ins[j.k].bodies[1]
	}
	j.sent = time.Now()
	code, b, err := call("serve.submit", "POST", "/v1/jobs", body)
	j.acked = time.Now()
	var ack serve.SubmitResponse
	switch {
	case err != nil:
		fail("submit: %v", err)
		return
	case code == http.StatusTooManyRequests:
		j.rejected = true
		return
	case code != http.StatusAccepted:
		fail("submit: status %d: %s", code, b)
		return
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		fail("submit: %v", err)
		return
	}

	var st serve.JobStatus
	for {
		if time.Since(j.due) > jobDeadline {
			// Best effort: the job counts as failed whatever the cancel says.
			_, _, _ = call("serve.cancel", "POST", "/v1/jobs/"+ack.ID+"/cancel", nil)
			fail("missed its %v deadline", jobDeadline)
			return
		}
		code, b, err := call("serve.status", "GET", "/v1/jobs/"+ack.ID, nil)
		now := time.Now()
		if err != nil || code != http.StatusOK {
			fail("status: %d %v", code, err)
			return
		}
		if err := json.Unmarshal(b, &st); err != nil {
			fail("status: %v", err)
			return
		}
		if st.State != serve.StateQueued && j.started.IsZero() {
			j.started = now
		}
		if st.State.Terminal() {
			j.finished = now
			break
		}
		time.Sleep(pollInterval)
	}
	if st.State != serve.StateDone {
		fail("ended %s: %s", st.State, st.Error)
		return
	}
	j.traceEvents = st.TraceEvents

	j.fetchStart = time.Now()
	code, b, err = call("serve.result", "GET", "/v1/jobs/"+ack.ID+"/result", nil)
	j.fetched = time.Now()
	var res serve.Result
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(b, &res)
	}
	if err != nil || code != http.StatusOK {
		fail("result: %d %v", code, err)
		return
	}
	j.text = res.ResultText

	if j.traced {
		_, b, err := call("serve.events", "GET", "/v1/jobs/"+ack.ID+"/events", nil)
		if err != nil {
			fail("events: %v", err)
			return
		}
		j.replayEvents, j.replayEnd, j.endEvents = parseSSE(b)
	}
}

// checkJob checks a finished job against the in-process reference of its
// instance: the served result_text must equal the reference byte for
// byte, and a traced job's replayed SSE stream must end with end and carry
// as many trace events as the status reports.
func checkJob(j *job, ref reference) []string {
	var out []string
	if j.text != ref.text {
		out = append(out, "result_text differs from the in-process reference")
	}
	if j.traced && (!j.replayEnd || j.replayEvents != j.traceEvents || j.endEvents != j.traceEvents) {
		out = append(out, fmt.Sprintf("SSE replay ended=%v with %d trace events, end reports %d, status %d",
			j.replayEnd, j.replayEvents, j.endEvents, j.traceEvents))
	}
	return out
}

// parseSSE counts the trace events of a replayed stream and reports
// whether its last event is end, with the trace_events the end carries.
func parseSSE(b []byte) (traces int, ended bool, endEvents int) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	last := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			last = strings.TrimPrefix(line, "event: ")
			if last == "trace" {
				traces++
			}
		case strings.HasPrefix(line, "data: ") && last == "end":
			var st serve.JobStatus
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st) == nil {
				endEvents = st.TraceEvents
			}
		}
	}
	return traces, last == "end", endEvents
}

// reference is the in-process result of one distinct instance.
type reference struct {
	text    string
	routed  int
	overlay float64
}

// references routes every distinct instance in process, as the daemon
// does (router.Route, then DecomposeLayersR on the same recorder), renders
// the canonical result text, and checks the output. With traced set it
// also derives each instance's per-layer numbers.
func (w serviceWorkload) references(ins []jobInput, traced bool, workers int, rep *report) ([]reference, []map[string]float64) {
	ds := rules.Node10nm()
	passes := make([]pass, len(ins))
	snaps := make([]obs.Snapshot, len(ins))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				rec := obs.New()
				p := pass{outs: make([]output, 1)}
				if traced {
					p.taps = []*traceTap{{rec: rec}}
					rec.SetTrace(p.taps[0])
				}
				opt := router.Defaults()
				opt.Obs = rec
				trace := refTrace(k)
				_, end := rep.tr.begin("router.Route", 0, trace)
				res := router.Route(ins[k].nl, ds, opt)
				end()
				_, end = rep.tr.begin("Result.DecomposeLayersR", 0, trace)
				decs, tot := res.DecomposeLayersR(rec)
				end()
				p.outs[0] = output{nl: ins[k].nl, res: res, decs: decs, tot: tot}
				passes[k], snaps[k] = p, rec.Snapshot()
			}
		}()
	}
	for k := range ins {
		next <- k
	}
	close(next)
	wg.Wait()

	refs := make([]reference, len(ins))
	var layers []map[string]float64
	for k, p := range passes {
		o := p.outs[0]
		trace := refTrace(k)
		routed, bad := check(o, ds, rep.tr, 0, trace)
		for _, b := range bad {
			rep.fail("reference %s: %s", o.nl.Name, b)
		}
		refs[k] = reference{routed: routed, overlay: o.tot.SideOverlayUnits,
			text: serve.RenderResultText(o.nl, o.res, o.tot, &snaps[k])}
		if traced {
			layers = append(layers, layerNumbers(p, len(o.nl.Nets), rep, trace))
		}
	}
	return refs, layers
}

// refTrace is the span trace id of reference k; jobs use 1..n and set-up
// repetitions negative ids.
func refTrace(k int) int64 { return 1_000_000 + int64(k) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
