// Command routebench is the repository benchmark. It generates its inputs
// from a seed, drives the router and the routing daemon through their
// public calls, checks every output it times, and prints every metric with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run from the repository root (run.sh builds and runs it):
//
//	bash _routebench/run.sh --workload congested --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, timed with
// observability off; with --trace 1 it reports the per-layer metrics of a
// traced run and writes the benchmark's spans to .bench_build/spans/.
// NOTES.md is the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	seed    int64
	seconds time.Duration // measured time budget
	trace   bool
	// instanceSeed, when non-zero, replaces the pinned generator seed of
	// every workload's instances (see NOTES.md, "Workloads").
	instanceSeed int64
	tiny         bool // test scale
}

// report is one run's verdict and metrics.
type report struct {
	attempted, failed int
	problems          []string // incorrect outputs
	notes             []string // failed operations and other remarks
	values            map[string]float64
	tr                *tracer
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 32 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	if len(r.notes) < 32 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

var workloads = map[string]func(config) (*report, error){
	"congested": func(c config) (*report, error) { return congested(c).run(c) },
	"huge":      func(c config) (*report, error) { return huge(c).run(c) },
	"service":   func(c config) (*report, error) { return service(c).run(c) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "congested", "workload: congested, huge or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	instSeed := fs.Int64("instance-seed", 0, "override the pinned generator seed of the instances (0 = pinned)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "routebench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, instanceSeed: *instSeed}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "routebench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)); err != nil {
		fmt.Fprintf(stderr, "routebench: writing spans: %v\n", err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "routebench: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "routebench: INCORRECT: %s\n", p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := rep.render(stdout, defs)
	if err != nil {
		fmt.Fprintf(stderr, "routebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render prints a readable table of defs to w and returns the JSON result
// line. A metric the workload did not set is an error: every run reports
// every metric of its kind.
func (r *report) render(w io.Writer, defs []metricDef) (string, error) {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		better := "lower"
		if d.higher {
			better = "higher"
		}
		fmt.Fprintf(w, "%-32s %16.6g %-6s (%s is better)\n", d.name, v, d.unit, better)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", out.Attempted, out.Failed, out.Correct)
	b, err := json.Marshal(out)
	return string(b), err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// more reports whether a timed loop should start another step: it keeps
// going while the projected end, half a typical step past the time spent,
// is within the budget. At least one step always runs.
func more(spent []float64, budget time.Duration) bool {
	return len(spent) == 0 || sum(spent)+median(spent)/2 < budget.Seconds()
}
