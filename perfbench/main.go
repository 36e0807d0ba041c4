// Command perfbench is the repository benchmark. It runs one named
// workload through the public functions of fxa, internal/sweep,
// internal/sampling and internal/serve, checks every output against
// reference digests, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	go run . --workload eval-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: eval-sweep (the evaluation matrix on a worker pool),
// sample-skip (SMARTS-style sampled runs, fast-forward dominated) and
// serve-mix (an open-loop job mix through a router over two shards).
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around its calls into each layer, prints the per-layer
// metrics and writes the spans to the --out directory. A run whose
// outputs disagree with the references prints correct=false and exits 1.
// --update-digests FILE regenerates the references.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"fxa"
	"fxa/internal/perfgate"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them (see each workload for its reading of "job"). Job
// latency p50 and tail are per-layer metrics: on serve-mix they spread
// by a fifth and two fifths of their median across seeds on a 2-vCPU
// host, too wide for a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"span_minst_per_s", "Minst/s"},
	{"slo_met_frac", "frac"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
	{"paper_err", "frac"},
	{"ipc_ci_rel_half", "frac"},
}

// perLayer are the traced run's metrics. A layer the workload bypasses
// reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"job_p50_ms", "ms"},
		{"job_tail_ms", "ms"},
		{"workload.build_ms", "ms"},
		{"emu.ff_minst_per_s", "Minst/s"},
	}
	for _, m := range modelNames() {
		defs = append(defs, metricDef{"engine.ns_per_inst." + metricModel(m), "ns/inst"})
	}
	return append(defs,
		metricDef{"engine.new_us", "us"},
		metricDef{"engine.allocs_per_kinst", "count"},
		metricDef{"energy.estimate_us", "us"},
		metricDef{"sweep.overhead_frac", "frac"},
		metricDef{"sweep.parallel_eff", "frac"},
		metricDef{"sampling.ff_share", "frac"},
		metricDef{"sampling.det_share", "frac"},
		metricDef{"sampling.ff_minst_per_s", "Minst/s"},
		metricDef{"sampling.det_minst_per_s", "Minst/s"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.first_event_ms", "ms"},
		metricDef{"serve.queue_wait_p50_ms", "ms"},
		metricDef{"serve.queue_wait_tail_ms", "ms"},
		metricDef{"serve.run_ms.miss", "ms"},
		metricDef{"serve.run_ms.hit", "ms"},
		metricDef{"serve.run_ms.collapsed", "ms"},
		metricDef{"serve.run_ms.sample", "ms"},
		metricDef{"serve.run_ms.stream", "ms"},
		metricDef{"serve.interval_gap_ms", "ms"},
		metricDef{"serve.proxy_hop_ms", "ms"},
		metricDef{"serve.cache_hit_frac", "frac"},
		metricDef{"serve.collapsed_frac", "frac"},
		metricDef{"serve.federated_frac", "frac"},
		metricDef{"serve.resubmitted", "count"},
		metricDef{"serve.gen_late_ms", "ms"},
		metricDef{"serve.sustained_rate", "1/s"},
		metricDef{"self_share.workload", "frac"},
		metricDef{"self_share.emu", "frac"},
		metricDef{"self_share.engine", "frac"},
		metricDef{"self_share.energy", "frac"},
		metricDef{"trace.cell_ratio", "ratio"},
		metricDef{"trace_overhead_frac", "frac"},
	)
}()

// metricModel spells a model name the way metric names allow ("+" is
// not a metric-name character).
func metricModel(name string) string { return strings.ReplaceAll(name, "+", "-") }

// env is one benchmark run's configuration.
type env struct {
	seed    int64
	dur     time.Duration // measured time
	trace   bool
	nproc   int
	out     string // scratch directory inside the checkout
	ref     digests
	rec     *recorder // nil when untraced
	workers map[string]int
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{}}
}

// fail records one failed operation with a description.
func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, msg)
	}
}

// jobStats fills the job latency metrics from per-job milliseconds: p50
// and tail over the jobs that finished, and the share of the sent jobs
// that finished within limit.
func jobStats(o *outcome, ms []float64, limit time.Duration, sent int) {
	o.layer["job_p50_ms"] = median(ms)
	t, pct, _ := tail(ms)
	o.layer["job_tail_ms"] = t
	o.notes["job_tail_percentile"] = pct
	o.notes["job_samples"] = len(ms)
	met := 0
	for _, v := range ms {
		if v <= float64(limit)/1e6 {
			met++
		}
	}
	o.e2e["slo_met_frac"] = ratio(float64(met), float64(sent))
	o.notes["job_latency_limit_ms"] = float64(limit) / 1e6
}

// workload is one named benchmark workload.
type workload struct {
	// workers returns the worker and load-thread counts the workload
	// would use on nproc CPUs.
	workers func(nproc int) map[string]int
	run     func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = map[string]workload{
	"eval-sweep":  {workers: evalWorkers, run: runEvalSweep},
	"sample-skip": {workers: sampleWorkers, run: runSampleSkip},
	"serve-mix":   {workers: serveWorkers, run: runServeMix},
}

// runLimit bounds a whole run, so the command always exits in time.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: eval-sweep, sample-skip or serve-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "scratch directory for caches and span files")
	update := fs.String("update-digests", "", "regenerate the reference digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if *update != "" {
		if err := updateDigests(ctx, *update, runtime.NumCPU()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	ref, err := loadDigests(referenceDigests)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		nproc: runtime.NumCPU(), out: *out, ref: ref}
	e.workers = w.workers(e.nproc)
	for k, n := range e.workers {
		if n > e.nproc {
			fmt.Fprintf(stderr, "perfbench: %s needs %s=%d but only %d CPUs are available\n", *name, k, n, e.nproc)
			return 1
		}
	}
	if e.trace {
		e.rec = newRecorder()
	}

	o, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.attempted > 0 {
		o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	}

	stamp := map[string]any{
		"fail_frac":   ratio(float64(o.failed), float64(o.attempted)),
		"workload":    *name,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"fingerprint": perfgate.CurrentFingerprint("."),
		"nproc":       e.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     e.workers,
		"notes":       o.notes,
	}
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if e.trace {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := e.rec.write(path, stamp); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stamp["spans_file"] = path
	}

	defs, vals := endToEnd, o.e2e
	if e.trace {
		defs, vals = perLayer, o.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !e.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		metrics[d.name] = metric{v, d.unit}
	}
	correct := o.failed == 0
	report := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics}
	sb, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rb, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", sb, rb)
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// peakRSSMB reads the process's resident-memory high-water mark (VmHWM)
// in MiB, falling back to the Go runtime's view where /proc is absent.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rssWindows samples the resident-memory high-water mark over
// consecutive windows: at the end of each, it reads VmHWM and restarts
// the mark from the current resident set (by writing 5 to
// /proc/self/clear_refs). A single peak over a run depends on how
// garbage collections fall against allocation bursts; the median window
// peak repeats better. Where clear_refs cannot be written every window
// reads the process's peak so far.
type rssWindows struct {
	stop chan struct{}
	done chan []float64
}

// rssWindow is the length of one rssWindows window.
const rssWindow = time.Second

// startRSSWindows returns freed memory to the OS, so that garbage from
// earlier work does not count, and starts the windows.
func startRSSWindows() *rssWindows {
	debug.FreeOSMemory()
	resetPeakRSS()
	w := &rssWindows{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		var peaks []float64
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peaks = append(peaks, peakRSSMB())
				resetPeakRSS()
			case <-w.stop:
				w.done <- append(peaks, peakRSSMB())
				return
			}
		}
	}()
	return w
}

// median stops the windows and returns the median window peak in MiB.
func (w *rssWindows) median() float64 {
	close(w.stop)
	return median(<-w.done)
}

func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// setupTimer times the workload's set-up: building every program of
// ws, then extra. Each call of once is one timed set-up; setup_s is
// their median.
type setupTimer struct {
	ws      []fxa.Workload
	extra   func() error
	s       []float64 // seconds per set-up
	buildMS []float64 // per program build
}

func (t *setupTimer) once() error {
	t0 := time.Now()
	for _, w := range t.ws {
		b0 := time.Now()
		if _, err := w.Build(); err != nil {
			return err
		}
		t.buildMS = append(t.buildMS, float64(time.Since(b0))/1e6)
	}
	if t.extra != nil {
		if err := t.extra(); err != nil {
			return err
		}
	}
	t.s = append(t.s, time.Since(t0).Seconds())
	return nil
}

// report sets setup_s and workload.build_ms.
func (t *setupTimer) report(o *outcome) {
	o.e2e["setup_s"] = median(t.s)
	o.layer["workload.build_ms"] = median(t.buildMS)
}

// setupReps is how many times serve-mix repeats its set-up before it
// starts; the other workloads time one set-up before each untraced pass.
const setupReps = 21

// minPasses is the fewest measured passes a run makes, however short.
const minPasses = 4

// repeatPasses calls pass until the measured time is spent, and at least
// minPasses times. A traced run alternates untraced and traced passes,
// starting untraced, and hands the recorder to the traced ones only; rec
// is nil on an untraced pass.
func repeatPasses(e *env, pass func(rep int, rec *recorder) error) error {
	deadline := time.Now().Add(e.dur)
	for rep := 0; rep < minPasses || time.Now().Before(deadline); rep++ {
		var rec *recorder
		if e.trace && rep%2 == 1 {
			rec = e.rec
		}
		if err := pass(rep, rec); err != nil {
			return err
		}
	}
	return nil
}
