package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fxa"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

// samplePair is one sampled (model, workload) run of sample-skip.
type samplePair struct{ model, workload string }

// samplePairs cover all three core kinds, memory-bound mcf and
// streaming libquantum.
var samplePairs = []samplePair{
	{"HALF+FX", "mcf"},
	{"BIG", "libquantum"},
	{"LITTLE", "gcc"},
	{"DUAL", "namd"},
}

// sampleConfig is a SMARTS-grade schedule: short windows behind short
// detailed warm-ups, with skips 250x the detailed work per window, so
// functional fast-forward dominates.
func sampleConfig(workers int) fxa.SamplingConfig {
	return fxa.SamplingConfig{
		Intervals:     40,
		IntervalInsts: 2_000,
		WarmupInsts:   2_000,
		SkipInsts:     1_000_000,
		Workers:       workers,
	}
}

// sampleJobLimit is the per-run latency limit behind slo_met_frac. A
// sampled run takes a few hundred milliseconds, so on sample-skip the
// metric reads 1 unless a run stalls; wall_s carries the speed signal.
const sampleJobLimit = 2 * time.Second

func sampleWorkers(nproc int) map[string]int { return map[string]int{"sampling_workers": nproc} }

func (p samplePair) resolve() (fxa.Model, fxa.Workload, error) {
	m, err := fxa.ModelByName(p.model)
	if err != nil {
		return fxa.Model{}, fxa.Workload{}, err
	}
	w, err := fxa.WorkloadByName(p.workload)
	return m, w, err
}

func (p samplePair) key() string { return fmt.Sprintf("sample|%s|%s", p.model, p.workload) }

// samplePass runs every pair once in order and returns the summaries in
// samplePairs order, with each run's wall time.
func samplePass(ctx context.Context, order []int, workers int, rec *recorder, tag string) ([]fxa.SamplingSummary, []float64, error) {
	sums := make([]fxa.SamplingSummary, len(samplePairs))
	ms := make([]float64, len(samplePairs))
	for _, i := range order {
		p := samplePairs[i]
		m, w, err := p.resolve()
		if err != nil {
			return nil, nil, err
		}
		s := rec.begin("sampling.run", fmt.Sprintf("%s/%s/%s", tag, p.workload, p.model), 0)
		t0 := time.Now()
		sums[i], err = fxa.SampleContext(ctx, m, w, sampleConfig(workers))
		ms[i] = float64(time.Since(t0)) / 1e6
		rec.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("%s on %s: %w", p.model, p.workload, err)
		}
	}
	return sums, ms, nil
}

func checkSummaries(e *env, o *outcome, sums []fxa.SamplingSummary) {
	o.attempted += len(sums)
	for i, s := range sums {
		d, err := summaryDigest(s)
		if err != nil {
			o.fail(err.Error())
			continue
		}
		if msg := e.ref.check(samplePairs[i].key(), d); msg != "" {
			o.fail(msg)
		}
	}
}

// ipcCIRelHalf is the mean relative 95% CI half-width of sampled IPC.
func ipcCIRelHalf(sums []fxa.SamplingSummary) float64 {
	t := 0.0
	for _, s := range sums {
		t += ratio(s.IPC.Half, s.IPC.Mean)
	}
	return t / float64(len(sums))
}

// ipcCIProbe runs the sampled pairs once, untimed, for the workloads
// that do not sample, checks them and returns ipc_ci_rel_half.
func ipcCIProbe(ctx context.Context, e *env, o *outcome) (float64, error) {
	order := rand.New(rand.NewSource(e.seed)).Perm(len(samplePairs))
	sums, _, err := samplePass(ctx, order, e.nproc, nil, "")
	if err != nil {
		return 0, err
	}
	checkSummaries(e, o, sums)
	return ipcCIRelHalf(sums), nil
}

// runSampleSkip measures sampled simulation: each pair through
// fxa.SampleContext, the pass repeated for the measured time in seeded
// orders.
func runSampleSkip(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	var ws []fxa.Workload
	for _, p := range samplePairs {
		_, w, err := p.resolve()
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	cfg := sampleConfig(e.nproc)
	setup := &setupTimer{ws: ws, extra: cfg.Validate}
	rss := startRSSWindows()
	rng := rand.New(rand.NewSource(e.seed))
	var walls, tracedWalls, jobMS []float64
	var last []fxa.SamplingSummary
	var ffInsts, simInsts, ffNS, detNS, runNS float64
	err := repeatPasses(e, func(rep int, rec *recorder) error {
		if rec == nil {
			if err := setup.once(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		sums, ms, err := samplePass(ctx, rng.Perm(len(samplePairs)), e.nproc, rec, fmt.Sprintf("r%d", rep))
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		checkSummaries(e, o, sums)
		if rec != nil {
			tracedWalls = append(tracedWalls, wall)
			for i, s := range sums {
				ffInsts += float64(s.Sweep.FFInsts)
				ffNS += float64(s.Sweep.FFTime)
				simInsts += float64(s.Sweep.SimInsts)
				detNS += float64(s.Sweep.DetailedTime)
				runNS += ms[i] * 1e6
			}
			return nil
		}
		walls = append(walls, wall)
		jobMS = append(jobMS, ms...)
		last = sums
		return nil
	})
	o.e2e["peak_rss_mb"] = rss.median()
	if err != nil {
		return nil, err
	}
	setup.report(o)
	wall := median(walls)
	var span, det float64
	for _, s := range last {
		span += float64(s.Sweep.FFInsts)
		det += float64(s.Sweep.SimInsts)
	}
	o.e2e["wall_s"] = wall
	o.e2e["span_minst_per_s"] = span / wall / 1e6
	o.e2e["sim_minst_per_s"] = det / wall / 1e6
	o.e2e["ipc_ci_rel_half"] = ipcCIRelHalf(last)
	jobStats(o, jobMS, sampleJobLimit, len(jobMS))
	o.notes["rep_walls_s"] = walls
	if !e.trace {
		o.e2e["paper_err"], err = paperErrProbe(ctx, e, o)
		return o, err
	}
	o.layer["trace_overhead_frac"] = median(tracedWalls)/wall - 1
	o.layer["sampling.ff_share"] = ratio(ffNS, runNS)
	o.layer["sampling.det_share"] = ratio(detNS, runNS)
	o.layer["sampling.ff_minst_per_s"] = ratio(ffInsts, ffNS) * 1e3
	o.layer["sampling.det_minst_per_s"] = ratio(simInsts, detNS) * 1e3
	o.layer["emu.ff_minst_per_s"] = o.layer["sampling.ff_minst_per_s"]
	newUS, err := engineNewProbe(ctx)
	if err != nil {
		return nil, err
	}
	o.layer["engine.new_us"] = newUS
	return o, nil
}

// engineNewProbe times engine.New for each pair's model on a fresh
// stream of its workload — the cold start every sampled window pays —
// and returns the median in microseconds.
func engineNewProbe(ctx context.Context) (float64, error) {
	var us []float64
	for _, p := range samplePairs {
		m, w, err := p.resolve()
		if err != nil {
			return 0, err
		}
		prog, err := w.Build()
		if err != nil {
			return 0, err
		}
		base := emu.New(prog)
		for i := 0; i < 50; i++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			stream := emu.NewStream(base.Clone(), base.InstCount+16)
			t0 := time.Now()
			eng, err := engine.New(m, stream)
			us = append(us, float64(time.Since(t0))/1e3)
			if err == nil {
				_, err = engine.Drive(ctx, eng, engine.Options{})
			}
			if err != nil {
				return 0, err
			}
		}
	}
	return median(us), nil
}
