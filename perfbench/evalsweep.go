package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"fxa"
	"fxa/internal/emu"
	"fxa/internal/energy"
	"fxa/internal/engine"
	"fxa/internal/sweep"
)

// The eval-sweep cell: a short functional warm-up, then a detailed
// window, as fxabench runs it.
const (
	evalWarmup = 100_000
	evalInsts  = 40_000
	// evalJobLimit is the per-cell latency limit behind slo_met_frac. A
	// cell takes tens of milliseconds, so on eval-sweep the metric reads
	// 1 unless a cell stalls; wall_s carries the speed signal.
	evalJobLimit = time.Second
	// evalTraceTol bounds how far trace.cell_ratio may stray from 1.
	evalTraceTol = 0.2
	// parallelCells is the fixed cell subset behind sweep.parallel_eff.
	parallelCells = 28
)

func evalWorkers(nproc int) map[string]int { return map[string]int{"sweep_workers": nproc} }

func modelNames() []string {
	var names []string
	for _, m := range fxa.AllModels() {
		names = append(names, m.Name)
	}
	return names
}

// cell is one (model, workload) simulation.
type cell struct {
	m fxa.Model
	w fxa.Workload
}

func (c cell) key(kind string, budget uint64) string {
	return fmt.Sprintf("%s|%s|%s|%d", kind, c.m.Name, c.w.Name, budget)
}

// evalCells is every workload × model, in Workloads() × models order.
func evalCells(models []fxa.Model) []cell {
	var cells []cell
	for _, w := range fxa.Workloads() {
		for _, m := range models {
			cells = append(cells, cell{m, w})
		}
	}
	return cells
}

// pass is one sweep over a cell set.
type pass struct {
	results []fxa.Result // in cell order
	jobMS   []float64    // per-job run time
	wall    time.Duration
	stats   fxa.SweepStats
}

// sweepPass runs cells once through sweep.Run with jobs submitted in
// the given order. A non-nil rec makes the jobs record spans (tag names
// the pass in span job IDs).
func sweepPass(ctx context.Context, cells []cell, order []int, workers int, rec *recorder, tag string) (pass, error) {
	jobs := make([]sweep.Job, len(order))
	ms := make([]float64, len(order))
	for i, ci := range order {
		c := cells[ci]
		j := fxa.EvaluationJob(c.m, c.w, evalWarmup, evalInsts)
		var marks *cellMarks
		if rec != nil {
			j, marks = tracedCellJob(c)
		}
		run := j.Run
		slot := &ms[i]
		job := fmt.Sprintf("%s/%s/%s", tag, c.w.Name, c.m.Name)
		j.Run = func(ctx context.Context) (fxa.Result, error) {
			t0 := time.Now()
			r, err := run(ctx)
			t1 := time.Now()
			*slot = float64(t1.Sub(t0)) / 1e6
			if marks != nil && err == nil {
				marks.record(rec, job, t0, t1)
			}
			return r, err
		}
		jobs[i] = j
	}
	t0 := time.Now()
	res, st, err := sweep.Run(ctx, jobs, sweep.Options{Workers: workers})
	p := pass{results: make([]fxa.Result, len(cells)), jobMS: ms, wall: time.Since(t0), stats: st}
	if err != nil {
		return p, err
	}
	for i, ci := range order {
		p.results[ci] = res[i]
	}
	return p, nil
}

// cellMarks are the times a traced cell crossed from one layer call to
// the next: build, emulator set-up, warm-up, engine construction, drive,
// energy estimate.
type cellMarks [7]time.Time

// record adds the cell's spans: the job from t0 to t1 as the pool saw
// it, with one child per layer call. The children are contiguous and
// cover the cell; runEvalSweep checks the cells' total against the
// untraced program's.
func (m *cellMarks) record(rec *recorder, job string, t0, t1 time.Time) {
	root := rec.add("cell", job, 0, t0, t1)
	rec.add("workload.build", job, root, m[0], m[1])
	rec.add("emu.new", job, root, m[1], m[2])
	rec.add("emu.ff", job, root, m[2], m[3])
	eng := rec.add("engine", job, root, m[3], m[5])
	rec.add("engine.new", job, eng, m[3], m[4])
	rec.add("energy", job, root, m[5], m[6])
}

// tracedCellJob is fxa.EvaluationJob's run with the time of each layer
// call marked: program build, emulator warm-up, engine construction and
// drive, and the energy estimate. The caller records the spans after the
// job, so no recording happens inside the timed calls.
func tracedCellJob(c cell) (sweep.Job, *cellMarks) {
	var m cellMarks
	return sweep.Job{
		Label: c.w.Name + "/" + c.m.Name,
		Run: func(ctx context.Context) (fxa.Result, error) {
			m[0] = time.Now()
			prog, err := c.w.Build()
			m[1] = time.Now()
			if err != nil {
				return fxa.Result{}, err
			}
			mach := emu.New(prog)
			m[2] = time.Now()
			_, err = mach.Run(evalWarmup)
			m[3] = time.Now()
			if err != nil {
				return fxa.Result{}, err
			}
			stream := emu.NewStream(mach, mach.InstCount+evalInsts)
			e, err := engine.New(c.m, stream)
			m[4] = time.Now()
			if err != nil {
				return fxa.Result{}, err
			}
			res, err := engine.Drive(ctx, e, engine.Options{})
			m[5] = time.Now()
			if err == nil {
				err = stream.Err()
			}
			if err != nil {
				return fxa.Result{}, err
			}
			_ = fxa.EnergyOf(c.m, res)
			m[6] = time.Now()
			return res, nil
		},
	}, &m
}

// checkCells compares each result's digest with the reference and
// records mismatches on o.
func checkCells(e *env, o *outcome, cells []cell, results []fxa.Result, kind string, budget uint64) {
	o.attempted += len(cells)
	for i, c := range cells {
		d, err := digest(results[i])
		if err != nil {
			o.fail(err.Error())
			continue
		}
		if msg := e.ref.check(c.key(kind, budget), d); msg != "" {
			o.fail(msg)
		}
	}
}

// headline is one of the paper's headline ratios (fxabench -experiment
// headline) with its published value.
type headline struct {
	what  string
	paper float64
	got   func(*fxa.Evaluation) float64
}

var headlines = []headline{
	{"HALF+FX IPC vs BIG (ALL)", 1.057, func(ev *fxa.Evaluation) float64 { return ev.GeomeanRelIPC("HALF+FX", fxa.GroupALL) }},
	{"HALF+FX IPC vs BIG (INT)", 1.074, func(ev *fxa.Evaluation) float64 { return ev.GeomeanRelIPC("HALF+FX", fxa.GroupINT) }},
	{"HALF+FX IPC vs BIG (FP)", 1.045, func(ev *fxa.Evaluation) float64 { return ev.GeomeanRelIPC("HALF+FX", fxa.GroupFP) }},
	{"libquantum HALF+FX IPC vs BIG", 1.67, func(ev *fxa.Evaluation) float64 {
		r, err := ev.RowByName("libquantum")
		if err != nil {
			return math.NaN()
		}
		return r.RelIPC("HALF+FX")
	}},
	{"LITTLE IPC vs BIG", 0.60, func(ev *fxa.Evaluation) float64 { return ev.GeomeanRelIPC("LITTLE", fxa.GroupALL) }},
	{"HALF IPC vs BIG", 0.84, func(ev *fxa.Evaluation) float64 { return ev.GeomeanRelIPC("HALF", fxa.GroupALL) }},
	{"HALF+FX energy vs BIG", 0.83, func(ev *fxa.Evaluation) float64 { return ev.TotalEnergyRatio("HALF+FX") }},
	{"BIG+FX energy vs BIG", 0.913, func(ev *fxa.Evaluation) float64 { return ev.TotalEnergyRatio("BIG+FX") }},
	{"LITTLE energy vs BIG", 0.60, func(ev *fxa.Evaluation) float64 { return ev.TotalEnergyRatio("LITTLE") }},
	{"HALF+FX IQ energy vs BIG", 0.14, func(ev *fxa.Evaluation) float64 { return ev.EnergyRatio("HALF+FX", energy.IQ) }},
	{"HALF+FX LSQ energy vs BIG", 0.77, func(ev *fxa.Evaluation) float64 { return ev.EnergyRatio("HALF+FX", energy.LSQ) }},
}

// paperErr is the mean absolute relative error of the headline IPC and
// energy ratios against the paper, from results over cells (which must
// cover Workloads() × AllModels()).
func paperErr(cells []cell, results []fxa.Result) (float64, error) {
	byKey := make(map[string]fxa.Result, len(cells))
	for i, c := range cells {
		byKey[c.w.Name+"/"+c.m.Name] = results[i]
	}
	var five []fxa.Result
	for _, w := range fxa.Workloads() {
		for _, m := range fxa.Models() {
			r, ok := byKey[w.Name+"/"+m.Name]
			if !ok {
				return 0, fmt.Errorf("paper error: no result for %s/%s", w.Name, m.Name)
			}
			five = append(five, r)
		}
	}
	ev, err := fxa.NewEvaluation(evalWarmup, evalInsts, five)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, h := range headlines {
		v := h.got(ev)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("paper error: %s is %v", h.what, v)
		}
		total += math.Abs(v-h.paper) / h.paper
	}
	return total / float64(len(headlines)), nil
}

// paperErrProbe runs the paper's five models once, untimed, for the
// workloads that do not sweep them, checks the cells and returns
// paper_err.
func paperErrProbe(ctx context.Context, e *env, o *outcome) (float64, error) {
	cells := evalCells(fxa.Models())
	order := rand.New(rand.NewSource(e.seed)).Perm(len(cells))
	p, err := sweepPass(ctx, cells, order, e.nproc, nil, "")
	if err != nil {
		return 0, err
	}
	checkCells(e, o, cells, p.results, "eval", evalInsts)
	return paperErr(cells, p.results)
}

// runEvalSweep measures the evaluation matrix: every workload on every
// registered model through sweep.Run with nproc workers, repeated for
// the measured time in seeded submission orders.
func runEvalSweep(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	cells := evalCells(fxa.AllModels())
	setup := &setupTimer{ws: fxa.Workloads()}
	rss := startRSSWindows()
	rng := rand.New(rand.NewSource(e.seed))
	var walls, tracedWalls, jobMS, allocs, overhead, cellRatios []float64
	var last pass
	err := repeatPasses(e, func(rep int, rec *recorder) error {
		if rec == nil {
			if err := setup.once(); err != nil {
				return err
			}
		}
		p, err := sweepPass(ctx, cells, rng.Perm(len(cells)), e.nproc, rec, fmt.Sprintf("r%d", rep))
		if err != nil {
			return err
		}
		checkCells(e, o, cells, p.results, "eval", evalInsts)
		if rec != nil {
			cellRatios = append(cellRatios, sum(p.jobMS)/sum(last.jobMS))
			tracedWalls = append(tracedWalls, p.wall.Seconds())
			overhead = append(overhead, 1-sum(p.jobMS)/1e3/(float64(p.stats.Workers)*p.wall.Seconds()))
			return nil
		}
		walls = append(walls, p.wall.Seconds())
		jobMS = append(jobMS, p.jobMS...)
		allocs = append(allocs, p.stats.AllocsPerKInst())
		last = p
		return nil
	})
	o.e2e["peak_rss_mb"] = rss.median()
	if err != nil {
		return nil, err
	}
	setup.report(o)

	wall := median(walls)
	var ff, det float64
	for _, r := range last.results {
		det += float64(r.Counters.Committed)
		ff += evalWarmup
	}
	o.e2e["wall_s"] = wall
	o.e2e["sim_minst_per_s"] = det / wall / 1e6
	o.e2e["span_minst_per_s"] = (ff + det) / wall / 1e6
	jobStats(o, jobMS, evalJobLimit, len(jobMS))
	pe, err := paperErr(cells, last.results)
	if err != nil {
		return nil, err
	}
	o.e2e["paper_err"] = pe
	o.notes["rep_walls_s"] = walls
	o.layer["engine.allocs_per_kinst"] = median(allocs)
	if !e.trace {
		o.e2e["ipc_ci_rel_half"], err = ipcCIProbe(ctx, e, o)
		return o, err
	}

	o.layer["sweep.overhead_frac"] = median(overhead)
	o.layer["trace_overhead_frac"] = median(tracedWalls)/wall - 1
	// A traced pass runs tracedCellJob, a copy of fxa.EvaluationJob: its
	// cells, which their layer spans cover, must take what the program's
	// cells take in the untraced pass before it. Single passes spread by
	// a fifth on a shared host, so the check is on the median.
	r := median(cellRatios)
	if math.Abs(r-1) > evalTraceTol {
		o.fail(fmt.Sprintf("trace: traced cells took %.3fx the untraced cells' time (median of %d passes)", r, len(cellRatios)))
	}
	o.layer["trace.cell_ratio"] = r
	evalLayerMetrics(e, o)
	eff, err := parallelEff(ctx, e, cells[:parallelCells], rng)
	if err != nil {
		return nil, err
	}
	o.layer["sweep.parallel_eff"] = eff
	return o, nil
}

// evalLayerMetrics derives the per-layer metrics from the traced cells'
// spans.
func evalLayerMetrics(e *env, o *outcome) {
	spans := e.rec.snapshot()
	var ffNS, newUS, energyUS []float64
	engineNS := map[string]float64{}
	engineCells := map[string]float64{}
	var cellNS float64
	for _, s := range spans {
		switch s.Name {
		case "cell":
			cellNS += float64(s.dur())
		case "emu.ff":
			ffNS = append(ffNS, float64(s.dur()))
		case "engine.new":
			newUS = append(newUS, float64(s.dur())/1e3)
		case "energy":
			energyUS = append(energyUS, float64(s.dur())/1e3)
		case "engine":
			m := s.Job[strings.LastIndex(s.Job, "/")+1:]
			engineNS[m] += float64(s.dur())
			engineCells[m]++
		}
	}
	o.layer["emu.ff_minst_per_s"] = ratio(float64(len(ffNS))*evalWarmup, sum(ffNS)) * 1e3
	o.layer["engine.new_us"] = median(newUS)
	o.layer["energy.estimate_us"] = median(energyUS)
	for m, ns := range engineNS {
		o.layer["engine.ns_per_inst."+metricModel(m)] = ns / (engineCells[m] * evalInsts)
	}
	self := selfByName(spans)
	layerOf := map[string]string{"workload.build": "workload", "emu.new": "emu", "emu.ff": "emu",
		"engine": "engine", "engine.new": "engine", "energy": "energy"}
	shares := map[string]float64{}
	for name, ns := range self {
		if l, ok := layerOf[name]; ok {
			shares[l] += float64(ns)
		}
	}
	for _, l := range []string{"workload", "emu", "engine", "energy"} {
		o.layer["self_share."+l] = ratio(shares[l], cellNS)
	}
}

// parallelEff is throughput at nproc workers over nproc times the
// throughput at one worker, on a fixed cell subset (median of two runs
// each, alternating).
func parallelEff(ctx context.Context, e *env, cells []cell, rng *rand.Rand) (float64, error) {
	var one, many []float64
	for i := 0; i < 2; i++ {
		for _, w := range []int{1, e.nproc} {
			p, err := sweepPass(ctx, cells, rng.Perm(len(cells)), w, nil, "")
			if err != nil {
				return 0, err
			}
			if w == 1 {
				one = append(one, p.wall.Seconds())
			} else {
				many = append(many, p.wall.Seconds())
			}
		}
	}
	return median(one) / (float64(e.nproc) * median(many)), nil
}
