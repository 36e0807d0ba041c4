// Package fxa is the public API of the FXA reproduction: a cycle-level
// simulator of the Front-end eXecution Architecture (Shioya, Goshima, Ando
// — MICRO 2014) together with the baseline processors it is evaluated
// against, the synthetic SPEC CPU 2006 proxy workloads, and the
// energy/area model used to reproduce the paper's figures.
//
// Quick start:
//
//	w, _ := fxa.WorkloadByName("libquantum")
//	res, err := fxa.Run(context.Background(), fxa.Options{
//		Model: fxa.HalfFX(), Workload: w, MaxInsts: 300_000,
//	})
//	fmt.Println(res.Counters.IPC(), res.Counters.IXURate())
//
// Run is the one single-run entry point; RunEvaluation, RunFigure11 and
// RunFigure1213 are the sweeps, and SampleContext the sampled run.
//
// The five evaluation models of the paper (Section VI-B) are BIG, HALF,
// LITTLE, BIG+FX and HALF+FX; fxa.Models() returns all of them. See
// cmd/fxabench for the harness that regenerates every table and figure.
package fxa

import (
	"context"
	"errors"
	"fmt"

	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
	"fxa/internal/sampling"
	"fxa/internal/sweep"
	"fxa/internal/workload"

	// Blank imports register the timing cores with the engine layer; the
	// public API never names a core package.
	_ "fxa/internal/core"
	_ "fxa/internal/inorder"
)

// SweepOptions configures the simulation-orchestration engine used by
// RunEvaluation and the figure sweeps: worker-pool size, result
// cache, error mode and the serialized progress-event callback. See
// internal/sweep.
type SweepOptions = sweep.Options

// SweepStats reports one engine run: jobs run, cache hits/misses,
// aggregate simulated instructions and throughput, and wall time.
type SweepStats = sweep.Stats

// SweepEvent is one serialized progress event; SweepOptions.OnEvent is
// always invoked from a single goroutine.
type SweepEvent = sweep.Event

// SweepJob is one unit of sweep work: a labelled, fingerprinted,
// self-contained simulation run. EvaluationJob builds the canonical one;
// external executors (internal/serve) run them through sweep.RunOne.
type SweepJob = sweep.Job

// SweepCache is the content-addressed on-disk result cache.
type SweepCache = sweep.Cache

// Re-exported sweep event kinds and error modes.
const (
	SweepEventStart = sweep.EventStart
	SweepEventDone  = sweep.EventDone
	SweepFailFast   = sweep.FailFast
	SweepCollectAll = sweep.CollectAll
)

// OpenSweepCache opens (creating if needed) a simulation result cache
// rooted at dir. Entries are keyed by a hash of the full model
// configuration, the workload parameters, the instruction budget and the
// simulator version (sweep.SimVersion), so any configuration or
// simulator change invalidates them.
func OpenSweepCache(dir string) (*SweepCache, error) { return sweep.OpenCache(dir) }

// FFMode selects how the emulator advances during functional
// fast-forward: FFFast uses the predecoded basic-block interpreter (the
// default, ~5x faster), FFStep forces the single-instruction reference
// path. The two are bit-identical; FFStep exists for differential testing
// and debugging.
type FFMode = emu.FFMode

// Re-exported fast-forward modes.
const (
	FFFast = emu.FFFast
	FFStep = emu.FFStep
)

// SetFFMode sets the process-wide default fast-forward mode used by all
// machines created afterwards (existing machines are unaffected).
func SetFFMode(m FFMode) { emu.SetDefaultFFMode(m) }

// Model is a processor configuration (a column of Table I).
type Model = config.Model

// Workload is a synthetic SPEC CPU 2006 proxy program description.
type Workload = workload.Params

// Result carries the statistics of one simulation run. It is the engine
// layer's schema-versioned result (engine.Result): JSON-serializable, with
// an optional per-interval metrics series (see Options.IntervalInsts).
type Result = engine.Result

// Interval is one entry of a Result's interval-metrics series: the
// counter deltas over a stretch of roughly IntervalInsts committed
// instructions, plus an instantaneous ROB/IQ occupancy sample at the
// interval boundary. Summing every interval's counters reproduces the
// run's final counters exactly.
type Interval = engine.Interval

// The five evaluation models of Section VI-B, plus the dual-issue
// in-order pair of the extended big.LITTLE landscape.
var (
	Big    = config.Big
	Half   = config.Half
	Little = config.Little
	BigFX  = config.BigFX
	HalfFX = config.HalfFX
	Dual   = config.Dual
	DualSI = config.DualSI
)

// Models returns the five evaluation models in the paper's order.
func Models() []Model { return config.Models() }

// AllModels returns every named model across all registered core kinds:
// the paper's five plus DUAL-SI and DUAL (internal/inorder).
func AllModels() []Model { return config.AllModels() }

// ModelByName resolves "BIG", "HALF", "LITTLE", "BIG+FX", "HALF+FX",
// "DUAL-SI" or "DUAL".
func ModelByName(name string) (Model, error) { return config.ByName(name) }

// Workloads returns the 29 SPEC CPU 2006 proxies (12 INT + 17 FP).
func Workloads() []Workload { return workload.Catalog() }

// IntWorkloads returns the INT benchmark group.
func IntWorkloads() []Workload { return workload.INT() }

// FPWorkloads returns the FP benchmark group.
func FPWorkloads() []Workload { return workload.FPGroup() }

// CompiledWorkload is an FXK-authored kernel compiled with the bundled
// compiler; see internal/workload.Compiled.
type CompiledWorkload = workload.Compiled

// CompiledWorkloads returns the FXK kernel suite — compiled code whose
// register reuse resembles real binaries (EXPERIMENTS.md, deviation D1).
func CompiledWorkloads() []CompiledWorkload { return workload.CompiledCatalog() }

// CompiledWorkloadByName returns the named FXK kernel.
func CompiledWorkloadByName(name string) (CompiledWorkload, error) {
	c, ok := workload.CompiledByName(name)
	if !ok {
		return CompiledWorkload{}, fmt.Errorf("fxa: unknown compiled workload %q", name)
	}
	return c, nil
}

// WorkloadByName returns the named proxy.
func WorkloadByName(name string) (Workload, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("fxa: unknown workload %q", name)
	}
	return p, nil
}

// SamplingConfig describes a systematic-sampling schedule — windows,
// window length, skip, detailed warm-up and confidence level (see
// internal/sampling).
type SamplingConfig = sampling.Config

// SamplingSummary aggregates a sampled simulation: per-window results and
// Student-t confidence intervals on IPC, branch MPKI and energy per
// instruction over the measured (warm-excluded) windows.
type SamplingSummary = sampling.Summary

// SampleContext estimates w's behaviour on m with systematic sampling:
// detailed windows separated by functional fast-forwards, far cheaper
// than one long detailed run, with per-metric confidence intervals as the
// accuracy signal. Cancelling ctx interrupts both the functional
// fast-forward and the in-flight detailed windows promptly.
func SampleContext(ctx context.Context, m Model, w Workload, cfg SamplingConfig) (SamplingSummary, error) {
	return sampling.Run(ctx, m, w, cfg)
}

// Options describes one simulation for Run: a model, exactly one source
// of instructions, and for a proxy Workload the paper's skip-then-measure
// budget (Section VI-A).
type Options struct {
	Model Model

	// Exactly one source. Workload is a SPEC proxy, bounded by Warmup
	// and MaxInsts (a proxy's main loop never ends, so MaxInsts 0 runs
	// until ctx is cancelled). Kernel is an FXK kernel, run to
	// completion. Trace is any dynamic-instruction stream; its own cap
	// bounds it (emu.NewStream's limit, or c.NewTrace(n) for a capped
	// kernel run).
	Workload Workload
	Kernel   CompiledWorkload
	Trace    *emu.Stream

	// Warmup instructions run only on the emulator (no timing) before
	// the MaxInsts detailed ones. Workload only.
	Warmup, MaxInsts uint64

	// IntervalInsts > 0 collects interval metrics: Result.Intervals
	// holds counter deltas cut roughly every IntervalInsts committed
	// instructions, and summing them reproduces the final counters
	// exactly. OnInterval, if non-nil, receives each interval as it is
	// cut, from the simulating goroutine, so a serving layer can stream
	// the series while the run is in flight.
	IntervalInsts uint64
	OnInterval    func(Interval)
}

// The errors Run returns for an Options that does not describe one
// simulation.
var (
	ErrNoSource     = errors.New("fxa: Options names no source (Workload, Kernel or Trace)")
	ErrTwoSources   = errors.New("fxa: Options names more than one source")
	ErrBudgetSource = errors.New("fxa: Warmup and MaxInsts apply only to a Workload source")
)

// check reports whether o names exactly one source, and a budget only
// for a Workload.
func (o *Options) check() error {
	n := 0
	for _, set := range []bool{o.Workload.Name != "", o.Kernel.Name != "" || o.Kernel.Source != "", o.Trace != nil} {
		if set {
			n++
		}
	}
	switch {
	case n == 0:
		return ErrNoSource
	case n > 1:
		return ErrTwoSources
	case o.Workload.Name == "" && (o.Warmup != 0 || o.MaxInsts != 0):
		return ErrBudgetSource
	}
	return nil
}

// Run simulates one source on o.Model and returns the collected
// statistics. The timing model (out-of-order internal/core or in-order
// internal/inorder) is resolved through the engine registry by
// o.Model.Kind. Cancelling ctx interrupts the simulation within a few
// thousand simulated cycles and returns ctx's error; a trace that
// stopped on an emulator fault fails the run. A Workload run is exactly
// the evaluation cell EvaluationJob builds for the same budget.
func Run(ctx context.Context, o Options) (Result, error) {
	if err := o.check(); err != nil {
		return Result{}, err
	}
	opts := engine.Options{IntervalInsts: o.IntervalInsts, OnInterval: o.OnInterval}
	switch {
	case o.Trace != nil:
		return engine.Run(ctx, o.Model, o.Trace, opts)
	case o.Workload.Name != "":
		return runCell(ctx, o.Model, o.Workload, o.Warmup, o.MaxInsts, nil, opts)
	}
	trace, err := o.Kernel.NewTrace(0)
	if err != nil {
		return Result{}, err
	}
	res, err := engine.Run(ctx, o.Model, trace, opts)
	if err != nil {
		return Result{}, fmt.Errorf("fxa: %s on %s: %w", o.Model.Name, o.Kernel.Name, err)
	}
	return res, nil
}
