package fxa

// Fast-forward differential suite: the emulator's block-stepping fast
// path (emu.FFFast, the Machine.Run default) must be bit-identical to the
// one-Step-per-instruction reference path (emu.FFStep) on every compiled
// test kernel and every synthetic SPEC proxy — registers, memory, PC,
// halt state and instruction count. internal/emu has the same contract on
// hand-written corner-case kernels (fast_test.go); this suite runs it
// over the full workload surface the simulator actually ships.

import (
	"context"
	"reflect"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/emu"
)

// ffDiffInsts is the per-run budget. Large enough for every proxy to be
// deep in its steady-state loop and for every kernel to cross page
// boundaries and predecode several pages.
const ffDiffInsts = 40_000

// runFFBoth executes prog under both fast-forward modes and compares the
// complete architectural outcome.
func runFFBoth(t *testing.T, name string, prog *asm.Program) {
	t.Helper()
	fast, slow := emu.New(prog), emu.New(prog)
	fast.FF, slow.FF = emu.FFFast, emu.FFStep
	nf, ef := fast.Run(ffDiffInsts)
	ns, es := slow.Run(ffDiffInsts)
	if ef != nil || es != nil {
		t.Fatalf("%s: run errors: fast %v, step %v", name, ef, es)
	}
	if nf != ns || fast.InstCount != slow.InstCount {
		t.Fatalf("%s: executed fast %d (total %d), step %d (total %d)",
			name, nf, fast.InstCount, ns, slow.InstCount)
	}
	if fast.PC != slow.PC || fast.Halt != slow.Halt {
		t.Fatalf("%s: control state differs: PC %#x/%#x halt %v/%v",
			name, fast.PC, slow.PC, fast.Halt, slow.Halt)
	}
	if fast.R != slow.R {
		t.Errorf("%s: integer register file differs", name)
	}
	if fast.F != slow.F {
		t.Errorf("%s: FP register file differs", name)
	}
	if addr, differs := fast.Mem.Diff(slow.Mem); differs {
		t.Errorf("%s: memory differs at %#x: fast %#x, step %#x",
			name, addr, fast.Mem.Load8(addr), slow.Mem.Load8(addr))
	}
}

func TestFastForwardDifferentialKernels(t *testing.T) {
	for _, path := range testKernels(t) {
		name, prog := compileKernel(t, path)
		t.Run(name, func(t *testing.T) { runFFBoth(t, name, prog) })
	}
}

func TestFastForwardDifferentialProxies(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			runFFBoth(t, w.Name, prog)
		})
	}
}

// TestRunWarmModeInvariance: a warmed timing run must produce identical
// results whichever fast-forward engine performed the warmup — the
// measurement window enters at the same architectural state either way.
func TestRunWarmModeInvariance(t *testing.T) {
	w, err := WorkloadByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	old := emu.DefaultFFMode()
	defer emu.SetDefaultFFMode(old)

	SetFFMode(FFFast)
	fast, err := Run(context.Background(), Options{Model: HalfFX(), Workload: w, Warmup: 30_000, MaxInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	SetFFMode(FFStep)
	slow, err := Run(context.Background(), Options{Model: HalfFX(), Workload: w, Warmup: 30_000, MaxInsts: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("warmed run differs between fast-forward modes:\nfast: %+v\nstep: %+v", fast, slow)
	}
}
