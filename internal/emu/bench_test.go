package emu_test

// Fast-forward and snapshot benchmarks. These are the regression signals
// for the functional emulator's two performance contracts (DESIGN.md
// §8.3):
//
//   - BenchmarkEmuFastForward: ns/inst of the block-stepping fast path
//     (Machine.Run in the default FFFast mode). The before/after snapshot
//     of the original fast-path work lives in BENCH_ff_history.json;
//     `make bench-emu` re-measures, and `make bench-gate` judges these
//     benchmarks against the live BENCH_emu.json perfgate baseline.
//   - BenchmarkEmuStepForward: the same workloads on the reference
//     one-Step-per-instruction path, so the fast-path ratio is always one
//     benchstat away.
//   - BenchmarkEmuLoad: set-up of one evaluation cell's machine —
//     workload.Build plus emu.New, which generates the data table
//     straight into the machine's pages. B/op is the page slab and the
//     kernel; nothing else may scale with the footprint.
//   - BenchmarkMemoryClone / BenchmarkMachineClone: O(1)-snapshot cost —
//     allocs/op must stay constant as resident memory grows (the COW
//     page-table copy), never scale with it.
//
// Machine setup (emu.New generates megabytes of workload data tables) is
// excluded from the timed region via StopTimer/StartTimer: fast-forward
// throughput is the quantity under test, and at MB-scale footprints setup
// otherwise dilutes the ns/inst signal several-fold.

import (
	"testing"

	"fxa/internal/emu"
	"fxa/internal/workload"
)

// ffBenchWorkloads is the fast-forward benchmark set: two cache-friendly
// kernels, one pointer-chasing DRAM-bound proxy (mcf, the slow extreme)
// and one FP stencil.
var ffBenchWorkloads = []string{"hmmer", "libquantum", "mcf", "GemsFDTD"}

// ffBenchInsts is the per-iteration instruction budget — long enough to
// amortize cold predecode and cache warmup into the noise.
const ffBenchInsts = 200_000

func benchFF(b *testing.B, mode emu.FFMode) {
	for _, name := range ffBenchWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %s", name)
		}
		prog, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				m := emu.New(prog)
				m.FF = mode
				b.StartTimer()
				if _, err := m.Run(ffBenchInsts); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ffBenchInsts, "ns/inst")
		})
	}
}

func BenchmarkEmuFastForward(b *testing.B) { benchFF(b, emu.FFFast) }

func BenchmarkEmuStepForward(b *testing.B) { benchFF(b, emu.FFStep) }

var loadSink *emu.Machine

func BenchmarkEmuLoad(b *testing.B) {
	for _, name := range ffBenchWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %s", name)
		}
		// The first Build derives the proxy's memoized table skeleton,
		// a once-per-process cost kept out of the timed loop.
		if _, err := w.Build(); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog, err := w.Build()
				if err != nil {
					b.Fatal(err)
				}
				loadSink = emu.New(prog)
			}
		})
	}
}

// BenchmarkMemoryClone measures the copy-on-write snapshot at a realistic
// resident footprint (mcf's 8 MB random-access working set, ~2000 pages).
// The allocs/op column is the contract: it must not move when the
// footprint does.
func BenchmarkMemoryClone(b *testing.B) {
	w, _ := workload.ByName("mcf")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(prog)
	if _, err := m.Run(2_000_000); err != nil {
		b.Fatal(err)
	}
	b.Logf("resident footprint: %d pages", m.Mem.Footprint())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Mem.Clone(); c == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkMachineClone is the full snapshot the sampling harness takes at
// every detailed-window boundary: registers, COW memory and the shared
// predecode tables.
func BenchmarkMachineClone(b *testing.B) {
	w, _ := workload.ByName("mcf")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(prog)
	if _, err := m.Run(2_000_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Clone(); c == nil {
			b.Fatal("nil clone")
		}
	}
}
