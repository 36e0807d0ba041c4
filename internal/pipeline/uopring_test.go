package pipeline_test

import (
	"context"
	"testing"

	"fxa/internal/config"
	"fxa/internal/engine"
	_ "fxa/internal/inorder"
	"fxa/internal/pipeline"
	"fxa/internal/workload"
)

// TestUopRingFIFO checks order, capacity accounting and wrap-around, and
// that a popped head slot keeps its contents until the next Push.
func TestUopRingFIFO(t *testing.T) {
	r := pipeline.NewUopRing(3)
	next, want := int64(0), int64(0)
	for round := 0; round < 5; round++ {
		for r.Room() > 0 {
			r.Push().FetchCycle = next
			next++
		}
		if r.Len() != 3 {
			t.Fatalf("round %d: Len = %d after filling, want 3", round, r.Len())
		}
		for i := 0; i < 2; i++ {
			u := r.Front()
			r.PopFront()
			if u.FetchCycle != want {
				t.Fatalf("round %d: popped %d, want %d", round, u.FetchCycle, want)
			}
			want++
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Room() != 3 {
		t.Fatalf("after Reset: Len %d Room %d, want 0 and 3", r.Len(), r.Room())
	}
	defer func() {
		if recover() == nil {
			t.Error("Push on a full ring did not panic")
		}
	}()
	for i := 0; i < 4; i++ {
		r.Push()
	}
}

// runAllocs reports the heap allocations of one Run of model m over insts
// instructions of workload name, construction excluded: AllocsPerRun
// averages over fresh engines built beforehand.
func runAllocs(t *testing.T, m config.Model, name string, insts uint64) float64 {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	const runs = 3
	engines := make([]engine.Engine, runs+1) // +1: AllocsPerRun's warm-up call
	for i := range engines {
		tr, err := w.NewTrace(insts)
		if err != nil {
			t.Fatal(err)
		}
		if engines[i], err = engine.New(m, tr); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	var runErr error
	allocs := testing.AllocsPerRun(runs, func() {
		e := engines[next]
		next++
		if _, err := e.Run(context.Background()); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return allocs
}

// TestInOrderRunAllocsFlat is the in-order cores' allocation discipline
// (DESIGN.md §8.2): the fetch queue is a preallocated UopRing, so a run's
// allocations must not grow with its instruction count. A 40k-instruction
// run may allocate only a small constant more than a 10k one (trace
// batches and decode-cache entries for code first reached later).
func TestInOrderRunAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const slack = 16
	for _, m := range []config.Model{config.Little(), config.Dual(), config.DualSI()} {
		short := runAllocs(t, m, "libquantum", 10_000)
		long := runAllocs(t, m, "libquantum", 40_000)
		t.Logf("%s: %.0f allocs at 10k insts, %.0f at 40k", m.Name, short, long)
		if long-short > slack {
			t.Errorf("%s: allocations grow with instruction count: %.0f at 10k, %.0f at 40k (slack %d)",
				m.Name, short, long, slack)
		}
	}
}
