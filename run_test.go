package fxa

// The contract of the one single-run entry point: Options names exactly
// one source and a budget only for a Workload, and a Workload run is the
// very evaluation cell the sweeps and the fxad daemon run.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fxa/internal/engine"
)

func TestRunOptions(t *testing.T) {
	w, err := WorkloadByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	k := CompiledWorkloads()[0]
	tr, err := w.NewTrace(1_000)
	if err != nil {
		t.Fatal(err)
	}
	m := HalfFX()
	cases := []struct {
		name string
		o    Options
		want error
	}{
		{"no source", Options{Model: m}, ErrNoSource},
		{"budget without source", Options{Model: m, Warmup: 10, MaxInsts: 10}, ErrNoSource},
		{"workload+kernel", Options{Model: m, Workload: w, Kernel: k, MaxInsts: 10}, ErrTwoSources},
		{"workload+trace", Options{Model: m, Workload: w, Trace: tr, MaxInsts: 10}, ErrTwoSources},
		{"kernel+trace", Options{Model: m, Kernel: k, Trace: tr}, ErrTwoSources},
		{"all three", Options{Model: m, Workload: w, Kernel: k, Trace: tr}, ErrTwoSources},
		{"trace+warmup", Options{Model: m, Trace: tr, Warmup: 10}, ErrBudgetSource},
		{"trace+maxinsts", Options{Model: m, Trace: tr, MaxInsts: 10}, ErrBudgetSource},
		{"kernel+warmup", Options{Model: m, Kernel: k, Warmup: 10}, ErrBudgetSource},
		{"kernel+maxinsts", Options{Model: m, Kernel: k, MaxInsts: 10}, ErrBudgetSource},
		{"unnamed kernel+trace", Options{Model: m, Kernel: CompiledWorkload{Source: k.Source}, Trace: tr}, ErrTwoSources},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Run(context.Background(), c.o); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
	// The rejected options consumed nothing: the trace still runs.
	res, err := Run(context.Background(), Options{Model: m, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Committed != 1_000 {
		t.Errorf("trace run committed %d, want 1000", res.Counters.Committed)
	}
}

// TestRunMatchesEvaluationJob pins that the single run and the cached
// sweep cell are one path: for one model of every registered core kind,
// Run on a warmed Workload returns exactly what EvaluationJob's job does.
func TestRunMatchesEvaluationJob(t *testing.T) {
	w, err := WorkloadByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	const warmup, maxInsts = 5_000, 10_000
	ctx := context.Background()
	for _, kind := range engine.Kinds() {
		var m Model
		for _, cand := range AllModels() {
			if cand.Kind == kind {
				m = cand
				break
			}
		}
		t.Run(m.Name, func(t *testing.T) {
			got, err := Run(ctx, Options{Model: m, Workload: w, Warmup: warmup, MaxInsts: maxInsts})
			if err != nil {
				t.Fatal(err)
			}
			want, err := EvaluationJob(m, w, warmup, maxInsts).Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Run differs from EvaluationJob:\nRun: %+v\njob: %+v", got, want)
			}
			if got.Counters.Committed != maxInsts {
				t.Errorf("committed %d, want %d", got.Counters.Committed, maxInsts)
			}
		})
	}
}

// TestWarmupSkipsInstructions pins the one warm-up path, newCellTrace:
// the detailed window starts after warmup functional instructions, holds
// exactly maxInsts records, and the fast-forward is metered.
func TestWarmupSkipsInstructions(t *testing.T) {
	w, err := WorkloadByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	var ff ffMeter
	tr, err := newCellTrace(HalfFX(), w, 5_000, 100, &ff)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := tr.Next()
	if !ok {
		t.Fatal("empty stream after warmup")
	}
	if first.Seq < 5_000 {
		t.Errorf("first record Seq = %d, want >= 5000 (warmup skipped)", first.Seq)
	}
	n := 1
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Errorf("stream yielded %d records after warmup, want 100", n)
	}
	if got := ff.insts.Load(); got != 5_000 {
		t.Errorf("ffMeter counted %d fast-forwarded instructions, want 5000", got)
	}
}
