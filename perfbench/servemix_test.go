package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"fxa/internal/serve"
)

func TestPlanMixIsSeeded(t *testing.T) {
	a := planMix(7, serveRate, 10*time.Second)
	b := planMix(7, serveRate, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	if c := planMix(8, serveRate, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same plan")
	}
}

func TestPlanMixShape(t *testing.T) {
	dur := 20 * time.Second
	plan := planMix(1, serveRate, dur)
	if n := float64(len(plan)); n < 0.8*serveRate*dur.Seconds() || n > 1.4*serveRate*dur.Seconds() {
		t.Errorf("%v jobs for %v at %v/s", n, dur, serveRate)
	}
	kinds := map[jobKind]int{}
	missAt := map[string]time.Duration{}
	for i, pj := range plan {
		kinds[pj.Kind]++
		if i > 0 && pj.At < plan[i-1].At {
			t.Fatalf("plan not in time order at %d", i)
		}
		if pj.At >= dur+time.Millisecond {
			t.Fatalf("job %d due at %v, after the phase", i, pj.At)
		}
		if err := pj.Spec.Validate(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		k := serveKey(pj.Spec)
		switch pj.Kind {
		case kindMiss:
			if _, seen := missAt[k]; seen {
				t.Errorf("cold miss %s repeats an earlier cell", k)
			}
			missAt[k] = pj.At
		case kindHit:
			if at, seen := missAt[k]; !seen || pj.At-at < hitLag {
				t.Errorf("hit %s does not repeat a miss half a second earlier", k)
			}
		}
	}
	for k := kindMiss; k <= kindStream; k++ {
		if kinds[k] == 0 {
			t.Errorf("no jobs of kind %d in a %v plan", k, dur)
		}
	}
}

// A short routed phase answers every kind of job and each answer
// matches the local run and the reference digest.
func TestServePhaseRoutedMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ref, err := loadDigests(referenceDigests)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{nproc: 2, out: t.TempDir(), ref: ref, workers: serveWorkers(2)}
	httpc, _, tr := newHTTPClient()
	defer tr.CloseIdleConnections()
	plan := planMix(3, serveRate, 2*time.Second)
	o := newOutcome()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	recs, _, err := servePhase(ctx, e, o, httpc, plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.attempted != len(plan) {
		t.Fatalf("attempted %d failed %d of %d: %v", o.attempted, o.failed, len(plan), o.problems)
	}
	classes := map[string]int{}
	for _, r := range recs {
		classes[r.class()]++
	}
	for _, c := range []string{"miss", "hit", "sample", "stream"} {
		if classes[c] == 0 {
			t.Errorf("no %s answers in %v", c, classes)
		}
	}
}

func TestRefusalsAreCounted(t *testing.T) {
	e := &env{nproc: 2, out: t.TempDir(), workers: serveWorkers(2)}
	httpc, rc, tr := newHTTPClient()
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := startFabric(ctx, e.out, 1, httpc)
	if err != nil {
		t.Fatal(err)
	}
	f.shards[0].Shutdown(ctx) // a draining shard answers 503
	r := &jobRecord{planned: plannedJob{Spec: serve.JobSpec{Model: "BIG", Workload: "mcf", MaxInsts: 1000}}}
	jctx, jcancel := context.WithTimeout(ctx, 1500*time.Millisecond)
	cl := &serve.Client{BaseURL: f.shardHTTP[0].URL, HTTPClient: httpc}
	doJob(jctx, cl, r)
	jcancel()
	f.close()
	if r.refused.Load() == 0 || rc.total.Load() == 0 || r.ok() {
		t.Fatalf("refused %d (total %d), ok %v", r.refused.Load(), rc.total.Load(), r.ok())
	}
}
