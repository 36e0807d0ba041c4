package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"fxa"
)

func TestDigestIsStable(t *testing.T) {
	v := fxa.Result{SchemaVersion: 2, Model: "BIG"}
	v.Counters.Committed = 40_000
	a, err := digest(v)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digest(v)
	if a != b || len(a) != 32 {
		t.Fatalf("digest not stable: %q vs %q", a, b)
	}
	v.Counters.Cycles++
	if c, _ := digest(v); c == a {
		t.Error("digest ignored a counter change")
	}
}

func TestSummaryDigestIgnoresRunStatistics(t *testing.T) {
	s := fxa.SamplingSummary{Model: "BIG", Workload: "mcf", MeanIPC: 1.25}
	a, err := summaryDigest(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Sweep.Wall = time.Second
	s.Sweep.Allocs = 12345
	if b, _ := summaryDigest(s); b != a {
		t.Error("summary digest depends on host timings")
	}
	s.MeanIPC = 1.5
	if c, _ := summaryDigest(s); c == a {
		t.Error("summary digest ignored the estimate")
	}
}

func TestDigestsRoundTrip(t *testing.T) {
	d := digests{"b|x": "2", "a|y": "1"}
	path := t.TempDir() + "/d.json"
	if err := d.save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadDigests(b)
	if err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if d.check("a|y", "1") != "" || d.check("a|y", "0") == "" || d.check("c", "1") == "" {
		t.Error("check does not flag mismatches and missing keys")
	}
}

// Every cell a workload can run has a reference digest.
func TestReferenceDigestsCoverEveryCell(t *testing.T) {
	ref, err := loadDigests(referenceDigests)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range evalCells(fxa.AllModels()) {
		keys = append(keys, c.key("eval", evalInsts))
	}
	for _, p := range samplePairs {
		keys = append(keys, p.key())
	}
	for _, s := range serveUniverse() {
		keys = append(keys, serveKey(s))
		s.Sample = &serveSample
		keys = append(keys, serveKey(s))
	}
	for _, k := range keys {
		if _, ok := ref[k]; !ok {
			t.Errorf("no reference digest for %s", k)
		}
	}
}

// BENCHMARK.json names exactly the metrics the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, command prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, command %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a command workload", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, command has %d", len(spec.Workloads), len(workloads))
	}
}
