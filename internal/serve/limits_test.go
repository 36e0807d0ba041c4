package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestSubmitBodyCap checks the submit-body cap on both front doors: a
// body over maxSpecBytes is answered 413 with errSpecTooLarge, while
// every spec a real client sends — here the largest shape, a sampled job
// with every field set, and a valid spec padded to exactly the cap — is
// accepted.
func TestSubmitBodyCap(t *testing.T) {
	_, shard, _ := newFabric(t, Config{Workers: 1})
	_, _, router := newCluster(t, 1)

	full := quickSpec("body-cap-tenant-with-a-long-name")
	full.Priority = 7
	full.Warmup = 1_000_000
	full.IntervalInsts = 8192
	full.NoCache = true
	full.Sample = &SampleSpec{Intervals: 2, IntervalInsts: 2000, SkipInsts: 4000, WarmupInsts: 1000, CILevel: 0.99}
	fullBody, err := json.Marshal(&full)
	if err != nil {
		t.Fatal(err)
	}
	quick, err := json.Marshal(quickSpec("body-cap"))
	if err != nil {
		t.Fatal(err)
	}
	pad := func(n int) string { return strings.Repeat(" ", n-len(quick)) + string(quick) }

	cases := []struct {
		name string
		body string
		want int
	}{
		{"largest client spec", string(fullBody), http.StatusAccepted},
		{"padded to the cap", pad(maxSpecBytes), http.StatusAccepted},
		{"one byte over the cap", pad(maxSpecBytes + 1), http.StatusRequestEntityTooLarge},
		{"oversized field", `{"tenant":"` + strings.Repeat("x", 4*maxSpecBytes) + `","model":"HALF+FX","workload":"libquantum","max_insts":6000}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, door := range []struct{ name, url string }{{"shard", shard.URL}, {"router", router.BaseURL}} {
		for _, tc := range cases {
			resp, err := http.Post(door.url+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var er ErrorReply
			if resp.StatusCode != http.StatusAccepted {
				_ = json.NewDecoder(resp.Body).Decode(&er)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s, %s: status %d (%q), want %d", door.name, tc.name, resp.StatusCode, er.Error, tc.want)
				continue
			}
			if tc.want == http.StatusRequestEntityTooLarge && er.Error != errSpecTooLarge.Error() {
				t.Errorf("%s, %s: error %q, want %q", door.name, tc.name, er.Error, errSpecTooLarge)
			}
		}
	}
}

// TestJobIntervalCeiling checks the interval ceiling: Validate rejects a
// streaming spec whose max_insts / interval_insts (rounded up) exceeds
// maxJobIntervals, and a sampled spec with more windows than that, with
// errTooManyIntervals; specs exactly at the ceiling pass.
func TestJobIntervalCeiling(t *testing.T) {
	stream := func(maxInsts, every uint64) JobSpec {
		s := quickSpec("ceiling")
		s.MaxInsts, s.IntervalInsts = maxInsts, every
		return s
	}
	sample := func(windows int) JobSpec {
		s := quickSpec("ceiling")
		s.Sample = &SampleSpec{Intervals: windows, IntervalInsts: 2000}
		return s
	}
	cases := []struct {
		name   string
		spec   JobSpec
		reject bool
	}{
		{"stream at the ceiling", stream(maxJobIntervals*8, 8), false},
		{"stream one partial interval over", stream(maxJobIntervals*8+1, 8), true},
		{"one event per instruction", stream(1_000_000_000, 1), true},
		{"largest budget, unit intervals", stream(math.MaxUint64, 1), true},
		{"no streaming, huge budget", stream(math.MaxUint64, 0), false},
		{"sample at the ceiling", sample(maxJobIntervals), false},
		{"sample one window over", sample(maxJobIntervals + 1), true},
		{"sample with huge window count", sample(math.MaxInt), true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.reject != errors.Is(err, errTooManyIntervals) {
			t.Errorf("%s: Validate = %v, want rejection %v", tc.name, err, tc.reject)
		}
	}
}

// TestSubmitRejectsTooManyIntervals sends the adversarial specs through
// both front doors: each is answered 400 with errTooManyIntervals before
// anything is queued.
func TestSubmitRejectsTooManyIntervals(t *testing.T) {
	_, shard, _ := newFabric(t, Config{Workers: 1})
	_, _, router := newCluster(t, 1)

	stream := quickSpec("adversary")
	stream.MaxInsts, stream.IntervalInsts = 1_000_000_000, 1
	sample := quickSpec("adversary")
	sample.Sample = &SampleSpec{Intervals: maxJobIntervals + 1, IntervalInsts: 2000}

	for _, door := range []struct{ name, url string }{{"shard", shard.URL}, {"router", router.BaseURL}} {
		for _, spec := range []JobSpec{stream, sample} {
			body, err := json.Marshal(&spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(door.url+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			var er ErrorReply
			_ = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(er.Error, errTooManyIntervals.Error()) {
				t.Errorf("%s, %s: status %d (%q), want 400 with %q", door.name, body, resp.StatusCode, er.Error, errTooManyIntervals)
			}
		}
	}
}
