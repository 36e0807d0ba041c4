package serve

import (
	"encoding/json"
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
