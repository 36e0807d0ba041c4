package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fxa"
	"fxa/internal/serve"
	"fxa/internal/sweep"
)

// The serve-mix traffic: an open loop at serveRate jobs per second on a
// seeded Poisson schedule. The repo's own fxad clients (fxabench
// -serve-url sweeps, the smoke scripts) submit evaluation-matrix cells
// under one tenant; the mix does the same, with short cells so that the
// fabric's overhead is a visible share of a job's latency.
const (
	// serveRate is half the lowest sustained rate (serve.sustained_rate)
	// measured on a 2-vCPU host, so the fabric is loaded but not
	// saturated; the stamp's mean_in_flight note shows it stays below
	// nproc.
	serveRate = 30.0
	// serveSLO is the latency limit behind slo_met_frac, from a job's
	// scheduled send to its terminal event: about twice the tail (p99)
	// measured on a 2-vCPU host, so that the tail meets it unless it
	// doubles, and host speed swings barely move the share that does.
	serveSLO = 100 * time.Millisecond
	// serveBudget is the max_insts of every cell job. It is short so
	// that simulations seldom hold every CPU at once: when they do, the
	// fabric's request goroutines wait for Go's preemption tick, and
	// latency stops tracking the fabric's own cost.
	serveBudget = 4_096
	dupBudget   = serveBudget / 2
	// A streaming job reports an interval every streamEvery instructions:
	// 8 events, about as many as serve_smoke.sh's stream job sends.
	streamEvery = 512
	// hitLag is how much earlier the miss a hit repeats was scheduled:
	// longer than a miss takes, so the repeat reads the cache instead of
	// joining the running flight.
	hitLag = 500 * time.Millisecond
	// dupGap separates the two sends of a duplicate, so that the second
	// joins the first's flight through singleflight.
	dupGap      = time.Millisecond
	serveTenant = "bench"
	// sustainPhase is each offered rate's run in the sustained-rate probe.
	sustainPhase = 3 * time.Second
	// hopCells and hopReps size the proxy-hop probe.
	hopCells = 8
	hopReps  = 3
)

// serveSample is the small sampled job of the mix: four of sample-skip's
// 2k windows, behind 200k skips instead of 1M, so that it stays short.
var serveSample = serve.SampleSpec{Intervals: 4, IntervalInsts: 2_000, SkipInsts: 200_000, WarmupInsts: 1_000}

type jobKind int

const (
	kindMiss jobKind = iota
	kindHit
	kindDup // the intended kind of a near-simultaneous duplicate
	kindSample
	kindStream
)

// outcome classes of a finished job, named as in serve.run_ms.*.
var classNames = []string{"miss", "hit", "collapsed", "sample", "stream"}

// serveWorkers: two shards, each with two workers at least, because
// singleflight collapses only concurrent runs on one shard.
func serveWorkers(nproc int) map[string]int {
	return map[string]int{"workers_per_shard": max(2, nproc/2), "load_threads": 1}
}

// plannedJob is one scheduled submission.
type plannedJob struct {
	At   time.Duration
	Kind jobKind
	Spec serve.JobSpec
}

// serveUniverse is every cell the mix can send: all models × workloads
// at serveBudget and dupBudget.
func serveUniverse() []serve.JobSpec {
	var u []serve.JobSpec
	for _, c := range evalCells(fxa.AllModels()) {
		for _, b := range []uint64{serveBudget, dupBudget} {
			u = append(u, serve.JobSpec{Model: c.m.Name, Workload: c.w.Name, MaxInsts: b})
		}
	}
	return u
}

// picker deals the indices 0..n-1 in successive seeded permutations, so
// every n consecutive picks use each index once.
type picker struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func (p *picker) next() int {
	if len(p.perm) == 0 {
		p.perm = p.rng.Perm(p.n)
	}
	i := p.perm[0]
	p.perm = p.perm[1:]
	return i
}

// planMix draws the seeded open-loop schedule for dur at rate jobs/s:
// round(rate×dur) arrivals at uniformly random times (a Poisson process
// given its count). No client of the repo fixes a share for any kind of
// job, so each kind takes an equal one: every five consecutive arrivals
// hold one of each. The seed sets the times and the order, not the
// offered work: workloads and models are dealt in permutations, so every
// workload appears equally often among cold misses, samples and streams.
func planMix(seed int64, rate float64, dur time.Duration) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	models, ws := fxa.AllModels(), fxa.Workloads()
	sampleW, sampleM := &picker{rng: rng, n: len(ws)}, &picker{rng: rng, n: len(models)}
	streamW, streamM := &picker{rng: rng, n: len(ws)}, &picker{rng: rng, n: len(models)}
	// Cold cells take each workload once per len(ws) picks, on that
	// workload's models in seeded order, so no cell repeats before all
	// have been used. Duplicates draw their cells at dupBudget, so that
	// they never repeat a miss's cell.
	dealer := func(budget uint64) func() serve.JobSpec {
		w := &picker{rng: rng, n: len(ws)}
		m := make([]*picker, len(ws))
		for wi := range m {
			m[wi] = &picker{rng: rng, n: len(models)}
		}
		return func() serve.JobSpec {
			wi := w.next()
			return serve.JobSpec{Model: models[m[wi].next()].Name, Workload: ws[wi].Name, MaxInsts: budget}
		}
	}
	cold, dupCell := dealer(serveBudget), dealer(dupBudget)
	n := int(rate*dur.Seconds() + 0.5)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	var kinds []jobKind
	var plan, misses []plannedJob
	for _, t := range at {
		if len(kinds) == 0 {
			kinds = []jobKind{kindMiss, kindHit, kindDup, kindSample, kindStream}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		kind := kinds[0]
		kinds = kinds[1:]
		var spec serve.JobSpec
		switch kind {
		case kindHit:
			k := sort.Search(len(misses), func(i int) bool { return misses[i].At > t-hitLag })
			if k == 0 {
				kind, spec = kindMiss, cold()
				break
			}
			spec = misses[rng.Intn(k)].Spec
		case kindSample:
			spec = serve.JobSpec{Model: models[sampleM.next()].Name, Workload: ws[sampleW.next()].Name, Sample: &serveSample}
		case kindStream:
			spec = serve.JobSpec{Model: models[streamM.next()].Name, Workload: ws[streamW.next()].Name,
				MaxInsts: serveBudget, IntervalInsts: streamEvery, NoCache: true}
		case kindDup:
			spec = dupCell()
		default:
			spec = cold()
		}
		spec.Tenant = serveTenant
		pj := plannedJob{At: t, Kind: kind, Spec: spec}
		plan = append(plan, pj)
		if kind == kindMiss {
			misses = append(misses, pj)
		}
		if kind == kindDup {
			dup := pj
			dup.At += dupGap
			plan = append(plan, dup)
		}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan
}

// fabric is an in-process routed fabric: a router in front of two
// shards, each the other's federation peer.
type fabric struct {
	dir       string
	caches    []*sweep.Cache
	shards    []*serve.Server
	shardHTTP []*httptest.Server
	router    *serve.Router
	routerURL string
	routerSrv *httptest.Server
}

// startFabric builds the fabric under root and waits for a healthy
// router /healthz with both shards live.
func startFabric(ctx context.Context, root string, workers int, httpc *http.Client) (*fabric, error) {
	dir, err := os.MkdirTemp(root, "fabric-")
	if err != nil {
		return nil, err
	}
	f := &fabric{dir: dir}
	var urls []string
	for i := 0; i < 2; i++ {
		c, err := sweep.OpenCache(fmt.Sprintf("%s/shard%d", dir, i))
		if err != nil {
			f.close()
			return nil, err
		}
		s := serve.New(serve.Config{Workers: workers, Cache: c})
		hs := httptest.NewServer(s.Handler())
		f.caches, f.shards, f.shardHTTP = append(f.caches, c), append(f.shards, s), append(f.shardHTTP, hs)
		urls = append(urls, hs.URL)
	}
	peers := func() []string { return urls }
	for i, c := range f.caches {
		c.SetFallback(serve.CacheFallback(urls[i], peers, httpc, 0))
	}
	f.router, err = serve.NewRouter(serve.RouterConfig{Shards: urls, HTTPClient: httpc,
		Probe: serve.ProbeConfig{Interval: 100 * time.Millisecond}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.routerSrv = httptest.NewServer(f.router.Handler())
	f.routerURL = f.routerSrv.URL
	cl := &serve.Client{BaseURL: f.routerURL, HTTPClient: httpc}
	for {
		h, err := cl.Healthz(ctx)
		if err == nil && h.Status == "ok" && h.Router != nil && h.Router.ShardsLive == 2 {
			return f, nil
		}
		select {
		case <-ctx.Done():
			f.close()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *fabric) close() {
	if f.router != nil {
		f.router.Close()
	}
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	for i := range f.shards {
		f.shards[i].Close()
		f.shardHTTP[i].Close()
	}
	os.RemoveAll(f.dir)
}

// counters sums the shards' and router's counters.
func (f *fabric) counters() (submitted, hits, collapsed, ran, federated, resubmitted uint64) {
	for _, s := range f.shards {
		st := s.Stats()
		submitted += st.Submitted
		hits += st.CacheHits
		collapsed += st.Collapsed
		ran += st.Ran
		federated += st.Cache.Federated
	}
	return submitted, hits, collapsed, ran, federated, f.router.Stats().Resubmitted
}

// refusalKey tags a request context with the job's refusal counter.
type refusalKey struct{}

// refusalCounter counts refused submissions (429 and 503 replies, which
// serve.Client.Submit retries silently) per job and in total.
type refusalCounter struct {
	base  http.RoundTripper
	total atomic.Int64
}

func (rc *refusalCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rc.base.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost &&
		(resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		rc.total.Add(1)
		if n, ok := req.Context().Value(refusalKey{}).(*atomic.Int64); ok {
			n.Add(1)
		}
	}
	return resp, err
}

// jobRecord is one sent job as the client observed it.
type jobRecord struct {
	planned   plannedJob
	due, sent time.Time
	submitted time.Time
	first     time.Time
	queued    time.Time
	started   time.Time
	done      time.Time
	intervals []time.Time
	term      *serve.Event
	shard     string
	refused   atomic.Int64
	err       error
}

func (r *jobRecord) ok() bool {
	return r.err == nil && r.term != nil && r.term.Event == serve.EventResult && r.refused.Load() == 0
}

func (r *jobRecord) latencyMS() float64 { return float64(r.done.Sub(r.due)) / 1e6 }

// class names how the job was answered.
func (r *jobRecord) class() string {
	switch {
	case r.term.Summary != nil:
		return "sample"
	case r.planned.Kind == kindStream:
		return "stream"
	case r.term.CacheHit:
		return "hit"
	case r.term.Collapsed:
		return "collapsed"
	}
	return "miss"
}

// doJob submits one job and streams it to its terminal event.
func doJob(ctx context.Context, cl *serve.Client, r *jobRecord) {
	ctx = context.WithValue(ctx, refusalKey{}, &r.refused)
	id, err := cl.Submit(ctx, r.planned.Spec)
	r.submitted = time.Now()
	if err != nil {
		r.err = err
		return
	}
	r.err = cl.Stream(ctx, id, func(ev serve.Event) error {
		now := time.Now()
		if r.first.IsZero() {
			r.first = now
		}
		switch ev.Event {
		case serve.EventQueued:
			r.queued = now
		case serve.EventStarted:
			r.started, r.shard = now, ev.Shard
		case serve.EventInterval:
			r.intervals = append(r.intervals, now)
		}
		if ev.Terminal() {
			r.done, r.term = now, &ev
		}
		return nil
	})
}

// runPhase plays plan against the router: this goroutine is the single
// load generator; each job runs on its own goroutine from its due time.
func runPhase(ctx context.Context, cl *serve.Client, plan []plannedJob) ([]*jobRecord, time.Time, error) {
	recs := make([]*jobRecord, len(plan))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var err error
	for i, pj := range plan {
		due := start.Add(pj.At)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			break
		}
		r := &jobRecord{planned: pj, due: due, sent: time.Now()}
		recs[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			doJob(ctx, cl, r)
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, start, err
	}
	return recs, start, nil
}

// phaseStats summarizes one phase's records.
type phaseStats struct {
	sent, failed int
	latMS        []float64 // successful jobs
	wall         time.Duration
	simInsts     float64
	spanInsts    float64
}

func summarize(recs []*jobRecord, start time.Time) phaseStats {
	ps := phaseStats{sent: len(recs)}
	var end time.Time
	for _, r := range recs {
		if !r.ok() {
			ps.failed++
			continue
		}
		ps.latMS = append(ps.latMS, r.latencyMS())
		if r.done.After(end) {
			end = r.done
		}
		switch c := r.class(); c {
		case "sample":
			ps.simInsts += float64(r.term.Summary.Sweep.SimInsts)
			ps.spanInsts += float64(r.term.Summary.Sweep.FFInsts)
		case "miss", "stream":
			ps.simInsts += float64(r.term.Result.Counters.Committed)
			ps.spanInsts += float64(r.term.Result.Counters.Committed)
		}
	}
	ps.wall = end.Sub(start)
	return ps
}

// checkRouted verifies every answered job: a cell's result must be
// byte-identical to a local sweep.RunOne of the same cell, a sampled
// job's summary to a local fxa.SampleContext, and each local answer must
// match its reference digest.
func checkRouted(ctx context.Context, e *env, o *outcome, recs []*jobRecord) error {
	type ref struct {
		b   []byte
		err error
	}
	refs := map[string]*ref{}
	var keys []string
	specOf := map[string]serve.JobSpec{}
	for _, r := range recs {
		if r.ok() {
			k := serveKey(r.planned.Spec)
			if refs[k] == nil {
				refs[k] = &ref{}
				keys = append(keys, k)
				specOf[k] = r.planned.Spec
			}
		}
	}
	err := forEach(ctx, e.nproc, len(keys), func(i int) error {
		k := keys[i]
		b, d, err := localAnswer(ctx, specOf[k])
		refs[k].b, refs[k].err = b, err
		if err == nil {
			if msg := e.ref.check(k, d); msg != "" {
				refs[k].err = fmt.Errorf("%s", msg)
			}
		}
		return ctx.Err()
	})
	if err != nil {
		return err
	}
	for _, r := range recs {
		o.attempted++
		switch {
		case r.err != nil:
			o.fail(fmt.Sprintf("job %v: %v", r.planned.Spec, r.err))
		case r.term == nil || r.term.Event != serve.EventResult:
			o.fail(fmt.Sprintf("job %v: terminal %+v", r.planned.Spec, r.term))
		case r.refused.Load() > 0:
			o.fail(fmt.Sprintf("job %v: refused %d times", r.planned.Spec, r.refused.Load()))
		default:
			want := refs[serveKey(r.planned.Spec)]
			got, err := routedAnswer(r.term)
			switch {
			case want.err != nil:
				o.fail(want.err.Error())
			case err != nil:
				o.fail(err.Error())
			case !bytes.Equal(got, want.b):
				o.fail(fmt.Sprintf("job %v (%s): routed answer differs from local", r.planned.Spec, r.class()))
			}
		}
	}
	return nil
}

// serveKey is the reference-digest key of a serve-mix job.
func serveKey(s serve.JobSpec) string {
	if s.Sample != nil {
		return fmt.Sprintf("serve-sample|%s|%s", s.Model, s.Workload)
	}
	return fmt.Sprintf("serve|%s|%s|%d", s.Model, s.Workload, s.MaxInsts)
}

// localAnswer computes a spec's answer locally: its JSON encoding and
// digest (for a sampled job, of the summary without run statistics).
func localAnswer(ctx context.Context, s serve.JobSpec) ([]byte, string, error) {
	m, err := fxa.ModelByName(s.Model)
	if err != nil {
		return nil, "", err
	}
	w, err := fxa.WorkloadByName(s.Workload)
	if err != nil {
		return nil, "", err
	}
	var v any
	if s.Sample != nil {
		cfg := s.Sample.Config()
		cfg.Workers = 1
		sum, err := fxa.SampleContext(ctx, m, w, cfg)
		if err != nil {
			return nil, "", err
		}
		sum.Sweep = fxa.SweepStats{}
		v = sum
	} else {
		res, _, _, err := sweep.RunOne(ctx, fxa.EvaluationJob(m, w, s.Warmup, s.MaxInsts), nil)
		if err != nil {
			return nil, "", err
		}
		v = res
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, "", err
	}
	d, err := digest(v)
	return b, d, err
}

// routedAnswer encodes a terminal event's answer like localAnswer.
func routedAnswer(ev *serve.Event) ([]byte, error) {
	if ev.Summary != nil {
		sum := *ev.Summary
		sum.Sweep = fxa.SweepStats{}
		return json.Marshal(sum)
	}
	if ev.Result == nil {
		return nil, fmt.Errorf("result event without a result")
	}
	return json.Marshal(ev.Result)
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func forEach(ctx context.Context, workers, n int, fn func(int) error) error {
	idx := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for i := range idx {
				if first == nil {
					first = fn(i)
				}
			}
			errs <- first
		}()
	}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// newHTTPClient returns the benchmark's HTTP client: pooled keep-alive
// connections and a refusal counter around the transport.
func newHTTPClient() (*http.Client, *refusalCounter, *http.Transport) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 256
	rc := &refusalCounter{base: tr}
	return &http.Client{Transport: rc}, rc, tr
}

// servePhase plays plan through the router of a fresh fabric and, with
// check, verifies the answers.
func servePhase(ctx context.Context, e *env, o *outcome, httpc *http.Client, plan []plannedJob, check bool) ([]*jobRecord, time.Time, error) {
	f, err := startFabric(ctx, e.out, e.workers["workers_per_shard"], httpc)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer f.close()
	recs, start, err := runPhase(ctx, &serve.Client{BaseURL: f.routerURL, HTTPClient: httpc}, plan)
	if err == nil && check {
		err = checkRouted(ctx, e, o, recs)
	}
	return recs, start, err
}

// runServeMix measures the routed fabric under the open-loop mix.
func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	httpc, refusals, tr := newHTTPClient()
	defer tr.CloseIdleConnections()
	o.notes["shards"] = 2
	o.notes["offered_rate"] = serveRate

	phaseDur := e.dur
	if e.trace {
		phaseDur = e.dur / 2
	}
	var plan []plannedJob
	var f *fabric
	// Set-up builds every program the mix can draw, as the shards will,
	// then plans the schedule and brings the fabric up.
	setup := &setupTimer{ws: fxa.Workloads(), extra: func() error {
		if f != nil {
			f.close()
		}
		plan = planMix(e.seed, serveRate, phaseDur)
		var err error
		f, err = startFabric(ctx, e.out, e.workers["workers_per_shard"], httpc)
		return err
	}}
	for i := 0; i < setupReps; i++ {
		if err := setup.once(); err != nil {
			if f != nil {
				f.close()
			}
			return nil, err
		}
	}
	setup.report(o)

	rss := startRSSWindows()
	cl := &serve.Client{BaseURL: f.routerURL, HTTPClient: httpc}
	recs, start, err := runPhase(ctx, cl, plan)
	o.e2e["peak_rss_mb"] = rss.median()
	if err == nil {
		err = checkRouted(ctx, e, o, recs)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	ps := summarize(recs, start)
	o.e2e["wall_s"] = ps.wall.Seconds()
	o.e2e["sim_minst_per_s"] = ps.simInsts / ps.wall.Seconds() / 1e6
	o.e2e["span_minst_per_s"] = ps.spanInsts / ps.wall.Seconds() / 1e6
	jobStats(o, ps.latMS, serveSLO, ps.sent)
	o.notes["jobs_sent"] = ps.sent
	o.notes["mean_in_flight"] = sum(ps.latMS) / 1e3 / ps.wall.Seconds()
	o.notes["refused_attempts"] = refusals.total.Load()
	serveLayerMetrics(o, recs, f)
	var hop float64
	if e.trace {
		hop, err = proxyHop(ctx, httpc, f, recs)
	}
	f.close()
	if err != nil {
		return nil, err
	}
	o.layer["serve.proxy_hop_ms"] = hop

	if !e.trace {
		if o.e2e["paper_err"], err = paperErrProbe(ctx, e, o); err != nil {
			return nil, err
		}
		o.e2e["ipc_ci_rel_half"], err = ipcCIProbe(ctx, e, o)
		return o, err
	}

	// The traced phase replays the same plan on a fresh fabric with
	// client-side spans around each job.
	trecs, tstart, err := servePhase(ctx, e, o, httpc, plan, true)
	if err != nil {
		return nil, err
	}
	recordJobSpans(e.rec, trecs)
	tps := summarize(trecs, tstart)
	o.layer["trace_overhead_frac"] = ratio(median(tps.latMS), median(ps.latMS)) - 1

	rate, err := sustainedRate(ctx, e, httpc)
	if err != nil {
		return nil, err
	}
	o.layer["serve.sustained_rate"] = rate
	return o, nil
}

// serveLayerMetrics fills the serve.* layer metrics of one phase.
func serveLayerMetrics(o *outcome, recs []*jobRecord, f *fabric) {
	var submit, first, queue, late, gaps []float64
	run := map[string][]float64{}
	for _, r := range recs {
		late = append(late, float64(r.sent.Sub(r.due))/1e6)
		if !r.ok() {
			continue
		}
		submit = append(submit, float64(r.submitted.Sub(r.sent))/1e6)
		first = append(first, float64(r.first.Sub(r.submitted))/1e6)
		queue = append(queue, float64(r.started.Sub(r.queued))/1e6)
		run[r.class()] = append(run[r.class()], float64(r.done.Sub(r.started))/1e6)
		for i := 1; i < len(r.intervals); i++ {
			gaps = append(gaps, float64(r.intervals[i].Sub(r.intervals[i-1]))/1e6)
		}
	}
	o.layer["serve.submit_ms"] = median(submit)
	o.layer["serve.first_event_ms"] = median(first)
	o.layer["serve.queue_wait_p50_ms"] = median(queue)
	o.layer["serve.queue_wait_tail_ms"], _, _ = tail(queue)
	for _, c := range classNames {
		o.layer["serve.run_ms."+c] = median(run[c])
		o.notes["jobs_"+c] = len(run[c])
	}
	o.layer["serve.interval_gap_ms"] = median(gaps)
	o.layer["serve.gen_late_ms"], _, _ = tail(late)
	submitted, hits, collapsed, ran, federated, resub := f.counters()
	o.layer["serve.cache_hit_frac"] = ratio(float64(hits), float64(submitted))
	o.layer["serve.collapsed_frac"] = ratio(float64(collapsed), float64(submitted))
	o.layer["serve.federated_frac"] = ratio(float64(federated), float64(federated+ran))
	o.layer["serve.resubmitted"] = float64(resub)
}

// recordJobSpans adds each job's client-observed spans: the job from its
// due time to its terminal event, with the generator's lateness, the
// submit, the wait in the shard queue and the run as children.
func recordJobSpans(rec *recorder, recs []*jobRecord) {
	for i, r := range recs {
		if !r.ok() {
			continue
		}
		job := fmt.Sprintf("s%d", i)
		root := rec.add("serve.job", job, 0, r.due, r.done)
		rec.add("serve.gen_late", job, root, r.due, r.sent)
		rec.add("serve.submit", job, root, r.sent, r.submitted)
		rec.add("serve.queue_wait", job, root, r.queued, r.started)
		rec.add("serve.run."+r.class(), job, root, r.started, r.done)
	}
}

// proxyHop is the median latency of identical cache-hit jobs through the
// router minus directly on the owning shard, in milliseconds.
func proxyHop(ctx context.Context, httpc *http.Client, f *fabric, recs []*jobRecord) (float64, error) {
	var specs []serve.JobSpec
	var owners []string
	seen := map[string]bool{}
	for _, r := range recs {
		if len(specs) == hopCells {
			break
		}
		if !r.ok() || r.class() != "miss" || r.shard == "" {
			continue
		}
		k := fmt.Sprint(r.planned.Spec.Model, r.planned.Spec.Workload, r.planned.Spec.MaxInsts)
		if !seen[k] {
			seen[k] = true
			specs = append(specs, r.planned.Spec)
			owners = append(owners, r.shard)
		}
	}
	routed := &serve.Client{BaseURL: f.routerURL, HTTPClient: httpc}
	var viaRouter, direct []float64
	for rep := 0; rep < hopReps; rep++ {
		for i, s := range specs {
			for _, cl := range []*serve.Client{routed, {BaseURL: owners[i], HTTPClient: httpc}} {
				t0 := time.Now()
				id, err := cl.Submit(ctx, s)
				if err == nil {
					_, _, err = cl.Wait(ctx, id)
				}
				if err != nil {
					return 0, fmt.Errorf("proxy hop probe: %w", err)
				}
				ms := float64(time.Since(t0)) / 1e6
				if cl == routed {
					viaRouter = append(viaRouter, ms)
				} else {
					direct = append(direct, ms)
				}
			}
		}
	}
	return median(viaRouter) - median(direct), nil
}

// sustainedRate offers a few fixed rates, each on a fresh fabric, and
// returns the highest whose jobs all succeed with a median latency
// within the limit and show no growing backlog (the last third's median
// latency at most twice the first third's).
func sustainedRate(ctx context.Context, e *env, httpc *http.Client) (float64, error) {
	best := 0.0
	for k, mult := range []float64{1, 2, 4, 8} {
		rate := serveRate * mult
		plan := planMix(e.seed+int64(k)+1, rate, sustainPhase)
		recs, start, err := servePhase(ctx, e, nil, httpc, plan, false)
		if err != nil {
			return 0, err
		}
		ps := summarize(recs, start)
		n := len(recs)
		var firstThird, lastThird []float64
		for i, r := range recs {
			if !r.ok() {
				continue
			}
			switch {
			case i < n/3:
				firstThird = append(firstThird, r.latencyMS())
			case i >= n-n/3:
				lastThird = append(lastThird, r.latencyMS())
			}
		}
		growing := median(lastThird) > 2*median(firstThird)
		if ps.failed == 0 && median(ps.latMS) <= float64(serveSLO)/1e6 && !growing {
			best = rate
		}
	}
	return best, nil
}
