// Wire format of the fxad simulation-as-a-service daemon.
//
// Jobs are submitted as one JSON JobSpec (POST /v1/jobs) and observed as
// an NDJSON event stream (GET /v1/jobs/{id}): one JSON object per line,
// in the order the server recorded them. The stream is a replayable
// event log — re-attaching to a job at any time (while it runs, or after
// it finished) replays every event from the beginning and then continues
// live, so a dropped connection loses nothing.
//
// Results and intervals reuse the engine layer's schema-versioned types
// verbatim (engine.Result / engine.Interval, schema v2) — the wire format
// introduces no second serialization of simulation data, which is what
// makes remote results bit-identical to local ones (test-enforced).
//
// Wire schema versions (WireVersion):
//
//	v1: JobSpec{model, workload, warmup, max_insts, interval_insts},
//	    events queued/started/interval/result/error/cancelled.
//	v2: JobSpec gains the optional "sample" block (SampleSpec) and the
//	    "result" event gains the optional "summary" field carrying the
//	    schema-versioned sampling.Summary (per-window results plus
//	    confidence intervals). Both additions are optional JSON fields,
//	    so every v1 exchange is also a valid v2 exchange — v1 clients
//	    keep working unchanged against a v2 daemon.
//	v3: the sharded fabric. The "started" event gains the optional
//	    "shard" field (which worker shard a router placed the job on), a
//	    shard exposes its content-addressed result cache to peers at
//	    GET /v1/cache/{key}, and a router-mode daemon answers /healthz
//	    with the optional "router" block (RouterHealth) and /v1/stats
//	    with RouterStats (role "router", shard membership, resubmission
//	    counters). Every addition is an optional JSON field on the
//	    existing shapes or a new endpoint, so every v2 exchange is also
//	    a valid v3 exchange — v2 clients keep working unchanged against
//	    both a v3 shard and a v3 router.
package serve

import (
	"fmt"

	"fxa/internal/engine"
	"fxa/internal/sampling"
	"fxa/internal/sweep"
)

// WireVersion identifies the protocol generation (see the package comment
// for the version history).
const WireVersion = 3

// JobSpec is one job submission: a single (model, workload) simulation
// cell, the same unit a local sweep dispatches to its worker pool.
type JobSpec struct {
	// Tenant attributes the job for fair scheduling and per-tenant
	// accounting. Empty means the shared "anon" tenant.
	Tenant string `json:"tenant,omitempty"`

	// Priority orders jobs within one tenant's queue: higher runs
	// sooner; equal priorities run in submission order. Priority never
	// lets one tenant starve another — cross-tenant ordering is decided
	// by weighted fairness alone.
	Priority int `json:"priority,omitempty"`

	// Model and Workload name the simulated configuration ("HALF+FX",
	// "libquantum"). Names are resolved at submission time; unknown
	// names are rejected with 400.
	Model    string `json:"model"`
	Workload string `json:"workload"`

	// Warmup and MaxInsts bound the run: a functional fast-forward of
	// Warmup instructions, then MaxInsts detailed instructions.
	// MaxInsts must be positive (an unbounded run would occupy a worker
	// forever).
	Warmup   uint64 `json:"warmup,omitempty"`
	MaxInsts uint64 `json:"max_insts"`

	// IntervalInsts, when positive, streams interval metrics: one
	// "interval" event roughly every IntervalInsts committed
	// instructions. The final result is unaffected (collection is
	// observation-only and the stored result never embeds the series).
	IntervalInsts uint64 `json:"interval_insts,omitempty"`

	// NoCache opts the job out of the shared result cache: it always
	// simulates and its result is not stored.
	NoCache bool `json:"no_cache,omitempty"`

	// Sample, when present, turns the job into a sampled simulation
	// (wire v2): instead of one detailed run of MaxInsts, the worker
	// runs the SMARTS-style schedule and the terminal "result" event
	// carries the sampling Summary (Event.Summary) instead of a single
	// Result. Warmup, MaxInsts and IntervalInsts are ignored — the
	// schedule fully describes the run. Sampled jobs never touch the
	// shared result cache.
	Sample *SampleSpec `json:"sample,omitempty"`
}

// SampleSpec is the wire form of a sampling schedule (wire v2); fields
// mirror sampling.Config.
type SampleSpec struct {
	// Intervals is the number of detailed windows.
	Intervals int `json:"intervals"`
	// IntervalInsts is the measured length of each window.
	IntervalInsts uint64 `json:"interval_insts"`
	// SkipInsts is the functional fast-forward before each window.
	SkipInsts uint64 `json:"skip_insts,omitempty"`
	// WarmupInsts is each window's detailed-warm-up prefix, simulated
	// in full detail but excluded from measurement.
	WarmupInsts uint64 `json:"warmup_insts,omitempty"`
	// CILevel is the two-sided confidence level; 0 means the sampling
	// default (0.95).
	CILevel float64 `json:"ci_level,omitempty"`
}

// Config converts the wire form into the sampling package's Config.
func (s *SampleSpec) Config() sampling.Config {
	return sampling.Config{
		Intervals:     s.Intervals,
		IntervalInsts: s.IntervalInsts,
		SkipInsts:     s.SkipInsts,
		WarmupInsts:   s.WarmupInsts,
		CILevel:       s.CILevel,
	}
}

// maxJobIntervals caps the interval events of a streaming job
// (max_insts / interval_insts, rounded up) and the windows of a sampled
// job. A job's event log is retained whole for replay, so without a
// ceiling a spec with interval_insts: 1 would grow it by one event per
// simulated instruction; a sampled job's summary keeps one result per
// window.
const maxJobIntervals = 1024

// errTooManyIntervals rejects a spec over maxJobIntervals (400).
var errTooManyIntervals = fmt.Errorf("serve: job spec asks for more than %d intervals", maxJobIntervals)

// Validate checks a spec is runnable (names are resolved separately).
func (s *JobSpec) Validate() error {
	if s.Model == "" || s.Workload == "" {
		return fmt.Errorf("serve: job spec needs model and workload")
	}
	if s.Sample != nil {
		if s.Sample.Intervals <= 0 || s.Sample.IntervalInsts == 0 {
			return fmt.Errorf("serve: sample spec needs positive intervals and window length")
		}
		if s.Sample.Intervals > maxJobIntervals {
			return fmt.Errorf("%w (sample intervals %d)", errTooManyIntervals, s.Sample.Intervals)
		}
		return nil
	}
	if s.MaxInsts == 0 {
		return fmt.Errorf("serve: job spec needs max_insts > 0 (unbounded jobs would pin a worker forever)")
	}
	if s.IntervalInsts > 0 {
		n := s.MaxInsts / s.IntervalInsts
		if s.MaxInsts%s.IntervalInsts != 0 {
			n++
		}
		if n > maxJobIntervals {
			return fmt.Errorf("%w (max_insts %d / interval_insts %d)", errTooManyIntervals, s.MaxInsts, s.IntervalInsts)
		}
	}
	return nil
}

// Event kinds, in lifecycle order. A stream is: one "queued", then
// (unless cancelled while queued) one "started", any number of
// "interval" events, and exactly one terminal event ("result", "error"
// or "cancelled").
const (
	EventQueued    = "queued"
	EventStarted   = "started"
	EventInterval  = "interval"
	EventResult    = "result"
	EventError     = "error"
	EventCancelled = "cancelled"
)

// Event is one NDJSON line of a job's event stream.
type Event struct {
	Event string `json:"event"`
	Job   string `json:"job"`
	Seq   int    `json:"seq"` // position in the job's event log, from 0

	// QueueDepth accompanies "queued": jobs ahead in the whole fabric.
	QueueDepth int `json:"queue_depth,omitempty"`

	// Interval accompanies "interval" events.
	Interval *engine.Interval `json:"interval,omitempty"`

	// Result, CacheHit and Collapsed accompany "result": the full
	// schema-versioned engine result and how it was obtained (simulated,
	// read from the shared cache, or shared from a concurrent identical
	// in-flight run).
	Result    *engine.Result `json:"result,omitempty"`
	CacheHit  bool           `json:"cache_hit,omitempty"`
	Collapsed bool           `json:"collapsed,omitempty"`

	// Summary accompanies "result" on sampled jobs (JobSpec.Sample,
	// wire v2): the schema-versioned sampling Summary — per-window
	// results, measured aggregate and per-metric confidence intervals —
	// replaces the single Result, which is then absent.
	Summary *sampling.Summary `json:"summary,omitempty"`

	// Error accompanies "error" (the job's failure) and "cancelled"
	// (the underlying run's termination error, normally just the
	// context cancellation).
	Error string `json:"error,omitempty"`

	// Shard accompanies "started" on a routed job (wire v3): the base
	// URL of the worker shard the router placed the job on. Absent on
	// events served directly by a shard.
	Shard string `json:"shard,omitempty"`
}

// Terminal reports whether e ends its job's stream.
func (e *Event) Terminal() bool {
	switch e.Event {
	case EventResult, EventError, EventCancelled:
		return true
	}
	return false
}

// SubmitReply answers POST /v1/jobs.
type SubmitReply struct {
	ID     string `json:"id"`
	Status string `json:"status"` // "queued"
}

// CancelReply answers DELETE /v1/jobs/{id}.
type CancelReply struct {
	ID     string `json:"id"`
	Status string `json:"status"` // the job's state after the cancel request
}

// ErrorReply is the JSON body of every non-2xx response.
type ErrorReply struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"` // seconds, on 429/503
}

// TenantStats are one tenant's cumulative counters.
type TenantStats struct {
	Weight    int    `json:"weight"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Ran       uint64 `json:"ran"`        // simulated (cache misses)
	CacheHits uint64 `json:"cache_hits"` // answered from the shared cache
	Collapsed uint64 `json:"collapsed"`  // answered from a concurrent identical run
	Queued    int    `json:"queued"`     // currently waiting
}

// Stats answers GET /v1/stats: fabric-wide queue/cache/tenant state.
type Stats struct {
	Queued    int `json:"queued"`  // jobs waiting for a worker
	Running   int `json:"running"` // jobs simulating right now
	Workers   int `json:"workers"`
	QueueCap  int `json:"queue_cap"`
	JobsHeld  int `json:"jobs_held"` // job records retained for re-attach
	UptimeSec int `json:"uptime_sec"`

	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Ran       uint64 `json:"ran"`
	CacheHits uint64 `json:"cache_hits"`
	Collapsed uint64 `json:"collapsed"`

	// Cache is the shared sweep.Cache's lifetime view (all tenants, and
	// any CLI sweeps pointed at the same directory); CacheHitRate is its
	// fraction of lookups answered from disk.
	Cache        sweep.CacheStats `json:"cache"`
	CacheHitRate float64          `json:"cache_hit_rate"`

	Tenants map[string]TenantStats `json:"tenants"`
}

// Health answers GET /healthz.
type Health struct {
	Status  string `json:"status"` // "ok" or "draining"
	Version string `json:"version"`
	Go      string `json:"go"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`

	// Router is present only on a router-mode daemon (wire v3): the
	// shard-membership summary. Its absence is how a client tells a
	// worker shard from a router.
	Router *RouterHealth `json:"router,omitempty"`
}

// RouterHealth is the /healthz membership summary of a router (wire v3).
type RouterHealth struct {
	ShardsLive  int `json:"shards_live"`
	ShardsTotal int `json:"shards_total"`
}

// ShardHealth is one worker shard's state as seen by a router's health
// monitor (wire v3): membership, the consecutive-failure counter that
// drives mark-down, and the backlog reported by the shard's last
// successful probe.
type ShardHealth struct {
	URL              string `json:"url"`
	Up               bool   `json:"up"`
	ConsecutiveFails int    `json:"consecutive_fails"`
	LastError        string `json:"last_error,omitempty"`
	Queued           int    `json:"queued"`
	Running          int    `json:"running"`
	ProbeAgeMS       int64  `json:"probe_age_ms"` // since the last finished probe; -1 before the first
}

// RouterStats answers GET /v1/stats on a router-mode daemon (wire v3).
// Resubmitted counts jobs that were re-placed on another shard after
// their first shard failed mid-job — the chaos smoke asserts it advances
// when a shard is killed mid-sweep.
type RouterStats struct {
	Role        string `json:"role"` // "router"
	ShardsLive  int    `json:"shards_live"`
	ShardsTotal int    `json:"shards_total"`
	JobsHeld    int    `json:"jobs_held"`
	UptimeSec   int    `json:"uptime_sec"`

	Submitted   uint64 `json:"submitted"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Cancelled   uint64 `json:"cancelled"`
	Resubmitted uint64 `json:"resubmitted"`

	Shards []ShardHealth `json:"shards"`
}
