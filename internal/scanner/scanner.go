// Package scanner is the reproduction of the paper's Lumscan tool
// (§3.2): a reliable scanning engine over the residential proxy mesh,
// with connectivity pre-checks on each exit, configurable retries for
// failed requests, full control of request headers (a bare User-Agent
// is not enough to avoid bot detection), and load balancing that
// rotates exit machines after a bounded number of requests so no end
// user carries the scan. Samples record status, body length, the exit
// that served them, and the deterministic seed that lets Replay
// re-fetch the exact body later instead of storing terabytes of HTML.
//
// The engine splits the hot path every study phase funnels through
// into four composable layers:
//
//   - Scheduler (sched.go): shards each country's task list into
//     deterministic chunks that the pool claims lowest-seq-first behind
//     a bounded reorder window, so one large country no longer
//     serializes a run, parallelism scales with cores rather than
//     country count, and completed-but-unemitted shards stay bounded.
//   - Session (session.go): sticky proxy-session acquisition, the
//     connectivity pre-check loop, and per-exit budget rotation under
//     an explicit RetryPolicy.
//   - Fetcher (fetch.go): one HTTP attempt plus error classification.
//   - Sink (sink.go): streaming delivery of samples. Collect rebuilds
//     the classic in-memory Result; folding sinks let consumers drop
//     bodies immediately, bounding peak memory on Top-1M-scale runs.
//
// The plan layer (plan.go) ties them together: Run, RunVPS and the
// distributed fabric all execute units through one per-unit path and
// fold them back through one Assembly.
//
// Determinism contract: every sample is a pure function of (domain,
// country, phase, attempt, shard slot). Shard boundaries and slots do
// not depend on Concurrency, and completed shards are emitted to the
// sink in canonical country-major, task-order sequence — so a scan's
// output is bit-identical at any concurrency, and Emit never needs to
// be safe for concurrent use.
package scanner

import (
	"net/http"

	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// ErrCode classifies a failed sample.
type ErrCode uint8

const (
	// ErrNone: the request completed with an HTTP response.
	ErrNone ErrCode = iota
	// ErrProxy: the exit or superproxy failed.
	ErrProxy
	// ErrTimeout: the connection timed out.
	ErrTimeout
	// ErrDNS: name resolution failed (including poisoned answers).
	ErrDNS
	// ErrReset: the connection was reset in-path.
	ErrReset
	// ErrRedirects: the redirect limit was exceeded.
	ErrRedirects
	// ErrLuminati: the proxy platform refused the domain
	// (X-Luminati-Error).
	ErrLuminati
	// ErrNoExits: the country has no usable exits.
	ErrNoExits

	// errCodeCount is one past the highest ErrCode. The fetcher's
	// per-code metric counters are indexed by it, and the
	// exhaustiveness test pins every code below it to a unique String
	// label — add a code without bumping this and the test fails fast.
	errCodeCount = int(ErrNoExits) + 1
)

func (e ErrCode) String() string {
	switch e {
	case ErrNone:
		return "ok"
	case ErrProxy:
		return "proxy"
	case ErrTimeout:
		return "timeout"
	case ErrDNS:
		return "dns"
	case ErrReset:
		return "reset"
	case ErrRedirects:
		return "redirects"
	case ErrLuminati:
		return "luminati"
	case ErrNoExits:
		return "no-exits"
	}
	return "unknown"
}

// Sample is one measurement. The struct is deliberately compact: a full
// Top-10K study holds millions of them.
type Sample struct {
	Domain  int32 // index into Result.Domains
	Country int16 // index into Result.Countries
	Attempt uint8 // which sample of the pair (0-based)
	Err     ErrCode
	Status  int16
	BodyLen int32
	ExitIP  geo.IP
	Seed    uint64 // replay key
	Body    string // retained only when Config.KeepBody said so
}

// OK reports whether the sample carries an HTTP response.
func (s *Sample) OK() bool { return s.Err == ErrNone }

// OutageReason classifies why a country (or part of one) produced no
// measurements.
type OutageReason uint8

const (
	// OutageNone: no outage.
	OutageNone OutageReason = iota
	// OutageNoExits: the country has no exit inventory at all.
	OutageNoExits
	// OutageBrownout: the superproxy never accepted a session, even
	// under open-retry backoff.
	OutageBrownout
	// OutageDark: exits exist but none ever answered — the session
	// circuit breaker wrote the country off.
	OutageDark
)

func (r OutageReason) String() string {
	switch r {
	case OutageNone:
		return "none"
	case OutageNoExits:
		return "no-exits"
	case OutageBrownout:
		return "brownout"
	case OutageDark:
		return "dark"
	}
	return "unknown"
}

// outcome is the reason's span and trace outcome key: "ok" for a
// healthy shard, the reason's label otherwise.
func (r OutageReason) outcome() string {
	if r == OutageNone {
		return "ok"
	}
	return r.String()
}

// Outage is the typed per-country degradation record: instead of
// poisoning downstream table math with sentinel values, a scan that
// exhausts a country's exits reports exactly what was lost. Samples for
// the lost tasks are still emitted (as ErrNoExits), so sample streams
// stay rectangular; the Outage is the accounting on top.
type Outage struct {
	Country geo.CountryCode
	// Reason is the dominant failure mode across the country's lost
	// shards.
	Reason OutageReason
	// Shards lost vs scheduled for the country.
	Shards, ShardsTotal int
	// Tasks in the lost shards.
	Tasks int
}

// Full reports whether every shard of the country was lost — the
// country contributed no measurements at all.
func (o Outage) Full() bool { return o.Shards == o.ShardsTotal }

// Coverage summarizes attained vs requested coverage — the headline
// the CLIs print so a degraded run is visible instead of silently
// thin.
type Coverage struct {
	// Requested is the number of countries the scan asked for (with at
	// least one task).
	Requested int
	// Attained is the number of countries that produced measurements
	// from at least one live shard.
	Attained int
	// Lost lists the fully lost countries, in scan order.
	Lost []geo.CountryCode
	// TasksLost counts tasks in outage-hit shards across all countries.
	TasksLost int
}

// Full reports whether every requested country was attained.
func (c Coverage) Full() bool { return c.Attained == c.Requested }

// Task is one (domain, country) pair to measure.
type Task struct {
	Domain  int32 `json:"d"`
	Country int16 `json:"c"`
}

// BodyPolicy is the serializable form of the body-retention decision.
// Config.KeepBody is a func and cannot cross a process boundary; a
// distributed work unit ships the policy instead and every worker
// derives the identical func from it.
type BodyPolicy uint8

const (
	// BodyDefault keeps non-200/301/302 bodies — every block page is
	// non-200. This is what a nil KeepBody has always meant.
	BodyDefault BodyPolicy = iota
	// BodyNone drops every body (status/length-only passes).
	BodyNone
	// BodyAll keeps every body.
	BodyAll
)

func (p BodyPolicy) String() string {
	switch p {
	case BodyDefault:
		return "default"
	case BodyNone:
		return "none"
	case BodyAll:
		return "all"
	}
	return "unknown"
}

// keep derives the KeepBody func the policy stands for.
func (p BodyPolicy) keep() func(status, bodyLen int) bool {
	switch p {
	case BodyNone:
		return func(int, int) bool { return false }
	case BodyAll:
		return func(int, int) bool { return true }
	}
	return func(status, _ int) bool { return status != 200 && status != 301 && status != 302 }
}

// DefaultShardSize is the task count per scheduler shard. Small enough
// that a skewed country splits across every core, large enough that a
// sticky session amortizes its connectivity pre-check.
const DefaultShardSize = 32

// Config tunes a scan.
type Config struct {
	// Samples per (domain, country) pair.
	Samples int
	// Retries per failed sample (the Lumscan reliability feature).
	Retries int
	// RequestsPerExit bounds per-exit load before rotation (paper: 10).
	RequestsPerExit int
	// MaxRedirects bounds the redirect chain (paper: 10).
	MaxRedirects int
	// Concurrency bounds the number of scheduler workers. Output is
	// bit-identical at any value (see the package determinism contract).
	Concurrency int
	// ShardSize is the task count per scheduler shard. Zero takes
	// DefaultShardSize. Shard boundaries feed the per-shard session
	// slots, so changing ShardSize (unlike Concurrency) changes which
	// exits serve which samples.
	ShardSize int
	// Headers are sent on every request. Use BrowserHeaders for the
	// full browser set; a bare UA reproduces the ZGrab false positives.
	Headers map[string]string
	// KeepBody decides whether a sample retains its body. Nil derives
	// the func from Bodies (whose zero value keeps non-200 bodies —
	// every block page is non-200). Prefer Bodies: a func cannot be
	// serialized into a distributed work unit, so a scan with a custom
	// KeepBody cannot run on the fabric.
	KeepBody func(status, bodyLen int) bool
	// Bodies is the serializable body-retention policy, consulted only
	// when KeepBody is nil.
	Bodies BodyPolicy
	// Phase salts the per-sample seeds so that repeated passes over the
	// same pairs draw fresh samples.
	Phase string
	// VerifyConnectivity runs the platform echo check when picking up a
	// new exit, rotating away from dead machines.
	VerifyConnectivity bool
	// WrapTransport, when non-nil, wraps every transport the fetcher
	// layer builds — the middleware seam for instrumentation, latency
	// injection in benchmarks, or request logging. It must not change
	// response contents, or the determinism contract breaks.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// Metrics, when non-nil, receives counters, histograms, and phase
	// spans from every engine layer (see metrics.go for the names).
	// Instrumentation never influences scan behavior: samples are
	// byte-identical with or without it.
	Metrics *telemetry.Registry
	// Span, when non-nil, is the parent the engine's own scan span
	// nests under — the pipeline passes its phase span here so the
	// trace reads pipeline phase → scan phase → country. Nil roots the
	// scan span at the registry.
	Span *telemetry.Span
	// Trace, when non-nil, receives wide events from every engine layer
	// (see internal/trace). Like Metrics, tracing never influences scan
	// behavior: samples are byte-identical with or without it.
	Trace *trace.Tracer
	// TraceCtx pins the scan-level trace context explicitly — the
	// fabric worker path, where the coordinator issued the context in
	// the PhaseSpec. When zero, the context derives from Trace's root
	// (see ScanTraceCtx). Either way every party derives identical
	// per-unit contexts.
	TraceCtx trace.SpanCtx
	// Resume, when non-nil, marks a canonical-order prefix of the
	// scan's shards as already measured by an earlier run. The engine
	// skips their work entirely — the journal layer replays their
	// persisted samples into the sink beforehand — while still
	// crediting their spans, counters, and outage accounting from the
	// recorded loss reasons, so a resumed run's deterministic telemetry
	// and coverage math match an uninterrupted run's exactly.
	Resume *Resume
}

// Resume is the checkpoint index's view of how far an interrupted scan
// got: Shards completed scheduler shards, in canonical order, and each
// one's OutageReason (OutageNone for healthy shards). The engine folds
// the reasons back into the outage and coverage accounting exactly as
// if the shards had just run.
type Resume struct {
	Shards int
	Lost   []OutageReason
}

// withDefaults fills zero fields with the §4.1.1 parameters.
func (c Config) withDefaults() Config {
	if c.Samples <= 0 {
		c.Samples = 1
	}
	if c.MaxRedirects <= 0 {
		c.MaxRedirects = 10
	}
	if c.RequestsPerExit <= 0 {
		c.RequestsPerExit = 10
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	if c.Headers == nil {
		c.Headers = BrowserHeaders()
	}
	if c.KeepBody == nil {
		c.KeepBody = c.Bodies.keep()
	}
	return c
}

// retryPolicy extracts the session layer's knobs.
func (c Config) retryPolicy() RetryPolicy {
	return RetryPolicy{
		Retries:            c.Retries,
		RequestsPerExit:    c.RequestsPerExit,
		VerifyProbes:       DefaultVerifyProbes,
		VerifyConnectivity: c.VerifyConnectivity,
	}
}

// BrowserHeaders is the full header set that suppresses bot detection
// (§3.2: "merely setting User-Agent is insufficient").
func BrowserHeaders() map[string]string {
	return map[string]string{
		"User-Agent":      "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:61.0) Gecko/20100101 Firefox/61.0",
		"Accept":          "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
		"Accept-Language": "en-US,en;q=0.5",
	}
}

// ZGrabHeaders is the bare header set of the §3.1 VPS exploration.
func ZGrabHeaders() map[string]string {
	return map[string]string{
		"User-Agent": "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:61.0) Gecko/20100101 Firefox/61.0",
	}
}

// DefaultConfig is the initial-snapshot configuration of §4.1.1.
func DefaultConfig() Config {
	return Config{
		Samples:            3,
		Retries:            2,
		RequestsPerExit:    10,
		MaxRedirects:       10,
		Concurrency:        8,
		Headers:            BrowserHeaders(),
		Phase:              "initial",
		VerifyConnectivity: true,
	}
}

// Result is a completed scan.
type Result struct {
	Domains   []string
	Countries []geo.CountryCode
	Samples   []Sample
	// Outages lists countries that lost shards to dead exits, dark
	// inventories, or superproxy brownouts, in scan order.
	Outages []Outage
	// Coverage is the attained-vs-requested summary for the run.
	Coverage Coverage
}

// ExitLoad summarizes how many requests each exit machine served — the
// accounting behind the paper's promise that the scan "keeps us from
// consuming too many resources on any single end user's machine"
// (§3.2). Counting is per contiguous stretch on an exit: the per-exit
// budget bounds each stretch, and rotation cycles the inventory.
type ExitLoad struct {
	// MaxStretch is the longest run of consecutive samples served by
	// one exit within a country.
	MaxStretch int
	// PerExit counts total samples per exit address.
	PerExit map[geo.IP]int
}

// LoadReport computes the per-exit accounting from the samples.
func (r *Result) LoadReport() ExitLoad {
	load := ExitLoad{PerExit: map[geo.IP]int{}}
	var prevExit geo.IP
	var prevCountry int16 = -1
	stretch := 0
	for i := range r.Samples {
		s := &r.Samples[i]
		if s.ExitIP == 0 {
			continue
		}
		load.PerExit[s.ExitIP]++
		if s.ExitIP == prevExit && s.Country == prevCountry {
			stretch++
		} else {
			stretch = 1
			prevExit, prevCountry = s.ExitIP, s.Country
		}
		if stretch > load.MaxStretch {
			load.MaxStretch = stretch
		}
	}
	return load
}

// CrossProduct builds the full task matrix.
func CrossProduct(nDomains, nCountries int) []Task {
	tasks := make([]Task, 0, nDomains*nCountries)
	for c := 0; c < nCountries; c++ {
		for d := 0; d < nDomains; d++ {
			tasks = append(tasks, Task{Domain: int32(d), Country: int16(c)})
		}
	}
	return tasks
}

// sampleSeed derives the deterministic per-sample seed.
func sampleSeed(domain, country, phase string, attempt int) uint64 {
	return stats.Mix64(stats.FNV1a(domain) ^ stats.FNV1a(country)<<1 ^ stats.FNV1a(phase)<<2 ^ uint64(attempt+1)*0x100000001b3)
}
