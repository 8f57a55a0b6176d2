// Metric names for the scan engine's telemetry, one constant per
// series so instrumentation sites and tests never drift on spelling.
// The split between deterministic and runtime classes follows the
// package determinism contract: a deterministic metric is a pure
// function of the scan inputs (identical at any Concurrency); a
// runtime metric describes one particular schedule and is registered
// through the Runtime* constructors so Snapshot.Deterministic strips
// it.
package scanner

import (
	"fmt"
	"time"

	"geoblock/internal/telemetry"
)

const (
	// Scheduler layer.
	MetShardsScheduled = "scanner.sched.shards_scheduled"
	MetShardsDone      = "scanner.sched.shards_done"
	MetWorkers         = "scanner.sched.workers" // runtime gauge

	// Sink layer (counted at canonical-order delivery).
	MetSinkSamples = "scanner.sink.samples"
	MetSinkBytes   = "scanner.sink.body_bytes"

	// Fetcher layer.
	MetFetchAttempts = "scanner.fetch.attempts"
	MetFetchResults  = "scanner.fetch.results"    // + {code=<ErrCode>}
	MetFetchLatency  = "scanner.fetch.latency_ms" // runtime histogram
	MetFetchBytes    = "scanner.fetch.body_bytes"

	// Session layer.
	MetOpenAttempts = "scanner.session.open_attempts"
	MetBrownouts    = "scanner.session.brownouts"
	MetBackoff      = "scanner.session.backoff_ms"
	MetRetries      = "scanner.session.retries"
	MetRotations    = "scanner.session.rotations"
	MetProbes       = "scanner.session.precheck_probes"
	MetFailedSweeps = "scanner.session.failed_sweeps"
	MetBreakerTrips = "scanner.session.breaker_trips"

	// Outage accounting.
	MetOutages      = "scanner.outages" // + {reason=<OutageReason>}
	MetOutagesTotal = "scanner.outages_total"
	MetCovRequested = "scanner.coverage.requested"
	MetCovAttained  = "scanner.coverage.attained"
	MetCovTasksLost = "scanner.coverage.tasks_lost"
)

// fetchMetrics caches the fetcher's metric handles so the per-attempt
// hot path does no name lookups: result counters are an array indexed
// by ErrCode. Nil when the scan carries no registry.
type fetchMetrics struct {
	reg      *telemetry.Registry
	attempts *telemetry.Counter
	results  [errCodeCount]*telemetry.Counter
	latency  *telemetry.Histogram
	bytes    *telemetry.Histogram
}

func newFetchMetrics(reg *telemetry.Registry) *fetchMetrics {
	if reg == nil {
		return nil
	}
	m := &fetchMetrics{reg: reg, attempts: reg.Counter(MetFetchAttempts)}
	for e := 0; e < errCodeCount; e++ {
		m.results[e] = reg.Counter(telemetry.Label(MetFetchResults, "code", ErrCode(e).String()))
	}
	// Latency is wall-schedule dependent; body size is not.
	m.latency = reg.RuntimeHistogram(MetFetchLatency, 0, 2000, 20)
	m.bytes = reg.Histogram(MetFetchBytes, 0, 65536, 16)
	return m
}

// observe records one completed fetch attempt.
func (m *fetchMetrics) observe(s *Sample, d time.Duration) {
	m.attempts.Add(1)
	if int(s.Err) < len(m.results) {
		m.results[s.Err].Add(1)
	}
	m.latency.Observe(float64(d) / float64(time.Millisecond))
	if s.Err == ErrNone {
		m.bytes.Observe(float64(s.BodyLen))
	}
}

// ProgressLine renders the one-line scan progress summary the CLIs
// print to stderr: shard progress, outages, and retry pressure.
func ProgressLine(reg *telemetry.Registry) string {
	done := reg.Counter(MetShardsDone).Value()
	total := reg.Counter(MetShardsScheduled).Value()
	outages := reg.Counter(MetOutagesTotal).Value()
	attempts := reg.Counter(MetFetchAttempts).Value()
	retries := reg.Counter(MetRetries).Value()
	rate := 0.0
	if attempts > 0 {
		rate = 100 * float64(retries) / float64(attempts)
	}
	return fmt.Sprintf("scan: shards %d/%d · outages %d · retry rate %.1f%% (%d attempts) · samples %d",
		done, total, outages, rate, attempts, reg.Counter(MetSinkSamples).Value())
}
