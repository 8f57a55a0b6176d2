// The engine: wires scheduler, session, fetcher, and sink together
// for residential-mesh scans.
package scanner

import (
	"context"
	"errors"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/trace"
)

// Run measures tasks through the proxy mesh, streaming samples into
// sink in canonical country-major, task-order sequence. It returns
// ctx.Err() if the scan was cancelled (in which case the sink holds a
// prefix of the full run, made of whole shards), nil otherwise.
//
// Run is the single-process composition of the plan layer: NewPlan
// decomposes the scan, the in-process pool executes its units, and
// an Assembly folds them back into canonical order — the same per-unit
// path a fabric coordinator drives across processes.
//
// Degradation contract: a country whose exits are exhausted — empty
// inventory, a superproxy that never accepts a session, or a dark
// inventory the circuit breaker writes off — still emits its samples
// (as ErrNoExits), and a sink that implements OutageSink additionally
// receives one typed Outage per affected country followed by the
// run's Coverage summary.
func Run(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config, sink Sink) error {
	p := NewPlan(domains, countries, tasks, cfg)
	a, err := NewAssembly(p, sink)
	if err != nil {
		return err
	}
	return a.run(ctx, p.meshScan(net), true)
}

// Scan is the collecting form of Run: it materializes the full Result.
// A cancelled scan returns the samples emitted so far alongside
// ctx.Err().
func Scan(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) (*Result, error) {
	var c Collect
	err := Run(ctx, net, domains, countries, tasks, cfg, &c)
	return &Result{Domains: domains, Countries: countries, Samples: c.Samples, Outages: c.Outages, Coverage: c.Coverage}, err
}

// scanShard runs one shard's tasks through its own sticky session and
// reports why (if at all) its tasks were lost. tb, when non-nil, stages
// the shard's trace events — session open, one wide record per fetch,
// and the closing unit event.
func scanShard(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, sh *shard, cfg Config, pol RetryPolicy, tb *trace.Buffer) ([]Sample, OutageReason) {
	out := make([]Sample, 0, len(sh.tasks)*cfg.Samples)
	cc := countries[sh.group]
	unitStart := tb.Wall()

	se, err := openSession(net, cc, sh.slot, pol, cfg.Metrics)
	if tb != nil {
		ev := trace.NewEvent(tb.Ctx().Child("session.open", 0), "session.open")
		ev.Unit = sh.seq
		ev.Country = string(cc)
		ev.Phase = cfg.Phase
		if err == nil {
			ev.Outcome = "ok"
		} else {
			ev.Outcome = "error"
		}
		ev.WallNS = unitStart
		ev.WallDurNS = tb.Wall() - unitStart
		tb.Record(ev)
	}
	if err != nil {
		lost := OutageNoExits
		var brown *proxy.ErrBrownout
		if errors.As(err, &brown) {
			lost = OutageBrownout
		}
		for _, t := range sh.tasks {
			for a := 0; a < cfg.Samples; a++ {
				out = append(out, Sample{Domain: t.Domain, Country: t.Country, Attempt: uint8(a), Err: ErrNoExits})
			}
		}
		closeUnit(tb, sh, cfg, string(cc), lost, len(out), unitStart)
		return out, lost
	}

	f := newFetcher(ctx, se.transport(), cfg)
	for ti, t := range sh.tasks {
		if ctx.Err() != nil {
			return out, OutageNone
		}
		domain := domains[t.Domain]
		for a := 0; a < cfg.Samples; a++ {
			seed := sampleSeed(domain, string(cc), cfg.Phase, a)
			if tb == nil {
				out = append(out, fetchReliable(f, se, domain, seed, t, uint8(a)))
				continue
			}
			fetchStart := tb.Wall()
			s := fetchReliable(f, se, domain, seed, t, uint8(a))
			out = append(out, s)
			recordFetch(tb, sh, cfg, string(cc), domain, ti*cfg.Samples+a, s, fetchStart)
		}
	}
	lost := OutageNone
	if se.dark() {
		lost = OutageDark
	}
	closeUnit(tb, sh, cfg, string(cc), lost, len(out), unitStart)
	return out, lost
}
