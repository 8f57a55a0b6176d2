// The VPS engine: the §3.1 datacenter exploration, ported onto the
// same scheduler/fetcher/sink layers. There is no session layer — VPS
// vantage points are stable addresses with no proxy failures and no
// rotation budget — so each shard is a bare fetch loop.
package scanner

import (
	"context"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/trace"
)

// RunVPS streams a VPS-fleet scan into sink. Tasks index domains and
// fleet positions (Task.Country is the VPS index); a nil task list
// scans the full cross product. Samples are a pure function of
// (domain, VPS, phase, attempt) — no session state — so results are
// identical at any concurrency and shard size. The fleet's shards run
// through the same Assembly as Run's, minus the outage and coverage
// tail: a VPS shard cannot be lost.
func RunVPS(ctx context.Context, fleet []*proxy.VPS, domains []string, tasks []Task, cfg Config, sink Sink) error {
	if cfg.Headers == nil {
		cfg.Headers = ZGrabHeaders()
	}
	cfg = cfg.withDefaults()
	if tasks == nil {
		tasks = CrossProduct(len(domains), len(fleet))
	}

	p := &Plan{domains: domains, countries: fleetCountries(fleet), cfg: cfg,
		shards: buildShards(tasks, len(fleet), cfg.ShardSize, func(int16, int) uint64 { return 0 })}
	a, err := NewAssembly(p, sink)
	if err != nil {
		return err
	}
	return a.run(ctx, func(ctx context.Context, sh *shard, cfg Config, tb *trace.Buffer) ([]Sample, OutageReason) {
		return scanVPSShard(ctx, fleet[sh.group], domains, sh, cfg, tb), OutageNone
	}, false)
}

// fleetCountries lists each fleet position's country.
func fleetCountries(fleet []*proxy.VPS) []geo.CountryCode {
	countries := make([]geo.CountryCode, len(fleet))
	for i, v := range fleet {
		countries[i] = v.Country
	}
	return countries
}

// ScanVPS is the collecting form of RunVPS over the full cross
// product, with one Result country entry per fleet position.
func ScanVPS(ctx context.Context, fleet []*proxy.VPS, domains []string, cfg Config) (*Result, error) {
	var c Collect
	err := RunVPS(ctx, fleet, domains, nil, cfg, &c)
	return &Result{Domains: domains, Countries: fleetCountries(fleet), Samples: c.Samples}, err
}

func scanVPSShard(ctx context.Context, v *proxy.VPS, domains []string, sh *shard, cfg Config, tb *trace.Buffer) []Sample {
	f := newFetcher(ctx, v.Stack(), cfg)
	out := make([]Sample, 0, len(sh.tasks)*cfg.Samples)
	unitStart := tb.Wall()
	for ti, t := range sh.tasks {
		if ctx.Err() != nil {
			return out // discarded: a cancelled unit yields no result
		}
		domain := domains[t.Domain]
		for a := 0; a < cfg.Samples; a++ {
			seed := sampleSeed(domain, string(v.Country), cfg.Phase+"/vps", a)
			if tb == nil {
				out = append(out, f.fetch(domain, seed, t, uint8(a), v.IP))
				continue
			}
			fetchStart := tb.Wall()
			s := f.fetch(domain, seed, t, uint8(a), v.IP)
			out = append(out, s)
			recordFetch(tb, sh, cfg, string(v.Country), domain, ti*cfg.Samples+a, s, fetchStart)
		}
	}
	closeUnit(tb, sh, cfg, string(v.Country), OutageNone, len(out), unitStart)
	return out
}
