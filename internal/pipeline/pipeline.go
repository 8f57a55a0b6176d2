// Package pipeline is the paper's semi-automated geoblocking detection
// system, end to end: safe-list filtering, the initial Lumscan snapshot,
// page-length outlier extraction, TF-IDF clustering with (simulated)
// manual cluster labeling, signature-driven identification of candidate
// pairs, targeted resampling, and the 80%-agreement confirmation step —
// for both the Alexa Top-10K study (§4) and the Top-1M CDN-customer
// study (§5), plus the §3.1 VPS exploration.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"geoblock/internal/blockpage"
	"geoblock/internal/consistency"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

// Study bundles the measurement infrastructure: the world under
// measurement, the residential proxy mesh, and the block-page
// classifier (which, in the paper's chronology, exists because an
// earlier run of the clustering stage discovered the signatures).
type Study struct {
	World      *worldgen.World
	Net        *proxy.Network
	Classifier *fingerprint.Classifier
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Ctx, when non-nil, cancels the study's scans (a cancelled study
	// returns partial results). Nil means context.Background().
	Ctx context.Context
	// Metrics receives counters and phase spans from every scan the
	// study runs. New installs a virtual-clock registry (deterministic
	// snapshots); replace it with telemetry.NewWithClock(telemetry.Wall{})
	// before running to time a real study. Never nil after New.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives wide events from every phase the
	// study runs: each scan invocation gets its own span context
	// (derived from the tracer's root and the journal key, so repeated
	// phases stay distinct) and a closing "pipeline/scan" event. Nil
	// means tracing off — zero overhead on the scan hot path.
	Trace *trace.Tracer
	// Store, when non-nil, journals every scan phase the study runs and
	// resumes interrupted phases from their checkpoints: completed
	// shards replay from disk instead of refetching. The journal must
	// come from the same study configuration (world seed and inputs) —
	// each phase's fingerprint is validated on resume.
	Store *runstore.Store
	// Runner, when non-nil, replaces the in-process engine for every
	// residential scan phase — the distributed fabric's coordinator
	// plugs in here. VPS phases always run in-process (the datacenter
	// fleet is cheap and local). The runner composes with Store: it runs
	// under the journal exactly where scanner.Run would.
	Runner ScanRunner
	// VerdictOut, when non-nil, receives the verdict snapshot compiled
	// from each completed study's confirmed findings — the serving
	// layer's feed. Called synchronously at the end of the study, after
	// the findings tables are final.
	VerdictOut func(*verdict.Snapshot)

	// phaseSeq counts scan invocations per phase name, so repeated
	// invocations (the explore verify loop) get distinct journal keys.
	// Study execution order is deterministic, so the keys are stable
	// across runs — which is what lets a resumed study find its work.
	phaseSeq map[string]int

	// scanErr holds the first scan abort the study observed (in
	// practice: ctx cancellation). Partial results are still returned —
	// that is the documented contract — but the abort stays visible
	// through Err instead of silently truncating the tables.
	scanErr error
}

// ScanRunner executes one residential scan phase. Its contract is the
// engine's: deliver samples to sink in canonical order, byte-identical
// to scanner.Run over the same inputs.
type ScanRunner func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error

// New assembles a study over w with a fresh proxy mesh.
func New(w *worldgen.World) *Study {
	return &Study{
		World:      w,
		Net:        proxy.NewNetwork(w),
		Classifier: fingerprint.NewClassifier(),
		Metrics:    telemetry.New(),
	}
}

// phase opens a pipeline-level span; scan configs built inside the
// phase set Config.Span to it so the trace nests pipeline phase →
// scan phase → country.
func (s *Study) phase(name string) *telemetry.Span {
	return s.Metrics.StartSpan("pipeline/" + name)
}

// scanConfig is DefaultConfig wired to the study's registry, tracer,
// and the enclosing phase span.
func (s *Study) scanConfig(phase string, span *telemetry.Span) scanner.Config {
	cfg := scanner.DefaultConfig()
	cfg.Phase = phase
	cfg.Metrics = s.Metrics
	cfg.Span = span
	cfg.Trace = s.Trace
	return cfg
}

// snapshot exports the study's telemetry in its deterministic view —
// the form study results carry, so a result is still a pure function
// of the study's inputs.
func (s *Study) snapshot() *telemetry.Snapshot {
	return s.Metrics.Snapshot().Deterministic()
}

func (s *Study) logf(format string, args ...any) {
	if s.Log != nil {
		s.Log(format, args...)
	}
}

func (s *Study) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// noteScanErr records a scan phase that returned an error — today that
// means the study's context was cancelled mid-phase. The phase's
// partial output is kept (the streaming sinks have already folded it),
// but the abort is logged and retained so callers can distinguish a
// truncated study from a complete one.
func (s *Study) noteScanErr(phase string, err error) {
	if err == nil {
		return
	}
	if s.scanErr == nil {
		s.scanErr = &PhaseError{Phase: phase, Err: err}
	}
	s.logf("%s: scan aborted: %v", phase, err)
}

// PhaseError is the error Study.Err reports: the underlying scan abort
// tagged with the pipeline phase it struck, so operators see which
// phase truncated the study. Unwrap preserves errors.Is matching on
// the cause (runstore.ErrSevered, context.Canceled, ...).
type PhaseError struct {
	Phase string
	Err   error
}

func (e *PhaseError) Error() string { return fmt.Sprintf("phase %s: %v", e.Phase, e.Err) }
func (e *PhaseError) Unwrap() error { return e.Err }

// Err reports the first scan abort the study observed, or nil if every
// phase ran to completion. A non-nil Err means the study's results are
// a prefix of the full run.
func (s *Study) Err() error { return s.scanErr }

// emitVerdicts compiles the confirmed findings over the studied
// universe into an immutable verdict snapshot and hands it to
// VerdictOut. Versioned by the world's policy clock at completion, so
// successive studies of a drifting world produce ordered snapshots.
func (s *Study) emitVerdicts(domains []string, countries []geo.CountryCode, findings []Finding) {
	if s.VerdictOut == nil {
		return
	}
	src := verdict.Source{
		Version:   uint64(s.World.Clock()),
		Seed:      s.World.Cfg.Seed,
		Domains:   domains,
		Countries: countries,
	}
	for _, f := range findings {
		src.Entries = append(src.Entries, verdict.Entry{
			Domain: f.DomainName, Country: f.Country, Kind: f.Kind,
		})
	}
	snap, err := verdict.Compile(src)
	if err != nil {
		// Findings are drawn from the studied universe, so Compile can
		// only fail on a pipeline bug; surface it rather than serve stale.
		s.logf("verdict: snapshot compile failed: %v", err)
		return
	}
	s.logf("verdict: snapshot v%d, %d blocked pairs over %d domains × %d countries",
		snap.Version(), snap.Blocked(), len(snap.Domains()), len(snap.Countries()))
	s.VerdictOut(snap)
}

// logCoverage reports a degraded scan phase: which countries were lost
// and how far short of the requested coverage the run fell. A full run
// stays quiet.
func (s *Study) logCoverage(phase string, outages []scanner.Outage, cov scanner.Coverage) {
	if len(outages) == 0 {
		return
	}
	for _, o := range outages {
		s.logf("%s: outage %s (%s): %d/%d shards, %d tasks lost",
			phase, o.Country, o.Reason, o.Shards, o.ShardsTotal, o.Tasks)
	}
	s.logf("%s: coverage %d/%d countries (%d tasks lost)",
		phase, cov.Attained, cov.Requested, cov.TasksLost)
}

// Finding is one confirmed geoblocking observation: a (domain, country)
// pair that served an explicit geoblock page in at least the threshold
// fraction of its samples.
type Finding struct {
	DomainName string
	Rank       int
	Country    geo.CountryCode
	Kind       blockpage.Kind
	Rate       consistency.Rate
}

// pairKey identifies a (domain, country) pair within one scan result.
type pairKey struct {
	domain  int32
	country int16
}

// candidate accumulates the evidence for one pair during resampling.
type candidate struct {
	kind blockpage.Kind
	rate consistency.Rate
}

// explicitKind reports the explicit geoblock page class of a body, or
// KindNone.
func (s *Study) explicitKind(body string) blockpage.Kind {
	if body == "" {
		return blockpage.KindNone
	}
	k, explicit := s.Classifier.IsExplicitGeoblock(body)
	if !explicit {
		return blockpage.KindNone
	}
	return k
}

// measurableCountries returns the study's country set (the 177 of
// §4.1.1).
func (s *Study) measurableCountries() []geo.CountryCode {
	return s.World.Geo.Measurable()
}

// pairRateSink returns a streaming sink folding samples into per-pair
// rates for the given per-pair expected kind. A sample counts as a
// response when it carried any HTTP status; it counts as a block when
// its body classifies to the pair's kind. Each sample is digested and
// dropped — bodies included — so a resample pass streamed through this
// sink never materializes a Result.
func (s *Study) pairRateSink(kinds map[pairKey]blockpage.Kind, into map[pairKey]*candidate) scanner.SinkFunc {
	return func(sm scanner.Sample) {
		key := pairKey{sm.Domain, sm.Country}
		kind, tracked := kinds[key]
		if !tracked {
			return
		}
		c := into[key]
		if c == nil {
			c = &candidate{kind: kind}
			into[key] = c
		}
		if !sm.OK() {
			return
		}
		c.rate.Responses++
		if sm.Body != "" && s.Classifier.Classify(sm.Body) == kind {
			c.rate.Blocks++
		}
	}
}

// collectPairRates folds an already-materialized scan result through
// pairRateSink (for the initial snapshot, which later stages also
// need in full).
func (s *Study) collectPairRates(res *scanner.Result, kinds map[pairKey]blockpage.Kind, into map[pairKey]*candidate) {
	sink := s.pairRateSink(kinds, into)
	for i := range res.Samples {
		sink(res.Samples[i])
	}
}

// rankCountriesByBlocking runs the auxiliary pre-experiment of §4.1.2:
// sample the NS-detectable Cloudflare and Akamai customers within the
// safe set from every country and rank countries by how many 403s come
// back. The top of that ranking selects the reference countries for
// representative page lengths.
func (s *Study) rankCountriesByBlocking(safeDomains []string, safeRanks []int, countries []geo.CountryCode, samples int, span *telemetry.Span) []geo.CountryCode {
	var auxDomains []string
	for i, rank := range safeRanks {
		d := s.World.DomainAt(rank)
		if d != nil && d.NSDetectable {
			auxDomains = append(auxDomains, safeDomains[i])
		}
		if len(auxDomains) >= 300 {
			break
		}
	}
	if len(auxDomains) == 0 {
		// Degenerate small worlds: fall back to a slice of the safe set.
		n := len(safeDomains)
		if n > 100 {
			n = 100
		}
		auxDomains = safeDomains[:n]
	}

	cfg := s.scanConfig("country-rank", span)
	cfg.Samples = samples
	cfg.Bodies = scanner.BodyNone
	counts := make([]int, len(countries))
	s.noteScanErr("country-rank", s.scanStream("country-rank", cfg, auxDomains, countries,
		scanner.CrossProduct(len(auxDomains), len(countries)),
		scanner.SinkFunc(func(sm scanner.Sample) {
			if sm.OK() && sm.Status == 403 {
				counts[sm.Country]++
			}
		})))
	idx := make([]int, len(countries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return countries[idx[a]] < countries[idx[b]]
	})
	out := make([]geo.CountryCode, len(countries))
	for i, j := range idx {
		out[i] = countries[j]
	}
	return out
}

// studyRNG derives the deterministic RNG for sampling decisions.
func (s *Study) studyRNG(label string) *stats.RNG {
	return stats.NewRNG(s.World.Cfg.Seed).Fork("pipeline").Fork(label)
}

// phaseKey returns the journal key for the next invocation of the
// named phase: the name itself the first time, name#k for repeats.
func (s *Study) phaseKey(name string) string {
	if s.phaseSeq == nil {
		s.phaseSeq = map[string]int{}
	}
	k := s.phaseSeq[name]
	s.phaseSeq[name]++
	if k == 0 {
		return name
	}
	return name + "#" + strconv.Itoa(k)
}

// scanFingerprint digests a scan invocation's identity for the
// journal: world seed, journal key, phase name, input sizes, and the
// sampling parameter — never Concurrency, which a resumed run is free
// to change. A journal directory reused across different study
// configurations fails this check instead of splicing foreign samples.
func (s *Study) scanFingerprint(key string, cfg scanner.Config, domains, groups, tasks int) uint64 {
	h := stats.FNV1a("geoblock-scan")
	h = stats.Mix64(h ^ s.World.Cfg.Seed)
	h = stats.Mix64(h ^ stats.FNV1a(key))
	h = stats.Mix64(h ^ stats.FNV1a(cfg.Phase))
	h = stats.Mix64(h ^ uint64(domains))
	h = stats.Mix64(h ^ uint64(groups)<<16)
	h = stats.Mix64(h ^ uint64(tasks)<<32)
	h = stats.Mix64(h ^ uint64(cfg.Samples)<<48)
	return h
}

// traceScan pins the invocation's scan context onto cfg — the root →
// pipeline-phase → scan-phase derivation that keys every event the
// scan records, unique per invocation because key is — and returns the
// closer that records the phase's "pipeline/scan" event. A no-op
// closure when the study is not tracing.
func (s *Study) traceScan(key string, cfg *scanner.Config) func(error) {
	if s.Trace == nil {
		return func(error) {}
	}
	pctx := s.Trace.Root().Child("pipeline/"+key, 0)
	cfg.TraceCtx = pctx.Child("scan/"+cfg.Phase, 0)
	virt0, wall0 := s.Trace.Now()
	return func(err error) {
		virt, wall := s.Trace.Now()
		ev := trace.NewEvent(pctx, "pipeline/scan")
		ev.Parent = s.Trace.Root().Span
		ev.Phase = key
		if err == nil {
			ev.Outcome = "ok"
		} else {
			ev.Outcome = "aborted"
		}
		ev.VirtNS = virt0
		ev.VirtDurNS = virt - virt0
		ev.WallNS = wall0
		ev.WallDurNS = wall - wall0
		s.Trace.Record(ev)
	}
}

// scanStream is the study's one residential-scan entry point; name
// keys the journal and is usually cfg.Phase.
func (s *Study) scanStream(name string, cfg scanner.Config, domains []string, countries []geo.CountryCode, tasks []scanner.Task, sink scanner.Sink) error {
	return s.journaled(name, cfg, len(domains), len(countries), len(tasks), sink, func(cfg scanner.Config, sink scanner.Sink) error {
		if s.Runner != nil {
			return s.Runner(s.ctx(), domains, countries, tasks, cfg, sink)
		}
		return scanner.Run(s.ctx(), s.Net, domains, countries, tasks, cfg, sink)
	})
}

// scanVPSStream is scanStream for the datacenter engine.
func (s *Study) scanVPSStream(name string, cfg scanner.Config, fleet []*proxy.VPS, domains []string, tasks []scanner.Task, sink scanner.Sink) error {
	return s.journaled(name, cfg, len(domains), len(fleet), len(tasks), sink, func(cfg scanner.Config, sink scanner.Sink) error {
		return scanner.RunVPS(s.ctx(), fleet, domains, tasks, cfg, sink)
	})
}

// journaled runs one scan phase directly when no journal is attached,
// and through Store.Scan — journaling live work, replaying committed
// work — otherwise. A cancelled study opens no new journaled phase:
// its inputs derive from the cancelled phase's partial output, so
// journaling it would bind the phase key to a fingerprint the resumed
// study cannot match.
func (s *Study) journaled(name string, cfg scanner.Config, nDomains, nVantages, nTasks int, sink scanner.Sink, run func(scanner.Config, scanner.Sink) error) error {
	key := s.phaseKey(name)
	traceDone := s.traceScan(key, &cfg)
	var err error
	switch {
	case s.Store == nil:
		err = run(cfg, sink)
	case s.ctx().Err() != nil:
		err = s.ctx().Err()
	default:
		err = s.Store.Scan(runstore.Scan{
			Key:         key,
			Fingerprint: s.scanFingerprint(key, cfg, nDomains, nVantages, nTasks),
			Cfg:         cfg,
			Sink:        sink,
			Run:         run,
		})
	}
	traceDone(err)
	return err
}
