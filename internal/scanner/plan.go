// The plan layer: explicit, serializable work units over the
// deterministic shard construction, plus an Assembly that folds
// out-of-order unit completions back into the engine's canonical-order
// output stream.
//
// scanner.Run is the single-process composition of these pieces —
// NewPlan, NewAssembly, and the in-process pool — and the distributed
// fabric (internal/fabric) is the multi-process one. Both produce
// byte-identical output because they share the shard boundaries, the
// sticky-session slots, the per-unit executor, the reorder frontier,
// and the outage accounting — a unit executes identically no matter
// which process runs it, or how many times.
package scanner

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// WorkUnit is the leasable coordinate of one scheduler shard: which
// country chunk it is, where it sits in canonical order, and a
// fingerprint binding it to the exact tasks and sampling parameters it
// was built from. The unit deliberately carries no task payload — every
// party rebuilds the same Plan from the same inputs, and the
// fingerprint proves they agree before any work is leased.
type WorkUnit struct {
	Seq     int    `json:"seq"`
	Country string `json:"country"`
	Phase   string `json:"phase"`
	// Index is the chunk index within the country.
	Index int `json:"index"`
	// Slot is the sticky-session slot, a pure function of
	// (country, phase, index).
	Slot uint64 `json:"slot"`
	// Tasks is the unit's task count.
	Tasks int `json:"tasks"`
	// Fingerprint digests the unit's identity: country, phase, chunk,
	// slot, sampling parameters, and every task's domain string.
	Fingerprint uint64 `json:"fingerprint"`
}

// UnitResult is one executed unit: the shard's samples in task order,
// its loss reason, and the full snapshot of the metrics its session
// and fetch work staged (nil when the plan carries no registry and the
// executor was asked not to stage).
type UnitResult struct {
	Samples []Sample
	Lost    OutageReason
	Metrics *telemetry.Snapshot
	// Trace holds the unit's staged wide events when tracing was on —
	// shipped back in fabric completions and appended at the assembly's
	// canonical emission point, same as an in-process shard's.
	Trace []trace.Event
	// Elapsed is the unit's execution time on its executor's registry
	// clock; the assembly credits it to the unit's country span.
	Elapsed time.Duration
}

// Plan is the deterministic decomposition of one scan into work units.
// Two plans built from the same (domains, countries, tasks, cfg) are
// identical — same shard boundaries, same slots, same fingerprints —
// which is what lets a coordinator and its workers each build their own
// copy and agree unit-by-unit.
type Plan struct {
	domains   []string
	countries []geo.CountryCode
	cfg       Config
	pol       RetryPolicy
	shards    []*shard
}

// NewPlan decomposes one scan into its canonical work units: country-
// major grouping, deterministic chunking, and per-chunk session slots —
// the determinism anchor Run and the fabric share. cfg is normalized
// once here, so a Plan built from a wire config and one built
// in-process agree.
func NewPlan(domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	return &Plan{
		domains:   domains,
		countries: countries,
		cfg:       cfg,
		pol:       cfg.retryPolicy(),
		shards: buildShards(tasks, len(countries), cfg.ShardSize, func(group int16, index int) uint64 {
			return shardSlot(string(countries[group]), cfg.Phase, index)
		}),
	}
}

// NumUnits returns the number of work units in the plan.
func (p *Plan) NumUnits() int { return len(p.shards) }

// Unit returns the seq-th work unit.
func (p *Plan) Unit(seq int) WorkUnit {
	sh := p.shards[seq]
	return WorkUnit{
		Seq:         sh.seq,
		Country:     string(p.countries[sh.group]),
		Phase:       p.cfg.Phase,
		Index:       sh.index,
		Slot:        sh.slot,
		Tasks:       len(sh.tasks),
		Fingerprint: p.unitFingerprint(sh),
	}
}

// Units materializes every work unit in canonical order.
func (p *Plan) Units() []WorkUnit {
	out := make([]WorkUnit, len(p.shards))
	for i := range p.shards {
		out[i] = p.Unit(i)
	}
	return out
}

// unitFingerprint digests one shard's identity, folding in the task
// contents (domain strings and country indices) and the sampling
// parameters that shape its output.
func (p *Plan) unitFingerprint(sh *shard) uint64 {
	h := stats.FNV1a("geoblock-unit")
	h = stats.Mix64(h ^ stats.FNV1a(string(p.countries[sh.group])))
	h = stats.Mix64(h ^ stats.FNV1a(p.cfg.Phase))
	h = stats.Mix64(h ^ uint64(sh.index)<<1 ^ sh.slot)
	h = stats.Mix64(h ^ uint64(p.cfg.Samples)<<8 ^ uint64(p.cfg.Retries)<<16)
	for _, t := range sh.tasks {
		h = stats.Mix64(h ^ stats.FNV1a(p.domains[t.Domain]) ^ uint64(uint16(t.Country))<<32)
	}
	return h
}

// Fingerprint digests the whole plan: every unit fingerprint plus the
// wire-visible config knobs (never Concurrency — that is free to vary).
// A coordinator and a worker whose plan fingerprints agree will agree
// on every unit.
func (p *Plan) Fingerprint() uint64 {
	h := stats.FNV1a("geoblock-plan")
	h = stats.Mix64(h ^ uint64(len(p.domains)) ^ uint64(len(p.countries))<<20)
	h = stats.Mix64(h ^ uint64(p.cfg.ShardSize) ^ uint64(p.cfg.RequestsPerExit)<<16 ^ uint64(p.cfg.MaxRedirects)<<32)
	h = stats.Mix64(h ^ uint64(p.cfg.Bodies)<<4)
	if p.cfg.VerifyConnectivity {
		h = stats.Mix64(h ^ 1)
	}
	keys := make([]string, 0, len(p.cfg.Headers))
	for k := range p.cfg.Headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h = stats.Mix64(h ^ stats.FNV1a(k) ^ stats.FNV1a(p.cfg.Headers[k])<<1)
	}
	for _, sh := range p.shards {
		h = stats.Mix64(h ^ p.unitFingerprint(sh))
	}
	return h
}

// shardScan runs one shard's tasks through a vantage point, staging
// its trace events in tb, and reports why (if at all) they were lost:
// the residential mesh's session loop, or the VPS fleet's bare fetches.
type shardScan func(ctx context.Context, sh *shard, cfg Config, tb *trace.Buffer) ([]Sample, OutageReason)

// meshScan is the residential-mesh shardScan over net.
func (p *Plan) meshScan(net *proxy.Network) shardScan {
	return func(ctx context.Context, sh *shard, cfg Config, tb *trace.Buffer) ([]Sample, OutageReason) {
		return scanShard(ctx, net, p.domains, p.countries, sh, cfg, p.pol, tb)
	}
}

// execute is the one per-unit path, in process and on the fabric: it
// runs the seq-th unit through scan, recording the unit's session and
// fetch metrics into reg (the plan's registry, or a shard-local staging
// one) and timing the unit on reg's clock. Execution never mutates the
// plan. A cancelled context returns ctx.Err() and no result — a partial
// shard must never be reported as complete.
func (p *Plan) execute(ctx context.Context, seq int, reg *telemetry.Registry, scan shardScan) (UnitResult, error) {
	cfg := p.cfg
	cfg.Metrics = reg
	start := reg.Now()
	tb := unitBuffer(ScanTraceCtx(p.cfg), seq, p.cfg)
	out, lost := scan(ctx, p.shards[seq], cfg, tb)
	if err := ctx.Err(); err != nil {
		return UnitResult{}, err
	}
	return UnitResult{Samples: out, Lost: lost, Trace: tb.Events(), Elapsed: reg.Now().Sub(start)}, nil
}

// ExecuteUnit runs one unit through the session and fetcher layers
// against net, staging its metrics in a fresh shard-local registry.
// A unit can run any number of times (a re-issued lease after a worker
// death, say) with identical results. A cancelled context returns
// ctx.Err() and no result.
func (p *Plan) ExecuteUnit(ctx context.Context, net *proxy.Network, seq int) (UnitResult, error) {
	if seq < 0 || seq >= len(p.shards) {
		return UnitResult{}, fmt.Errorf("scanner: unit %d outside plan of %d units", seq, len(p.shards))
	}
	staging := telemetry.NewWithClock(p.cfg.Metrics.Clock())
	res, err := p.execute(ctx, seq, staging, p.meshScan(net))
	if err != nil {
		return UnitResult{}, err
	}
	res.Metrics = staging.Snapshot()
	return res, nil
}

// Assembly reassembles unit completions — arriving in any order, from
// any number of executors — into the engine's canonical-order sink
// stream. It is the one place that credits the resumed prefix, opens
// and tallies the country spans, counts scheduled and done shards,
// holds the reorder frontier, and runs the outage and coverage tail,
// for the in-process pool (Run, RunVPS) and the fabric alike.
// Completions are accepted under one lock that also serializes
// emission, so the sink sees strictly sequential canonical-order
// delivery, exactly as the engine's determinism contract promises.
type Assembly struct {
	plan *Plan
	sink Sink
	sp   *telemetry.Span
	skip int

	mu   sync.Mutex
	done []bool // done[seq]: pending unit seq has been folded in
	next int    // the reorder frontier: units emitted so far
	// wake, on mu, wakes the in-process pool's workers waiting on the
	// reorder window (see run) when the frontier advances.
	wake *sync.Cond
	// stop, when closed, ends emission at the next shard boundary: the
	// in-process pool sets it to its ctx.Done(), so a cancelled scan
	// leaves the sink a prefix of whole shards and delivers no buffered
	// shard after the cancellation.
	stop     <-chan struct{}
	finished bool
}

// NewAssembly prepares the reassembly for one scan: it validates and
// credits the resumed prefix (cfg.Resume), opens the scan span, and
// parks the reorder frontier past the skipped units.
func NewAssembly(p *Plan, sink Sink) (*Assembly, error) {
	skip, err := resumePrefix(p.cfg, p.shards)
	if err != nil {
		return nil, err
	}
	sp := startScanSpan(p.cfg)
	// Restore the per-shard accounting a live run of the skipped prefix
	// would have produced: one country-span activation with its outcome
	// per shard, plus the shards-done counter. The prefix's samples and
	// session/fetch metrics are restored separately by the journal's
	// replay (see internal/runstore), keeping the deterministic
	// telemetry view identical to an uninterrupted run.
	for _, sh := range p.shards[:skip] {
		sp.Record(p.country(sh), sh.lost.outcome(), 0)
	}
	if skip > 0 {
		p.cfg.Metrics.Counter(MetShardsDone).Add(int64(skip))
	}
	if len(p.shards) > 0 {
		p.cfg.Metrics.Counter(MetShardsScheduled).Add(int64(len(p.shards)))
	}
	a := &Assembly{plan: p, sink: sink, sp: sp, skip: skip, done: make([]bool, len(p.shards)), next: skip}
	a.wake = sync.NewCond(&a.mu)
	return a, nil
}

// Pending lists the unit sequence numbers still to execute, in
// canonical order (the resumed prefix is excluded).
func (a *Assembly) Pending() []int {
	out := make([]int, 0, len(a.plan.shards)-a.skip)
	for i := a.skip; i < len(a.plan.shards); i++ {
		out = append(out, i)
	}
	return out
}

// Complete folds one executed unit into the assembly. Safe to call from
// any goroutine; duplicate and out-of-range completions error without
// disturbing the stream.
func (a *Assembly) Complete(seq int, res UnitResult) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return fmt.Errorf("scanner: completion of unit %d after assembly finished", seq)
	}
	if seq < a.skip || seq >= len(a.plan.shards) {
		return fmt.Errorf("scanner: completion of unit %d outside pending range %d..%d", seq, a.skip, len(a.plan.shards)-1)
	}
	if a.done[seq] {
		return fmt.Errorf("scanner: duplicate completion of unit %d", seq)
	}
	var staging *telemetry.Registry
	if res.Metrics != nil && a.plan.cfg.Metrics != nil {
		// Rehydrate the unit's staged metrics into a shard-local registry
		// so the merge-at-emission and ShardDone.Metrics bytes match an
		// in-process run exactly.
		staging = telemetry.NewWithClock(a.plan.cfg.Metrics.Clock())
		staging.Merge(res.Metrics)
	}
	a.foldLocked(seq, res, staging)
	return nil
}

// Done reports whether every unit has been emitted.
func (a *Assembly) Done() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next == len(a.plan.shards)
}

// Finish closes the scan span and runs the end-of-run outage and
// coverage accounting. It errors if units are still outstanding.
func (a *Assembly) Finish() error { return a.finish(true) }

// finish is Finish, with the outage and coverage accounting only when
// outages is set: a VPS scan has no session layer, so its units are
// never lost and it reports no outages or coverage.
func (a *Assembly) finish(outages bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return fmt.Errorf("scanner: assembly finished twice")
	}
	if a.next != len(a.plan.shards) {
		return fmt.Errorf("scanner: assembly finished with %d of %d units outstanding", len(a.plan.shards)-a.next, len(a.plan.shards))
	}
	a.finished = true
	a.sp.End()
	cfg := a.plan.cfg
	if !outages {
		recordScanTail(cfg.Trace, ScanTraceCtx(cfg), cfg.Phase, nil, len(a.plan.shards))
		return nil
	}
	lost, cov := accountOutages(a.plan.shards, a.plan.countries)
	countOutages(cfg.Metrics, lost, cov)
	recordScanTail(cfg.Trace, ScanTraceCtx(cfg), cfg.Phase, lost, len(a.plan.shards))
	if os, ok := a.sink.(OutageSink); ok {
		for _, o := range lost {
			os.EmitOutage(o)
		}
		os.EmitCoverage(cov)
	}
	return nil
}

// Abort closes the scan span without the end-of-run accounting — the
// cancellation path.
func (a *Assembly) Abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finished {
		return
	}
	a.finished = true
	a.sp.End()
}

// country names a shard's group: its country code, or the VPS's.
func (p *Plan) country(sh *shard) string { return string(p.countries[sh.group]) }

// startScanSpan opens the engine's "scan/<phase>" span, nesting under
// cfg.Span when the pipeline provided its phase span as parent.
func startScanSpan(cfg Config) *telemetry.Span {
	name := "scan/" + cfg.Phase
	if cfg.Span != nil {
		return cfg.Span.StartSpan(name)
	}
	return cfg.Metrics.StartSpan(name)
}

// resumePrefix validates cfg.Resume against the freshly built shard
// set and stamps the restored loss records onto the skipped prefix, so
// the end-of-run outage and coverage accounting — which walks all
// shards — reproduces the uninterrupted run's records exactly.
func resumePrefix(cfg Config, shards []*shard) (int, error) {
	r := cfg.Resume
	if r == nil {
		return 0, nil
	}
	if r.Shards < 0 || r.Shards > len(shards) {
		return 0, fmt.Errorf("scanner: resume prefix of %d shards outside 0..%d", r.Shards, len(shards))
	}
	if len(r.Lost) != r.Shards {
		return 0, fmt.Errorf("scanner: resume carries %d loss records for %d shards", len(r.Lost), r.Shards)
	}
	for i := 0; i < r.Shards; i++ {
		shards[i].lost = r.Lost[i]
	}
	return r.Shards, nil
}

// countOutages mirrors the outage accounting into the registry.
func countOutages(reg *telemetry.Registry, outages []Outage, cov Coverage) {
	if reg == nil {
		return
	}
	for _, o := range outages {
		reg.Counter(telemetry.Label(MetOutages, "reason", o.Reason.String())).Add(1)
	}
	reg.Counter(MetOutagesTotal).Add(int64(len(outages)))
	reg.Counter(MetCovRequested).Add(int64(cov.Requested))
	reg.Counter(MetCovAttained).Add(int64(cov.Attained))
	reg.Counter(MetCovTasksLost).Add(int64(cov.TasksLost))
}

// accountOutages folds per-shard loss records into per-country Outage
// entries (scan order) and the run's Coverage summary. It runs after
// every unit has been emitted, under the assembly lock, so the sink's
// no-locking contract is untouched.
func accountOutages(shards []*shard, countries []geo.CountryCode) ([]Outage, Coverage) {
	type tally struct {
		total, lost, tasks int
		byReason           [OutageDark + 1]int
	}
	tallies := make([]tally, len(countries))
	requested := make([]bool, len(countries))
	for _, sh := range shards {
		t := &tallies[sh.group]
		t.total++
		requested[sh.group] = true
		if sh.lost != OutageNone {
			t.lost++
			t.tasks += len(sh.tasks)
			t.byReason[sh.lost]++
		}
	}

	var outages []Outage
	var cov Coverage
	for g, t := range tallies {
		if !requested[g] {
			continue
		}
		cov.Requested++
		if t.lost == 0 {
			cov.Attained++
			continue
		}
		reason := OutageNoExits
		for r := OutageNoExits; r <= OutageDark; r++ {
			if t.byReason[r] > t.byReason[reason] {
				reason = r
			}
		}
		outages = append(outages, Outage{
			Country:     countries[g],
			Reason:      reason,
			Shards:      t.lost,
			ShardsTotal: t.total,
			Tasks:       t.tasks,
		})
		cov.TasksLost += t.tasks
		if t.lost == t.total {
			cov.Lost = append(cov.Lost, countries[g])
		} else {
			cov.Attained++
		}
	}
	return outages, cov
}
