// Package fabric is the distributed scan fabric: a coordinator that
// leases the deterministic shard engine's work units to N worker
// processes over HTTP and reassembles their completions into the
// engine's canonical-order output — byte-identical to a single-process
// run, journal included.
//
// The design leans entirely on the engine's determinism contract.
// Shard boundaries, session slots, and per-sample seeds are pure
// functions of the scan inputs, so a unit executes identically on any
// worker, any number of times. That turns every hard distributed-
// systems problem here into bookkeeping: a lost worker is a lease that
// expires and a unit that runs again; a duplicate completion is a
// no-op; and the reorder frontier (scanner.Assembly) guarantees the
// sink — and through the journaling sink, the runstore segment files —
// sees the exact byte stream an in-process run produces.
//
// Lease state machine, per unit:
//
//	pending ──lease──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └──── TTL expiry ──┘  (re-issue; late completes still accepted)
//
// Completions are validated (CRC-framed records, unit fingerprint,
// checkpoint shape) and accepted from expired leases too — the work is
// deterministic, so whoever finishes first wins and everyone else is a
// duplicate.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"geoblock/internal/geo"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// Fabric metric names. All runtime-class: lease traffic depends on
// worker count and timing, never on the scan inputs, and must not
// pollute the deterministic snapshot the matrix byte-compares.
const (
	MetLeases     = "fabric.leases_granted"
	MetWaits      = "fabric.lease_waits"
	MetReissues   = "fabric.lease_reissues"
	MetCompletes  = "fabric.units_completed"
	MetDuplicates = "fabric.duplicate_completes"
	MetStale      = "fabric.stale_lease_completes"
)

// DefaultLeaseTTL bounds how long a worker may sit on a unit before
// the coordinator re-issues it.
const DefaultLeaseTTL = 30 * time.Second

// DefaultRetryMillis is how long a worker is told to wait before
// re-polling when no work is available.
const DefaultRetryMillis = 200

// Options configures a Coordinator.
type Options struct {
	// Study carries the world calibration (and optional fault profile)
	// workers regenerate the coordinator's world from.
	Study StudySpec
	// LeaseTTL is the lease duration. Zero takes DefaultLeaseTTL;
	// negative makes every lease instantly expirable — with a virtual
	// clock, the deterministic way to exercise re-issue without waiting.
	LeaseTTL time.Duration
	// Clock drives lease deadlines. Nil falls back to Metrics.Clock(),
	// then to a virtual clock (tests advance it by hand).
	Clock telemetry.Clock
	// Metrics, when non-nil, receives the fabric's runtime-class lease
	// counters.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the fabric's runtime-class lease
	// events and becomes the default tracer for phases whose config
	// carries none — the merged timeline a 3-process run exports.
	Trace *trace.Tracer
	// Log, when non-nil, receives fabric progress lines.
	Log func(format string, args ...any)
}

// unitState tracks one work unit through the lease state machine.
type unitState struct {
	leased    bool
	lease     uint64
	worker    string
	deadline  time.Time
	completed bool
}

// phaseRun is one scan phase in flight.
type phaseRun struct {
	id        int
	plan      *scanner.Plan
	asm       *scanner.Assembly
	specJSON  []byte
	order     []int // pending unit seqs, canonical order
	units     map[int]*unitState
	remaining int
	done      chan struct{}
	err       error
	// tr/traceCtx/phaseName key the runtime-class lease events the
	// coordinator records for this phase's traffic.
	tr        *trace.Tracer
	traceCtx  trace.SpanCtx
	phaseName string
}

// leaseEvent records one runtime-class protocol event for the phase —
// lease grants, re-issues, completions arriving. Runtime by
// definition: which worker leases which unit when depends entirely on
// scheduling, so these never enter the deterministic view.
func (ph *phaseRun) leaseEvent(name string, seq int, worker, outcome string, wallNS int64) {
	if ph.tr == nil || !ph.traceCtx.Valid() {
		return
	}
	ev := trace.NewEvent(ph.traceCtx.Child(name, seq), name)
	ev.Parent = ph.traceCtx.Span
	ev.Unit = seq
	ev.Phase = ph.phaseName
	ev.Outcome = outcome
	ev.Runtime = true
	ev.WallNS = wallNS
	ev.Attrs = []trace.Attr{{K: "worker", V: worker}}
	ph.tr.Record(ev)
}

// Coordinator owns a study's distribution: it serves the study and
// phase specs, leases units, and folds completions through a
// scanner.Assembly into the caller's sink. One Coordinator serves one
// study; phases run strictly one at a time (RunPhase blocks until its
// phase drains, exactly like the in-process engine call it replaces).
type Coordinator struct {
	opts  Options
	clock telemetry.Clock
	ttl   time.Duration
	world *worldgen.World

	mu        sync.Mutex
	nextLease uint64
	phaseSeq  int
	phase     *phaseRun
	studyDone bool
}

// New builds a coordinator for one study.
func New(opts Options) *Coordinator {
	clock := opts.Clock
	if clock == nil {
		clock = opts.Metrics.Clock()
	}
	if clock == nil {
		clock = telemetry.NewVirtual()
	}
	ttl := opts.LeaseTTL
	if ttl == 0 {
		ttl = DefaultLeaseTTL
	}
	return &Coordinator{opts: opts, clock: clock, ttl: ttl}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log(format, args...)
	}
}

func (c *Coordinator) count(name string) {
	c.opts.Metrics.RuntimeCounter(name).Add(1)
}

// RunPhase executes one scan phase through the fabric: it builds the
// plan and assembly, publishes the phase to workers, and blocks until
// every unit has been leased, executed, and reassembled — or ctx is
// cancelled. The signature matches the engine seam the pipeline's
// scanStream drives (and composes with runstore resume: cfg.Resume's
// prefix is never leased).
func (c *Coordinator) RunPhase(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error {
	wire, err := NewConfigWire(cfg)
	if err != nil {
		return err
	}
	if cfg.Trace == nil && c.opts.Trace != nil {
		// The coordinator's tracer backs phases that arrived untraced, so
		// `lumscan -serve-fabric -trace` captures the whole study without
		// the caller threading a tracer through every phase config.
		cfg.Trace = c.opts.Trace
	}
	plan := scanner.NewPlan(domains, countries, tasks, cfg)
	asm, err := scanner.NewAssembly(plan, sink)
	if err != nil {
		return err
	}
	pending := asm.Pending()
	if len(pending) == 0 {
		// Fully resumed (or empty) phase: nothing to distribute, just the
		// engine's end-of-run accounting.
		return asm.Finish()
	}

	c.mu.Lock()
	if c.phase != nil {
		c.mu.Unlock()
		return fmt.Errorf("fabric: phase %q started while phase %d still running", cfg.Phase, c.phase.id)
	}
	if c.studyDone {
		c.mu.Unlock()
		return fmt.Errorf("fabric: phase %q started after FinishStudy", cfg.Phase)
	}
	c.phaseSeq++
	ph := &phaseRun{
		id:        c.phaseSeq,
		plan:      plan,
		asm:       asm,
		order:     pending,
		units:     make(map[int]*unitState, len(pending)),
		remaining: len(pending),
		done:      make(chan struct{}),
	}
	for _, seq := range pending {
		ph.units[seq] = &unitState{}
	}
	ph.tr = cfg.Trace
	ph.traceCtx = scanner.ScanTraceCtx(cfg)
	ph.phaseName = cfg.Phase
	spec := PhaseSpec{
		ID:          ph.id,
		Phase:       cfg.Phase,
		Domains:     domains,
		Countries:   countries,
		Tasks:       tasks,
		Config:      wire,
		Fingerprint: plan.Fingerprint(),
		Units:       plan.NumUnits(),
		Trace:       ph.traceCtx,
	}
	if c.world != nil {
		spec.WorldClock = c.world.Clock()
	}
	ph.specJSON, err = json.Marshal(spec)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.phase = ph
	c.mu.Unlock()
	c.logf("fabric: phase %d (%s): %d units pending (%d resumed)", ph.id, cfg.Phase, len(pending), plan.NumUnits()-len(pending))

	select {
	case <-ph.done:
	case <-ctx.Done():
		c.mu.Lock()
		c.phase = nil
		c.mu.Unlock()
		asm.Abort()
		return ctx.Err()
	}
	c.mu.Lock()
	c.phase = nil
	c.mu.Unlock()
	return ph.err
}

// BindWorld attaches the study's live world, so each phase spec can
// carry the world's policy clock at phase start (the pipeline advances
// it between phases, and workers must observe the same policies).
// geoblock.New calls this when Options.Fabric is set.
func (c *Coordinator) BindWorld(w *worldgen.World) {
	c.mu.Lock()
	c.world = w
	c.mu.Unlock()
}

// FinishStudy tells workers the study is over: subsequent lease
// requests answer StatusStudyDone and workers exit cleanly.
func (c *Coordinator) FinishStudy() {
	c.mu.Lock()
	c.studyDone = true
	c.mu.Unlock()
	c.logf("fabric: study finished")
}

// Handler serves the fabric protocol.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathStudy, c.handleStudy)
	mux.HandleFunc(PathPhase, c.handlePhase)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathExtend, c.handleExtend)
	mux.HandleFunc(PathComplete, c.handleComplete)
	return mux
}

// Request body caps. Lease and extend requests are a few small JSON
// fields. A completion is one shard's framed journal records, sized by
// the journal's own per-record bound (runstore.MaxShardPayload).
const (
	maxControlBody  = 64 << 10
	maxCompleteBody = runstore.MaxShardPayload
)

// readBody reads r's body if it is at most limit bytes. It answers 413
// for a larger body, whether its Content-Length announces the size or
// the read runs past the cap, and 400 for a body it cannot read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	if r.ContentLength > limit {
		http.Error(w, fmt.Sprintf("fabric: %s body of %d bytes exceeds %d", what, r.ContentLength, limit), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("fabric: %s body exceeds %d bytes", what, limit), http.StatusRequestEntityTooLarge)
		return nil, false
	case err != nil:
		http.Error(w, "fabric: reading "+what+": "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleStudy(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.opts.Study)
}

func (c *Coordinator) handlePhase(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Path[len(PathPhase):])
	if err != nil {
		http.Error(w, "fabric: bad phase id", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	ph := c.phase
	c.mu.Unlock()
	if ph == nil || ph.id != id {
		http.Error(w, fmt.Sprintf("fabric: phase %d is not active", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(ph.specJSON)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxControlBody, "lease request")
	if !ok {
		return
	}
	var req LeaseRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "fabric: bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.phase
	if ph == nil || ph.remaining == 0 {
		if c.studyDone {
			writeJSON(w, LeaseGrant{Status: StatusStudyDone})
			return
		}
		c.count(MetWaits)
		writeJSON(w, LeaseGrant{Status: StatusWait, RetryMillis: DefaultRetryMillis})
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	if max > MaxLeaseBatch {
		max = MaxLeaseBatch
	}
	// Pick candidates BEFORE touching any lease state: units never
	// leased first, then expired leases — both in canonical
	// (lowest-seq-first) order, which keeps the reorder frontier short so
	// completed samples stream out instead of piling up in the buffer.
	// The two passes must finish before any grant mutates state: with an
	// instantly-expirable TTL (LeaseTTL < 0, the deterministic re-issue
	// test mode) a grant made by this very request would otherwise look
	// expired to the second pass and hand the same unit out twice.
	picks := make([]int, 0, max)
	for _, seq := range ph.order {
		u := ph.units[seq]
		if !u.completed && !u.leased {
			picks = append(picks, seq)
			if len(picks) == max {
				break
			}
		}
	}
	expiredFrom := len(picks)
	if len(picks) < max {
		for _, seq := range ph.order {
			u := ph.units[seq]
			if u.completed || !u.leased || now.Before(u.deadline) {
				continue
			}
			picks = append(picks, seq)
			if len(picks) == max {
				break
			}
		}
	}
	if len(picks) == 0 {
		c.count(MetWaits)
		writeJSON(w, LeaseGrant{Status: StatusWait, RetryMillis: DefaultRetryMillis})
		return
	}
	units := make([]UnitLease, 0, len(picks))
	var wallNS int64
	if ph.tr != nil {
		_, wallNS = ph.tr.Now()
	}
	for i, seq := range picks {
		u := ph.units[seq]
		outcome := "granted"
		if i >= expiredFrom {
			c.count(MetReissues)
			c.logf("fabric: phase %d unit %d lease expired (worker %s); re-issuing", ph.id, seq, u.worker)
			outcome = "reissued"
		}
		c.nextLease++
		u.leased, u.lease, u.worker = true, c.nextLease, req.Worker
		u.deadline = now.Add(c.ttl)
		c.count(MetLeases)
		ph.leaseEvent("lease", seq, req.Worker, outcome, wallNS)
		units = append(units, UnitLease{
			Seq:         seq,
			Lease:       u.lease,
			Fingerprint: ph.plan.Unit(seq).Fingerprint,
			Span:        scanner.UnitTraceCtx(ph.traceCtx, seq).Span,
		})
	}
	writeJSON(w, LeaseGrant{
		Status:    StatusUnit,
		Phase:     ph.id,
		Units:     units,
		TTLMillis: c.ttl.Milliseconds(),
	})
}

func (c *Coordinator) handleExtend(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxControlBody, "extend request")
	if !ok {
		return
	}
	var req ExtendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "fabric: bad extend request: "+err.Error(), http.StatusBadRequest)
		return
	}
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.phase
	if ph == nil || ph.id != req.Phase {
		writeJSON(w, Ack{OK: false, Status: "stale-phase"})
		return
	}
	u := ph.units[req.Seq]
	if u == nil || !u.leased || u.lease != req.Lease || u.completed {
		writeJSON(w, Ack{OK: false, Status: "stale-lease"})
		return
	}
	u.deadline = now.Add(c.ttl)
	writeJSON(w, Ack{OK: true})
}

// handleComplete accepts one executed unit: CRC-framed sample and
// checkpoint records in the body, identity in the query string. The
// unit folds through the Assembly under the coordinator lock, so sink
// delivery (and journaling) stays strictly serialized.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	phaseID, err1 := strconv.Atoi(q.Get("phase"))
	seq, err2 := strconv.Atoi(q.Get("seq"))
	lease, err3 := strconv.ParseUint(q.Get("lease"), 10, 64)
	fp, err4 := strconv.ParseUint(q.Get("fp"), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		http.Error(w, "fabric: bad complete parameters", http.StatusBadRequest)
		return
	}
	body, ok := readBody(w, r, maxCompleteBody, "completion")
	if !ok {
		return
	}
	samples, cp, err := runstore.DecodeShardFrames(body)
	if err != nil {
		http.Error(w, "fabric: rejecting completion: "+err.Error(), http.StatusBadRequest)
		return
	}
	if cp.Seq != seq {
		http.Error(w, fmt.Sprintf("fabric: checkpoint seq %d does not match completion seq %d", cp.Seq, seq), http.StatusBadRequest)
		return
	}
	res := scanner.UnitResult{Samples: samples, Lost: cp.Lost}
	if len(cp.Metrics) > 0 {
		// The wire payload is the staged snapshot plus the unit's trace
		// events (see unitPayload) — transport only, never journaled.
		var pl unitPayload
		if err := json.Unmarshal(cp.Metrics, &pl); err != nil {
			http.Error(w, "fabric: bad completion metrics: "+err.Error(), http.StatusBadRequest)
			return
		}
		res.Metrics = &pl.Snapshot
		res.Trace = pl.Trace
		res.Elapsed = time.Duration(pl.ElapsedNS)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	ph := c.phase
	if ph == nil || ph.id != phaseID {
		writeJSON(w, Ack{OK: false, Status: "stale-phase"})
		return
	}
	u := ph.units[seq]
	if u == nil {
		http.Error(w, fmt.Sprintf("fabric: unit %d is not pending in phase %d", seq, phaseID), http.StatusBadRequest)
		return
	}
	if want := ph.plan.Unit(seq).Fingerprint; want != fp {
		http.Error(w, fmt.Sprintf("fabric: unit %d fingerprint %x does not match plan's %x — worker built a different world", seq, fp, want), http.StatusConflict)
		return
	}
	var wallNS int64
	if ph.tr != nil {
		_, wallNS = ph.tr.Now()
	}
	worker := q.Get("worker")
	if u.completed {
		// Deterministic work: a re-issued unit's second completion is
		// byte-identical to the first, so dropping it loses nothing.
		c.count(MetDuplicates)
		ph.leaseEvent("unit.complete", seq, worker, "duplicate", wallNS)
		writeJSON(w, Ack{OK: true, Status: "duplicate"})
		return
	}
	if !u.leased || u.lease != lease {
		// The lease expired and was re-issued, but this worker finished
		// anyway. The result is just as valid — first completion wins.
		c.count(MetStale)
		ph.leaseEvent("unit.complete", seq, worker, "stale-lease", wallNS)
	} else {
		ph.leaseEvent("unit.complete", seq, worker, "ok", wallNS)
	}
	if err := ph.asm.Complete(seq, res); err != nil {
		http.Error(w, "fabric: "+err.Error(), http.StatusConflict)
		return
	}
	u.completed = true
	ph.remaining--
	c.count(MetCompletes)
	if ph.remaining == 0 {
		ph.err = ph.asm.Finish()
		close(ph.done)
	}
	writeJSON(w, Ack{OK: true})
}
