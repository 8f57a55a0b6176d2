// The worker loop: regenerate the coordinator's world, lease units,
// execute them through the engine's session and fetcher layers, and
// stream each result back as runstore-framed records.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// Worker-side runtime metric names.
const (
	MetWorkerUnits = "fabric.worker.units_executed"
	MetWorkerWaits = "fabric.worker.waits"
)

// ErrKilled is returned by Worker.Run when the chaos kill hook fires:
// the worker dies mid-shard without reporting its completed unit, so
// the lease expires and the coordinator re-issues the work.
var ErrKilled = errors.New("fabric: worker killed by chaos hook")

// errStalePhase marks a benign race: the phase the worker was chasing
// ended between the lease grant and the spec fetch. The loop re-leases.
var errStalePhase = errors.New("fabric: phase no longer active")

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name identifies this worker in leases and logs.
	Name string
	// Client is the HTTP client for coordinator calls; nil uses
	// http.DefaultClient.
	Client *http.Client
	// Sleep is called with the coordinator-suggested backoff when no
	// work is available; nil never sleeps (tests yield instead).
	Sleep func(time.Duration)
	// Kill, when non-nil, is consulted after every executed unit with
	// the running count; returning true kills the worker with ErrKilled
	// BEFORE the unit's completion is reported — the chaos path that
	// forces a lease expiry and re-issue.
	Kill func(executed int64) bool
	// Metrics, when non-nil, receives worker-side runtime counters.
	Metrics *telemetry.Registry
	// Trace, when non-nil, receives the worker's own runtime-class
	// events (unit executions, the chaos kill) and arms its flight
	// recorder — the worker-local view of a run whose deterministic
	// events ship upstream in completions regardless.
	Trace *trace.Tracer
	// Log, when non-nil, receives worker progress lines.
	Log func(format string, args ...any)
}

// Worker executes leased units against its own regenerated copy of the
// study's world. One Worker is one process's loop; run several
// processes against one coordinator to distribute a study.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	world  *worldgen.World
	net    *proxy.Network

	// Cached phase state: the fabric runs one phase at a time, so one
	// slot suffices.
	phaseID  int
	plan     *scanner.Plan
	traceCtx trace.SpanCtx // the phase's coordinator-issued scan context

	executed int64
}

// NewWorker dials the coordinator, fetches the study spec, and
// regenerates the world (and fault injector, if the study runs a chaos
// profile) the coordinator described. The returned worker holds no
// lease yet; Run drives the loop.
func NewWorker(ctx context.Context, opts WorkerOptions) (*Worker, error) {
	w := &Worker{opts: opts, client: opts.Client}
	if w.client == nil {
		w.client = http.DefaultClient
	}
	var spec StudySpec
	if err := w.getJSON(ctx, PathStudy, &spec); err != nil {
		return nil, fmt.Errorf("fabric: fetching study spec: %w", err)
	}
	w.world = worldgen.Generate(spec.World)
	w.net = proxy.NewNetwork(w.world)
	if f := spec.Faults; f != nil {
		prof, ok := faults.Named(f.Profile)
		if !ok {
			return nil, fmt.Errorf("fabric: study names unknown fault profile %q", f.Profile)
		}
		// The injector stays uninstrumented on workers: fault verdicts are
		// pure functions of (seed, arguments) so every process draws the
		// same faults, but instrumenting them here would stage fault
		// counters into unit snapshots that an in-process run records only
		// once, globally — and the journal bytes would diverge.
		inj := faults.New(f.Seed)
		if f.Country != "" {
			inj.Country(geo.CountryCode(f.Country), prof)
		} else {
			inj.Default(prof)
		}
		w.net.SetFaults(inj)
	}
	w.logf("fabric worker %s: world regenerated (%d top-10k domains)", opts.Name, len(w.world.Top10K()))
	return w, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Log != nil {
		w.opts.Log(format, args...)
	}
}

func (w *Worker) sleep(d time.Duration) {
	if w.opts.Sleep != nil {
		w.opts.Sleep(d)
	}
}

// unitEvent records one worker-local runtime event. The worker's
// tracer is pure observability — deterministic unit events ship
// upstream in completions; this local stream (and the flight ring it
// feeds) is what a dying worker dumps.
func (w *Worker) unitEvent(name string, seq int, outcome string) {
	if w.opts.Trace == nil || !w.traceCtx.Valid() {
		return
	}
	ev := trace.NewEvent(w.traceCtx.Child(name, seq), name)
	ev.Parent = w.traceCtx.Span
	ev.Unit = seq
	ev.Outcome = outcome
	ev.Runtime = true
	_, ev.WallNS = w.opts.Trace.Now()
	ev.Attrs = []trace.Attr{{K: "worker", V: w.opts.Name}}
	w.opts.Trace.Record(ev)
}

// Run leases and executes units until the coordinator reports the
// study done (returns nil), ctx is cancelled, the kill hook fires
// (ErrKilled), or the fabric disagrees with this worker's world — a
// fingerprint mismatch is a hard error, never retried, because it
// means the two processes would journal different bytes.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var grant LeaseGrant
		if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: w.opts.Name, Max: DefaultLeaseBatch}, &grant); err != nil {
			return fmt.Errorf("fabric: leasing: %w", err)
		}
		switch grant.Status {
		case StatusStudyDone:
			w.logf("fabric worker %s: study done after %d units", w.opts.Name, w.executed)
			return nil
		case StatusWait:
			w.opts.Metrics.RuntimeCounter(MetWorkerWaits).Add(1)
			w.sleep(time.Duration(grant.RetryMillis) * time.Millisecond)
			continue
		case StatusUnit:
			if err := w.runBatch(ctx, grant); err != nil {
				if errors.Is(err, errStalePhase) {
					continue
				}
				return err
			}
		default:
			return fmt.Errorf("fabric: coordinator answered unknown lease status %q", grant.Status)
		}
	}
}

// runBatch executes every unit in a grant, in grant order. A stale
// phase mid-batch abandons the rest of the batch (their leases expire
// and the units re-issue — but in practice the phase is gone anyway).
func (w *Worker) runBatch(ctx context.Context, grant LeaseGrant) error {
	rebuilt, err := w.ensurePhase(ctx, grant.Phase)
	if err != nil {
		return err
	}
	if rebuilt && len(grant.Units) > 0 {
		// The plan rebuild may have eaten into the batch's TTLs; refresh
		// the LAST unit's lease — it waits the longest — so the tail of the
		// batch is not re-issued while we are still working the head. A
		// stale answer is fine: completions from expired leases are still
		// accepted, re-runs are deterministic no-ops.
		last := grant.Units[len(grant.Units)-1]
		var ack Ack
		_ = w.postJSON(ctx, PathExtend, ExtendRequest{Worker: w.opts.Name, Phase: grant.Phase, Seq: last.Seq, Lease: last.Lease}, &ack)
	}
	for _, u := range grant.Units {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.runUnit(ctx, grant.Phase, u); err != nil {
			return err
		}
	}
	return nil
}

// runUnit executes one leased unit end to end: fingerprint check,
// engine execution, chaos hook, completion report.
func (w *Worker) runUnit(ctx context.Context, phase int, lease UnitLease) error {
	unit := w.plan.Unit(lease.Seq)
	if unit.Fingerprint != lease.Fingerprint {
		return fmt.Errorf("fabric: unit %d fingerprint mismatch (coordinator %x, worker %x) — the two processes built different worlds", lease.Seq, lease.Fingerprint, unit.Fingerprint)
	}
	if lease.Span != 0 && w.traceCtx.Valid() {
		// Same trust-but-verify posture as the fingerprints: the span the
		// coordinator derived for this unit must equal the one we derive.
		if want := scanner.UnitTraceCtx(w.traceCtx, lease.Seq).Span; want != lease.Span {
			return fmt.Errorf("fabric: unit %d trace span mismatch (coordinator %s, worker %s) — the two processes derive different trace IDs", lease.Seq, lease.Span, want)
		}
	}
	res, err := w.plan.ExecuteUnit(ctx, w.net, lease.Seq)
	if err != nil {
		return err
	}
	w.executed++
	w.opts.Metrics.RuntimeCounter(MetWorkerUnits).Add(1)
	// Mirror the unit's events into the local flight ring, then stamp
	// the execution itself.
	w.opts.Trace.Append(res.Trace)
	w.unitEvent("worker.exec", lease.Seq, "ok")
	if w.opts.Kill != nil && w.opts.Kill(w.executed) {
		// Die before reporting: the unit's lease expires and the
		// coordinator re-issues it to a surviving worker. The flight
		// recorder fires on the way down — the worker-death dump the
		// tentpole promises.
		w.logf("fabric worker %s: chaos kill after unit %d", w.opts.Name, lease.Seq)
		w.unitEvent("worker.kill", lease.Seq, "killed")
		w.opts.Trace.Trigger("worker " + w.opts.Name + " killed by chaos hook")
		return ErrKilled
	}

	// The full staged snapshot and the unit's trace events cross the
	// wire so the coordinator's live registry merge and merged timeline
	// match an in-process run; the journal keeps only its deterministic
	// view.
	pl := unitPayload{Trace: res.Trace, ElapsedNS: int64(res.Elapsed)}
	if res.Metrics != nil {
		pl.Snapshot = *res.Metrics
	}
	mb, err := json.Marshal(pl)
	if err != nil {
		return fmt.Errorf("fabric: encoding unit metrics: %w", err)
	}
	cp := runstore.Checkpoint{
		Seq:     lease.Seq,
		Country: unit.Country,
		Tasks:   unit.Tasks,
		Samples: len(res.Samples),
		Lost:    res.Lost,
		Metrics: mb,
	}
	payload := runstore.EncodeShardFrames(res.Samples, cp)
	q := "?phase=" + strconv.Itoa(phase) +
		"&seq=" + strconv.Itoa(lease.Seq) +
		"&lease=" + strconv.FormatUint(lease.Lease, 10) +
		"&fp=" + strconv.FormatUint(unit.Fingerprint, 10) +
		"&worker=" + w.opts.Name
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+PathComplete+q, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("fabric: reporting unit %d: %w", lease.Seq, err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fabric: coordinator rejected unit %d: %s: %s", lease.Seq, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// ensurePhase rebuilds and caches the plan for phase id, verifying the
// plan fingerprint and unit count against the coordinator's spec. The
// returned bool reports whether a rebuild actually happened (a rebuild
// is the one slow step worth spending a lease extension on).
func (w *Worker) ensurePhase(ctx context.Context, id int) (bool, error) {
	if w.plan != nil && w.phaseID == id {
		return false, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.opts.Coordinator+PathPhase+strconv.Itoa(id), nil)
	if err != nil {
		return false, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("fabric: fetching phase %d spec: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return false, errStalePhase
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("fabric: fetching phase %d spec: %s", id, resp.Status)
	}
	var spec PhaseSpec
	if err := json.NewDecoder(resp.Body).Decode(&spec); err != nil {
		return false, fmt.Errorf("fabric: decoding phase %d spec: %w", id, err)
	}
	cfg := spec.Config.Config()
	// The worker's units tick on its own clock, so the execution time
	// each completion reports — and its staged latencies — are this
	// process's to measure. Never part of the plan fingerprint.
	cfg.Metrics = w.opts.Metrics
	if spec.Trace.Valid() {
		// Pin the coordinator-issued scan context so every unit context
		// (and every event ID) derives identically here and there. The
		// trace fields never enter the plan fingerprint — tracing is
		// output-invariant, like Concurrency. The tracer supplies the
		// unit events' wall clock; set outside this branch it would make
		// an untraced phase stage unit events.
		cfg.TraceCtx = spec.Trace
		cfg.Trace = w.opts.Trace
	}
	plan := scanner.NewPlan(spec.Domains, spec.Countries, spec.Tasks, cfg)
	if got := plan.Fingerprint(); got != spec.Fingerprint {
		return false, fmt.Errorf("fabric: phase %d plan fingerprint mismatch (coordinator %x, worker %x) — the two processes built different plans", id, spec.Fingerprint, got)
	}
	if plan.NumUnits() != spec.Units {
		return false, fmt.Errorf("fabric: phase %d unit count mismatch (coordinator %d, worker %d)", id, spec.Units, plan.NumUnits())
	}
	// Catch the worker's world up to the coordinator's policy clock —
	// the pipeline advances it between phases, and national policies
	// flap with it.
	w.world.AdvanceClock(spec.WorldClock - w.world.Clock())
	w.phaseID, w.plan, w.traceCtx = id, plan, spec.Trace
	w.logf("fabric worker %s: phase %d (%s): plan agreed, %d units", w.opts.Name, id, spec.Phase, spec.Units)
	return true, nil
}

// getJSON GETs path off the coordinator and decodes the JSON answer.
func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.opts.Coordinator+path, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postJSON POSTs a JSON body to path and decodes the JSON answer.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
