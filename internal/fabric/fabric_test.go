package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/worldgen"
)

var (
	testWorld = worldgen.Generate(worldgen.TestConfig())
	testNet   = proxy.NewNetwork(testWorld)
)

// yield is the test worker's Sleep hook: no wall-clock waiting, just a
// scheduler yield so the poll loop stays deterministic-friendly.
func yield(time.Duration) { runtime.Gosched() }

// fabricInputs is a scan small enough to run in every matrix cell but
// large enough to shard across several units per country.
func fabricInputs() ([]string, []geo.CountryCode, []scanner.Task, scanner.Config) {
	var domains []string
	for _, d := range testWorld.Top10K()[:30] {
		domains = append(domains, d.Name)
	}
	countries := []geo.CountryCode{"US", "DE", "IR", "SY", "BR"}
	tasks := scanner.CrossProduct(len(domains), len(countries))
	cfg := scanner.Config{
		Samples:            2,
		Retries:            2,
		RequestsPerExit:    10,
		MaxRedirects:       10,
		ShardSize:          8,
		Headers:            scanner.BrowserHeaders(),
		Phase:              "initial",
		VerifyConnectivity: true,
	}
	return domains, countries, tasks, cfg
}

// runReference runs the phase through the in-process engine at the
// given concurrency.
func runReference(t *testing.T, concurrency int) (*scanner.Collect, string) {
	t.Helper()
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New()
	cfg.Metrics = reg
	cfg.Concurrency = concurrency
	col := &scanner.Collect{}
	if err := scanner.Run(context.Background(), testNet, domains, countries, tasks, cfg, col); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return col, reg.Snapshot().Deterministic().Text()
}

// runFabric runs the same phase through a coordinator and nWorkers
// workers. When kill is set, one extra worker executes a unit, dies via
// the WorkerDeath chaos hook before reporting it, and the survivors
// pick up its expired lease.
func runFabric(t *testing.T, nWorkers int, kill bool) (*scanner.Collect, string) {
	t.Helper()
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New()
	cfg.Metrics = reg
	coord := New(Options{
		Study:    StudySpec{World: worldgen.TestConfig()},
		LeaseTTL: -1, // every lease instantly re-issuable: no waiting on wall clocks
		Metrics:  reg,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	col := &scanner.Collect{}
	var wg sync.WaitGroup
	phaseErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, col)
	}()

	if kill {
		// The victim runs synchronously: it leases a unit, executes it,
		// and dies before reporting — deterministically, before any
		// survivor is started.
		victim, err := NewWorker(ctx, WorkerOptions{
			Coordinator: srv.URL, Name: "victim", Sleep: yield,
			Kill: faults.New(7).WorkerDeath(1),
		})
		if err != nil {
			t.Fatalf("victim worker: %v", err)
		}
		if err := victim.Run(ctx); !errors.Is(err, ErrKilled) {
			t.Fatalf("victim died with %v, want ErrKilled", err)
		}
	}

	workerErrs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(ctx, WorkerOptions{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("w%d", i),
				Sleep:       yield,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	if err := <-phaseErr; err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return col, reg.Snapshot().Deterministic().Text()
}

// TestFabricByteIdentity is the core guarantee: the fabric's merged
// output — samples, outages, coverage, deterministic telemetry — is
// identical to the in-process engine's, at any worker count, at any
// reference concurrency, and across a worker death mid-shard.
func TestFabricByteIdentity(t *testing.T) {
	refCol, refSnap := runReference(t, 1)
	for _, conc := range []int{4, 32} {
		col, snap := runReference(t, conc)
		if !reflect.DeepEqual(col, refCol) || snap != refSnap {
			t.Fatalf("in-process run at concurrency %d diverges from concurrency 1", conc)
		}
	}
	for _, tc := range []struct {
		workers int
		kill    bool
	}{{1, false}, {2, true}, {4, true}} {
		col, snap := runFabric(t, tc.workers, tc.kill)
		if !reflect.DeepEqual(col.Samples, refCol.Samples) {
			t.Fatalf("workers=%d kill=%v: samples diverge (%d vs %d)", tc.workers, tc.kill, len(col.Samples), len(refCol.Samples))
		}
		if !reflect.DeepEqual(col.Outages, refCol.Outages) {
			t.Fatalf("workers=%d kill=%v: outages diverge", tc.workers, tc.kill)
		}
		if !reflect.DeepEqual(col.Coverage, refCol.Coverage) {
			t.Fatalf("workers=%d kill=%v: coverage diverges", tc.workers, tc.kill)
		}
		if snap != refSnap {
			t.Fatalf("workers=%d kill=%v: deterministic snapshots diverge:\n%s\n---\n%s", tc.workers, tc.kill, snap, refSnap)
		}
	}
}

// TestLeaseLifecycle drives the lease state machine by hand: grants
// hand out distinct units in canonical order, extends refresh
// deadlines, expiry re-issues, and stale leases are refused.
func TestLeaseLifecycle(t *testing.T) {
	domains, countries, tasks, cfg := fabricInputs()
	clock := telemetry.NewVirtual()
	coord := New(Options{
		Study:    StudySpec{World: worldgen.TestConfig()},
		LeaseTTL: 10 * time.Second,
		Clock:    clock,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	phaseErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, &scanner.Collect{})
	}()

	// A bare client for protocol-level poking. Max 1 keeps the
	// state-machine walk single-step; the batch shape gets its own
	// assertions below.
	w := &Worker{opts: WorkerOptions{Coordinator: srv.URL, Name: "probe"}, client: http.DefaultClient}
	lease := func(max int) LeaseGrant {
		t.Helper()
		var g LeaseGrant
		// The phase installs asynchronously; wait for the first grant.
		for {
			if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: "probe", Max: max}, &g); err != nil {
				t.Fatalf("lease: %v", err)
			}
			if g.Status != StatusWait {
				return g
			}
			runtime.Gosched()
		}
	}

	g0 := lease(1)
	if g0.Status != StatusUnit || len(g0.Units) != 1 || g0.Units[0].Seq != 0 {
		t.Fatalf("first grant = %+v, want exactly unit 0", g0)
	}
	u0 := g0.Units[0]
	// A batched request takes the next units in canonical order, each
	// under its own fresh lease ID.
	gb := lease(3)
	if len(gb.Units) != 3 {
		t.Fatalf("batch grant = %+v, want 3 units", gb)
	}
	for i, u := range gb.Units {
		if u.Seq != i+1 {
			t.Fatalf("batch grant unit %d = %+v, want seq %d", i, u, i+1)
		}
		if u.Lease == u0.Lease || (i > 0 && u.Lease == gb.Units[i-1].Lease) {
			t.Fatalf("batch grant reused a lease ID: %+v", gb.Units)
		}
	}
	// Exhaust the never-leased pool; with every unit leased and live,
	// the coordinator must answer wait, not double-lease — even for an
	// oversized batch request.
	numUnits := scanner.NewPlan(domains, countries, tasks, cfg).NumUnits()
	for i := 4; i < numUnits; i++ {
		if g := lease(1); len(g.Units) != 1 || g.Units[0].Seq != i {
			t.Fatalf("grant %d = %+v, want unit %d", i, g, i)
		}
	}
	var gw LeaseGrant
	if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: "probe", Max: DefaultLeaseBatch}, &gw); err != nil || gw.Status != StatusWait {
		t.Fatalf("fully-leased phase answered %+v, want wait", gw)
	}

	var ack Ack
	if err := w.postJSON(ctx, PathExtend, ExtendRequest{Worker: "probe", Phase: g0.Phase, Seq: u0.Seq, Lease: u0.Lease}, &ack); err != nil || !ack.OK {
		t.Fatalf("extend live lease: err=%v ack=%+v", err, ack)
	}

	// Expire every lease; the next grant must re-issue unit 0 under a
	// new lease ID, and the old lease must no longer extend.
	clock.Advance(time.Minute)
	g0b := lease(1)
	if len(g0b.Units) != 1 || g0b.Units[0].Seq != 0 || g0b.Units[0].Lease == u0.Lease {
		t.Fatalf("post-expiry grant = %+v, want unit 0 re-issued", g0b)
	}
	if err := w.postJSON(ctx, PathExtend, ExtendRequest{Worker: "probe", Phase: g0.Phase, Seq: u0.Seq, Lease: u0.Lease}, &ack); err != nil || ack.OK {
		t.Fatalf("extend of superseded lease: err=%v ack=%+v, want refused", err, ack)
	}

	cancel()
	if err := <-phaseErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunPhase returned %v", err)
	}
	wg.Wait()
}

// TestCompleteIdempotency executes units by hand and checks the
// coordinator's answers: duplicates ack as duplicates, fingerprint
// mismatches are rejected, and completions from superseded leases are
// still accepted (first result wins; the work is deterministic).
func TestCompleteIdempotency(t *testing.T) {
	domains, countries, tasks, cfg := fabricInputs()
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}, LeaseTTL: -1})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	col := &scanner.Collect{}
	var wg sync.WaitGroup
	phaseErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr <- coord.RunPhase(ctx, domains, countries, tasks, cfg, col)
	}()

	w := &Worker{opts: WorkerOptions{Coordinator: srv.URL, Name: "probe"}, client: http.DefaultClient, world: testWorld, net: testNet}
	var g LeaseGrant
	for {
		if err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: "probe"}, &g); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if g.Status == StatusUnit {
			break
		}
		runtime.Gosched()
	}
	if _, err := w.ensurePhase(ctx, g.Phase); err != nil {
		t.Fatalf("ensurePhase: %v", err)
	}
	u := g.Units[0]

	post := func(seq int, lease, fp uint64) (int, string) {
		t.Helper()
		res, err := w.plan.ExecuteUnit(ctx, testNet, seq)
		if err != nil {
			t.Fatalf("ExecuteUnit(%d): %v", seq, err)
		}
		unit := w.plan.Unit(seq)
		cp := runstore.Checkpoint{Seq: seq, Country: unit.Country, Tasks: unit.Tasks, Samples: len(res.Samples), Lost: res.Lost}
		body := runstore.EncodeShardFrames(res.Samples, cp)
		url := fmt.Sprintf("%s%s?phase=%d&seq=%d&lease=%d&fp=%d&worker=probe", srv.URL, PathComplete, g.Phase, seq, lease, fp)
		resp, err := http.Post(url, "application/octet-stream", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("post complete: %v", err)
		}
		defer resp.Body.Close()
		var ack Ack
		if resp.StatusCode == http.StatusOK {
			_ = readJSON(resp, &ack)
		}
		return resp.StatusCode, ack.Status
	}

	unit0 := w.plan.Unit(u.Seq)
	if code, _ := post(u.Seq, u.Lease, unit0.Fingerprint^1); code != http.StatusConflict {
		t.Fatalf("wrong-fingerprint complete answered %d, want 409", code)
	}
	if code, status := post(u.Seq, u.Lease, unit0.Fingerprint); code != http.StatusOK || status == "duplicate" {
		t.Fatalf("first complete answered %d/%q", code, status)
	}
	if code, status := post(u.Seq, u.Lease, unit0.Fingerprint); code != http.StatusOK || status != "duplicate" {
		t.Fatalf("second complete answered %d/%q, want duplicate ack", code, status)
	}

	// Finish the phase with a stale lease ID on every remaining unit:
	// the results are deterministic, so they must all land.
	for seq := u.Seq + 1; seq < w.plan.NumUnits(); seq++ {
		if code, status := post(seq, 0, w.plan.Unit(seq).Fingerprint); code != http.StatusOK || status == "duplicate" {
			t.Fatalf("unleased complete of unit %d answered %d/%q", seq, code, status)
		}
	}
	if err := <-phaseErr; err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	coord.FinishStudy()
	wg.Wait()

	ref, _ := runReference(t, 4)
	if !reflect.DeepEqual(col.Samples, ref.Samples) {
		t.Fatal("hand-completed phase diverges from reference")
	}
}

func readJSON(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestConfigWireRejections: process-local seams must not silently drop
// on the wire.
func TestConfigWireRejections(t *testing.T) {
	cfg := scanner.Config{KeepBody: func(int, int) bool { return true }}
	if _, err := NewConfigWire(cfg); err == nil {
		t.Fatal("ConfigWire accepted a KeepBody func")
	}
	cfg = scanner.Config{WrapTransport: func(rt http.RoundTripper) http.RoundTripper { return rt }}
	if _, err := NewConfigWire(cfg); err == nil {
		t.Fatal("ConfigWire accepted a WrapTransport middleware")
	}
}

// TestWorkerRejectsUnknownFaultProfile: a study naming a chaos profile
// this binary does not know must fail loudly, not scan fault-free.
func TestWorkerRejectsUnknownFaultProfile(t *testing.T) {
	coord := New(Options{Study: StudySpec{
		World:  worldgen.TestConfig(),
		Faults: &FaultSpec{Seed: 1, Profile: "no-such-profile"},
	}})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	if _, err := NewWorker(context.Background(), WorkerOptions{Coordinator: srv.URL, Name: "w"}); err == nil {
		t.Fatal("NewWorker accepted an unknown fault profile")
	}
}

// tickClock advances one microsecond on every read.
type tickClock struct{ ns atomic.Int64 }

func (c *tickClock) Now() time.Time { return time.Unix(0, c.ns.Add(int64(time.Microsecond))).UTC() }

// TestFabricCountrySpansCarryExecutionTime: each completion carries its
// unit's execution time on the worker's clock, and the coordinator
// credits it to the country span — so spans read real work even when
// the coordinator's own clock stands still.
func TestFabricCountrySpansCarryExecutionTime(t *testing.T) {
	domains, countries, tasks, cfg := fabricInputs()
	reg := telemetry.New() // virtual: never advances on its own
	cfg.Metrics = reg
	coord := New(Options{Study: StudySpec{World: worldgen.TestConfig()}, LeaseTTL: -1, Metrics: reg})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	var phaseErr, workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		phaseErr = coord.RunPhase(ctx, domains, countries, tasks, cfg, &scanner.Collect{})
		coord.FinishStudy()
	}()
	w, err := NewWorker(ctx, WorkerOptions{
		Coordinator: srv.URL, Name: "ticking", Sleep: yield,
		Metrics: telemetry.NewWithClock(&tickClock{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		workerErr = w.Run(ctx)
	}()
	wg.Wait()
	if phaseErr != nil || workerErr != nil {
		t.Fatalf("RunPhase: %v; worker: %v", phaseErr, workerErr)
	}

	spans := reg.Snapshot().Spans
	if len(spans) != 1 || len(spans[0].Children) != len(countries) {
		t.Fatalf("span tree = %+v, want one scan span over %d countries", spans, len(countries))
	}
	for _, c := range spans[0].Children {
		if c.TotalMicros <= 0 {
			t.Fatalf("country span %s reads %dµs; the units' execution time was lost", c.Name, c.TotalMicros)
		}
	}
}
