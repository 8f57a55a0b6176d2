package scanner

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"geoblock/internal/telemetry"
)

// planInputs is a multi-shard, multi-country workload small enough to
// execute unit-by-unit in a test.
func planInputs() ([]string, []Task, Config) {
	domains, countries := smallInputs(24)
	cfg := testConfig()
	cfg.ShardSize = 8
	return domains, CrossProduct(len(domains), len(countries)), cfg
}

// TestPlanMatchesRun is the plan layer's identity contract: executing
// every unit out of order through an Assembly reproduces the exact
// samples, outages, and coverage of the one-shot engine.
func TestPlanMatchesRun(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)

	ref, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPlan(domains, countries, tasks, cfg)
	if p.NumUnits() == 0 {
		t.Fatal("plan has no units")
	}
	var col Collect
	asm, err := NewAssembly(p, &col)
	if err != nil {
		t.Fatal(err)
	}
	pending := asm.Pending()
	if len(pending) != p.NumUnits() {
		t.Fatalf("Pending lists %d units, plan has %d", len(pending), p.NumUnits())
	}
	// Complete in reverse canonical order: the assembly's reorder
	// frontier must hold everything back and still emit canonically.
	for i := len(pending) - 1; i >= 0; i-- {
		seq := pending[i]
		res, err := p.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			t.Fatalf("unit %d: %v", seq, err)
		}
		if asm.Done() && i > 0 {
			t.Fatal("assembly done with completions outstanding")
		}
		if err := asm.Complete(seq, res); err != nil {
			t.Fatalf("complete %d: %v", seq, err)
		}
	}
	if !asm.Done() {
		t.Fatal("assembly not done after every completion")
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(col.Samples, ref.Samples) {
		t.Fatalf("plan-executed samples diverge from Scan (%d vs %d)", len(col.Samples), len(ref.Samples))
	}
	if !reflect.DeepEqual(col.Outages, ref.Outages) {
		t.Fatalf("outages diverge:\n%+v\n%+v", col.Outages, ref.Outages)
	}
	if !reflect.DeepEqual(col.Coverage, ref.Coverage) {
		t.Fatalf("coverage diverges:\n%+v\n%+v", col.Coverage, ref.Coverage)
	}
}

// TestPlanFingerprints: two plans over the same inputs agree on every
// fingerprint; any identity-bearing change — sampling parameters, task
// contents — moves them. Concurrency deliberately does not.
func TestPlanFingerprints(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)

	a := NewPlan(domains, countries, tasks, cfg)
	b := NewPlan(domains, countries, tasks, cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical inputs produced different plan fingerprints")
	}
	ua, ub := a.Units(), b.Units()
	if !reflect.DeepEqual(ua, ub) {
		t.Fatal("identical inputs produced different unit sets")
	}
	for i, u := range ua {
		if u.Seq != i {
			t.Fatalf("unit %d carries seq %d", i, u.Seq)
		}
		if u.Fingerprint == 0 {
			t.Fatalf("unit %d has a zero fingerprint", i)
		}
	}

	conc := cfg
	conc.Concurrency = 17
	if NewPlan(domains, countries, tasks, conc).Fingerprint() != a.Fingerprint() {
		t.Fatal("Concurrency moved the plan fingerprint; it must be free to vary")
	}

	moved := cfg
	moved.Samples = cfg.Samples + 1
	if NewPlan(domains, countries, tasks, moved).Fingerprint() == a.Fingerprint() {
		t.Fatal("changing Samples did not move the plan fingerprint")
	}

	swapped := append([]string(nil), domains...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if NewPlan(swapped, countries, tasks, cfg).Units()[0].Fingerprint == ua[0].Fingerprint {
		t.Fatal("changing a unit's task contents did not move its fingerprint")
	}
}

// TestExecuteUnitRepeatable: a unit is a pure function of the plan — a
// re-issued lease executing it again gets byte-identical samples.
func TestExecuteUnitRepeatable(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)

	r1, err := p.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Samples, r2.Samples) || r1.Lost != r2.Lost {
		t.Fatal("re-executing a unit produced different output")
	}

	if _, err := p.ExecuteUnit(context.Background(), testNet, p.NumUnits()); err == nil {
		t.Fatal("out-of-range unit executed")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteUnit(cancelled, testNet, 0); err == nil {
		t.Fatal("cancelled context executed a unit")
	}
}

// TestAssemblyRejections: the completion bookkeeping that keeps a
// distributed run honest — duplicates, strays, and premature or double
// finishes all error without disturbing the stream.
func TestAssemblyRejections(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)
	var col Collect
	asm, err := NewAssembly(p, &col)
	if err != nil {
		t.Fatal(err)
	}

	if err := asm.Finish(); err == nil || !strings.Contains(err.Error(), "outstanding") {
		t.Fatalf("premature finish: err = %v", err)
	}
	res, err := p.ExecuteUnit(context.Background(), testNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Complete(p.NumUnits(), res); err == nil {
		t.Fatal("out-of-range completion accepted")
	}
	if err := asm.Complete(0, res); err != nil {
		t.Fatal(err)
	}
	if err := asm.Complete(0, res); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate completion: err = %v", err)
	}

	for _, seq := range asm.Pending()[1:] {
		r, err := p.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.Complete(seq, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := asm.Finish(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("double finish: err = %v", err)
	}
	if err := asm.Complete(1, res); err == nil || !strings.Contains(err.Error(), "finished") {
		t.Fatalf("completion after finish: err = %v", err)
	}
}

// TestAssemblyAbort: the cancellation path closes the span without the
// end-of-run accounting and stays idempotent.
func TestAssemblyAbort(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	p := NewPlan(domains, countries, tasks, cfg)
	var col Collect
	asm, err := NewAssembly(p, &col)
	if err != nil {
		t.Fatal(err)
	}
	asm.Abort()
	asm.Abort() // second abort is a no-op, not a double-close panic
	if err := asm.Complete(0, UnitResult{}); err == nil {
		t.Fatal("completion accepted after abort")
	}
	if len(col.Outages) != 0 || col.Coverage.Requested != 0 {
		t.Fatal("abort ran the end-of-run accounting")
	}
}

// tickClock advances one microsecond on every read, so any span or
// unit measured against it has a nonzero, repeatable duration.
type tickClock struct{ ns atomic.Int64 }

func (c *tickClock) Now() time.Time { return time.Unix(0, c.ns.Add(int64(time.Microsecond))).UTC() }

// countrySpans maps each country child of the "scan/<phase>" span to
// its total duration.
func countrySpans(t *testing.T, reg *telemetry.Registry, phase string) map[string]int64 {
	t.Helper()
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name != "scan/"+phase {
			continue
		}
		out := map[string]int64{}
		for _, c := range sp.Children {
			out[c.Name] = c.TotalMicros
		}
		return out
	}
	t.Fatalf("no scan/%s span", phase)
	return nil
}

// TestCountrySpansTimeUnits pins a country span's total to the
// execution time of its units, on both paths: units completed through
// an Assembly from their UnitResults (the fabric), and an in-process
// Run whose units record into the plan's registry. Under an advancing
// clock a span opened and closed at completion time would read one
// tick per unit instead.
func TestCountrySpansTimeUnits(t *testing.T) {
	domains, tasks, cfg := planInputs()
	_, countries := smallInputs(24)
	cfg.Concurrency = 1 // one goroutine reads the clock, so ticks are repeatable

	// Each unit's execution time, executed on its own ticking clock.
	want := map[string]int64{}
	solo := cfg
	solo.Metrics = telemetry.NewWithClock(&tickClock{})
	ref := NewPlan(domains, countries, tasks, solo)
	results := make([]UnitResult, ref.NumUnits())
	for seq := range results {
		res, err := ref.ExecuteUnit(context.Background(), testNet, seq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("unit %d: elapsed %v under an advancing clock", seq, res.Elapsed)
		}
		results[seq] = res
		want[ref.Unit(seq).Country] += int64(res.Elapsed / time.Microsecond)
	}

	fabric := cfg
	fabric.Metrics = telemetry.NewWithClock(&tickClock{})
	p := NewPlan(domains, countries, tasks, fabric)
	asm, err := NewAssembly(p, &Collect{})
	if err != nil {
		t.Fatal(err)
	}
	for seq := len(results) - 1; seq >= 0; seq-- {
		if err := asm.Complete(seq, results[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := countrySpans(t, fabric.Metrics, cfg.Phase); !reflect.DeepEqual(got, want) {
		t.Fatalf("assembled country spans = %v, want the units' execution time %v", got, want)
	}

	inproc := cfg
	inproc.Metrics = telemetry.NewWithClock(&tickClock{})
	if err := Run(context.Background(), testNet, domains, countries, tasks, inproc, &Collect{}); err != nil {
		t.Fatal(err)
	}
	if got := countrySpans(t, inproc.Metrics, cfg.Phase); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-process country spans = %v, want the units' execution time %v", got, want)
	}
}
