package telemetry

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	if got := r.Counter("a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("h", 0, 10, 5)
	h.Observe(1)
	h.Observe(9.5)
	h.Observe(42) // over range
	st := h.export("h")
	if st.Total != 3 || st.OutOfRange != 1 {
		t.Fatalf("histogram total=%d oor=%d, want 3/1", st.Total, st.OutOfRange)
	}
	if st.Sum != 1+9+42 {
		t.Fatalf("histogram sum=%d, want 52 (integer-truncated)", st.Sum)
	}
}

func TestRegistrationClassIsSticky(t *testing.T) {
	r := New()
	r.RuntimeCounter("steals").Add(1)
	r.Counter("steals").Add(1) // later deterministic lookup keeps the class
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || !snap.Counters[0].Runtime {
		t.Fatalf("first registration should fix the runtime class: %+v", snap.Counters)
	}
	if det := snap.Deterministic(); len(det.Counters) != 0 {
		t.Fatalf("runtime counter leaked into deterministic view: %+v", det.Counters)
	}
}

func TestNilReceiversNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.RuntimeCounter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x", 0, 1, 1).Observe(1)
	r.RuntimeHistogram("x", 0, 1, 1).Observe(1)
	if !r.Now().IsZero() {
		t.Fatal("nil registry Now should be the zero time")
	}
	sp := r.StartSpan("a")
	sp.Outcome("ok")
	child := sp.StartSpan("b")
	child.End()
	sp.End()
	if got := r.Snapshot().Text(); !strings.Contains(got, "# counters") {
		t.Fatalf("nil registry snapshot should still render sections:\n%s", got)
	}
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 {
		t.Fatal("nil metrics must read zero")
	}
}

func TestVirtualClockAndSpanDurations(t *testing.T) {
	clk := NewVirtual()
	r := NewWithClock(clk)
	sp := r.StartSpan("phase")
	clk.Advance(1500 * time.Microsecond)
	sp.Outcome("ok")
	sp.End()
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want one span, got %+v", snap.Spans)
	}
	if got := snap.Spans[0].TotalMicros; got != 1500 {
		t.Fatalf("span duration = %dµs, want 1500", got)
	}
	det := snap.Deterministic()
	if det.Spans[0].TotalMicros != 0 {
		t.Fatal("Deterministic must zero span durations")
	}
	if len(det.Spans[0].Outcomes) != 1 || det.Spans[0].Outcomes[0].Key != "ok" {
		t.Fatalf("Deterministic must keep outcomes: %+v", det.Spans[0].Outcomes)
	}
}

func TestSpanTreeMerges(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		sp := r.StartSpan("scan")
		c := sp.StartSpan("IR")
		c.Outcome("dark")
		c.End()
		sp.End()
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Count != 3 {
		t.Fatalf("same-named spans must merge: %+v", snap.Spans)
	}
	kids := snap.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "IR" || kids[0].Count != 3 {
		t.Fatalf("child activations must merge too: %+v", kids)
	}
	if kids[0].Outcomes[0] != (OutcomeStat{Key: "dark", Count: 3}) {
		t.Fatalf("outcome tally = %+v", kids[0].Outcomes)
	}
}

// TestSpanRecord: an activation timed elsewhere folds into the same
// node as a live one, with its given duration and outcome.
func TestSpanRecord(t *testing.T) {
	r := New()
	sp := r.StartSpan("scan")
	sp.Record("IR", "dark", 3*time.Millisecond)
	c := sp.StartSpan("IR")
	c.Outcome("ok")
	c.End()
	sp.End()
	var nilSpan *Span
	nilSpan.Record("IR", "ok", time.Second) // no-op, like every nil-span call

	kids := r.Snapshot().Spans[0].Children
	if len(kids) != 1 || kids[0].Count != 2 || kids[0].TotalMicros != 3000 {
		t.Fatalf("recorded activation must merge with the live one: %+v", kids)
	}
	want := []OutcomeStat{{Key: "dark", Count: 1}, {Key: "ok", Count: 1}}
	if !reflect.DeepEqual(kids[0].Outcomes, want) {
		t.Fatalf("outcomes = %+v, want %+v", kids[0].Outcomes, want)
	}
}

func TestConcurrentUseIsRaceFree(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("c").Add(1)
				r.Histogram("h", 0, 100, 10).Observe(float64(i))
				sp := r.StartSpan("s")
				sp.Outcome("ok")
				sp.End()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		_ = r.Snapshot().Text() // snapshot while writers run
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	if got := r.Snapshot().Spans[0].Count; got != 800 {
		t.Fatalf("span count = %d, want 800", got)
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m"); got != "m" {
		t.Fatalf("Label with no pairs = %q", got)
	}
	if got := Label("m", "k", "v"); got != "m{k=v}" {
		t.Fatalf("Label = %q", got)
	}
	if got := Label("m", "a", "1", "b", "2"); got != "m{a=1,b=2}" {
		t.Fatalf("Label = %q", got)
	}
}

func TestProgressLoop(t *testing.T) {
	var buf bytes.Buffer
	ticks := make(chan time.Time)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runProgress(&buf, ticks, done, func() string { return "tick" })
	}()
	ticks <- time.Time{}
	ticks <- time.Time{}
	close(done)
	wg.Wait()
	if got := buf.String(); got != "tick\ntick\n" {
		t.Fatalf("progress output = %q", got)
	}
}

func TestStartProgressStopsIdempotently(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, time.Hour, func() string { return "x" })
	stop()
	stop() // second call must not panic or deadlock
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestHTTPHandler(t *testing.T) {
	r := New()
	r.Counter("hits").Add(3)
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits 3") {
		t.Fatalf("text body missing counter:\n%s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type = %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, `"name": "hits"`) {
		t.Fatalf("json body missing counter:\n%s", body)
	}
}

func TestAttachDebugRoutes(t *testing.T) {
	mux := http.NewServeMux()
	AttachDebug(mux, New())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/metrics status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status = %d", rec.Code)
	}
}
