// The Tracer: the process-wide event store behind the staging
// Buffers, plus the flight recorder — a bounded ring of the most
// recent events (all classes) that dumps itself when something dies.
package trace

import (
	"fmt"
	"io"
	"sync"

	"geoblock/internal/telemetry"
)

// DefaultLimit bounds how many events a Tracer retains. Appends past
// the limit are counted (Dropped) rather than kept, and the cap is
// applied at the canonical merge point, so which events survive is as
// deterministic as the stream itself.
const DefaultLimit = 1 << 18

// DefaultFlightSize is the flight recorder's ring capacity.
const DefaultFlightSize = 256

// Tracer collects a run's events. Driver-side code records into it
// directly (those call sites are single-goroutine or canonically
// serialized); unit-scoped events arrive in batches via Append from
// the scanner's Assembly. A nil *Tracer no-ops everywhere, so the
// engine's hot path pays one pointer test when tracing is off.
type Tracer struct {
	// root, clock, and wall are fixed before the tracer is shared (the
	// With* builders run at construction sites); they sit above mu,
	// outside the guarded set.
	root  SpanCtx
	clock telemetry.Clock
	wall  telemetry.Clock

	mu      sync.Mutex
	events  []Event
	dropped int64
	limit   int
	ring    []Event // flight recorder: last DefaultFlightSize events
	ringPos int
	ringLen int
	flight  io.Writer
	dumps   int
}

// New builds a tracer rooted at ctx, on a virtual clock, with no wall
// clock and no flight sink. Chain With* to configure before sharing.
func New(root SpanCtx) *Tracer {
	return &Tracer{
		root:  root,
		clock: telemetry.NewVirtual(),
		limit: DefaultLimit,
		ring:  make([]Event, DefaultFlightSize),
	}
}

// WithClock sets the tracer's primary (virtual-time) clock.
func (t *Tracer) WithClock(c telemetry.Clock) *Tracer {
	if t != nil && c != nil {
		t.clock = c
	}
	return t
}

// WithWall sets the wall clock for WallNS stamps (the CLIs pass
// telemetry.Wall{}; tests pass nothing and wall fields stay zero).
func (t *Tracer) WithWall(c telemetry.Clock) *Tracer {
	if t != nil {
		t.wall = c
	}
	return t
}

// WithFlightSink sets where Trigger dumps the flight recorder ring.
func (t *Tracer) WithFlightSink(w io.Writer) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.flight = w
	t.mu.Unlock()
	return t
}

// WithLimit overrides the retained-event cap (tests shrink it).
func (t *Tracer) WithLimit(n int) *Tracer {
	if t == nil || n <= 0 {
		return t
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
	return t
}

// Root returns the tracer's root context (zero for a nil tracer, which
// downstream code reads as "tracing off").
func (t *Tracer) Root() SpanCtx {
	if t == nil {
		return SpanCtx{}
	}
	return t.root
}

// WallClock returns the injected wall clock, nil when absent — the
// engine hands it to its unit buffers.
func (t *Tracer) WallClock() telemetry.Clock {
	if t == nil {
		return nil
	}
	return t.wall
}

// Now reads both clocks: virtual nanoseconds from the primary clock
// and wall nanoseconds from the wall clock (0 without one).
func (t *Tracer) Now() (virtNS, wallNS int64) {
	if t == nil {
		return 0, 0
	}
	virtNS = t.clock.Now().UnixNano()
	if t.wall != nil {
		wallNS = t.wall.Now().UnixNano()
	}
	return virtNS, wallNS
}

// Record appends one event, filling its trace ID from the root when
// the caller left it zero. Safe for concurrent use.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if ev.Trace == 0 {
		ev.Trace = t.root.Trace
	}
	t.mu.Lock()
	t.addLocked(ev)
	t.mu.Unlock()
}

// Append merges a unit buffer's events in order. The engine calls this
// at the canonical emission point only, which is what makes the stored
// order (and, with the limit, the drop set) schedule-independent.
func (t *Tracer) Append(evs []Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	for _, ev := range evs {
		t.addLocked(ev)
	}
	t.mu.Unlock()
}

// addLocked stores one event under mu: into the main buffer up to the
// limit, and into the flight ring always.
func (t *Tracer) addLocked(ev Event) {
	if len(t.events) < t.limit {
		t.events = append(t.events, ev)
	} else {
		t.dropped++
	}
	t.ring[t.ringPos] = ev
	t.ringPos = (t.ringPos + 1) % len(t.ring)
	if t.ringLen < len(t.ring) {
		t.ringLen++
	}
}

// Dropped reports how many events fell past the limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// FlightDumps reports how many flight-recorder dumps have been
// written (tests assert a seeded Outage produced exactly one).
func (t *Tracer) FlightDumps() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dumps
}

// Trigger dumps the flight recorder to the configured sink — the
// auto-dump path for Outages and worker deaths. Without a sink it is
// a no-op (deterministic test runs trace without dumping).
func (t *Tracer) Trigger(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.flight == nil {
		return
	}
	t.dumpLocked(t.flight, reason)
}

// DumpFlight writes the ring to w regardless of the configured sink —
// the crash path, where the caller holds the writer.
func (t *Tracer) DumpFlight(w io.Writer, reason string) {
	if t == nil || w == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dumpLocked(w, reason)
}

func (t *Tracer) dumpLocked(w io.Writer, reason string) {
	t.dumps++
	fmt.Fprintf(w, "== trace flight recorder: %s ==\n", reason)
	fmt.Fprintf(w, "trace=%s events=%d dropped=%d\n", t.root.Trace, len(t.events), t.dropped)
	// Oldest first: with a full ring the write position is the oldest
	// entry.
	start := 0
	if t.ringLen == len(t.ring) {
		start = t.ringPos
	}
	for i := 0; i < t.ringLen; i++ {
		ev := t.ring[(start+i)%len(t.ring)]
		fmt.Fprintf(w, "[-%03d] %s", t.ringLen-i, ev.Name)
		if ev.Phase != "" {
			fmt.Fprintf(w, " phase=%s", ev.Phase)
		}
		if ev.Unit >= 0 {
			fmt.Fprintf(w, " unit=%d", ev.Unit)
		}
		if ev.Country != "" {
			fmt.Fprintf(w, " country=%s", ev.Country)
		}
		if ev.Outcome != "" {
			fmt.Fprintf(w, " outcome=%s", ev.Outcome)
		}
		if ev.Runtime {
			fmt.Fprint(w, " (runtime)")
		}
		fmt.Fprintf(w, " span=%s wall=%dns\n", ev.Span, ev.WallNS)
	}
	fmt.Fprint(w, "== end flight dump ==\n")
}

// CrashDump is the process-death hook: deferred at the top of a CLI
// main, it dumps the flight recorder to w when the goroutine panics,
// then re-panics so the crash (and its stack) proceeds unchanged.
func CrashDump(t *Tracer, w io.Writer) {
	if r := recover(); r != nil {
		t.DumpFlight(w, fmt.Sprintf("panic: %v", r))
		panic(r)
	}
}

// Snapshot exports the tracer's current state. Safe to call while
// recording continues; the snapshot copies the event slice.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return &Trace{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &Trace{Root: t.root, Dropped: t.dropped}
	out.Events = append([]Event(nil), t.events...)
	return out
}
