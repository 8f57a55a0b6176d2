// Package trace is the engine's wide-event tracing layer: the
// per-event companion to internal/telemetry's aggregates. Where the
// telemetry span tree answers "how long did phase X take in total",
// a trace answers "what happened to unit 17" — each record is one
// wide event carrying the trace/span identity, the phase, unit,
// country, and outcome it describes, and dual virtual + wall
// timestamps read through the telemetry Clock seam.
//
// Determinism is inherited from the engine's contract, not bolted on.
// Trace and span IDs are pure functions of the scan inputs (world
// seed, phase key, unit sequence — derived with the same Mix64 chains
// the engine uses for session slots), unit-scoped events are staged in
// per-shard Buffers and merged at the scheduler's canonical emission
// point, and every event is classed deterministic or runtime exactly
// like a metric. The Deterministic view of a trace — runtime events
// stripped, wall stamps zeroed — is therefore byte-identical at any
// Concurrency and across any number of fabric workers, which the
// acceptance matrix asserts.
//
// Wall time never enters this package directly: callers inject a
// telemetry.Clock (telemetry.Wall in the CLIs, nothing in tests), so
// geolint's determinism analyzer holds here exactly as it does in the
// engine.
package trace

import (
	"strconv"

	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
)

// ID is a trace or span identifier: 64 deterministic bits derived from
// the scan inputs, never random.
type ID uint64

// String renders the ID the way the Chrome export and flight dumps
// print it.
func (id ID) String() string { return "0x" + strconv.FormatUint(uint64(id), 16) }

// SpanCtx is the propagated trace context: which trace an event
// belongs to and which span it nests under. The zero value means "not
// tracing" — every consumer treats it as the off switch.
type SpanCtx struct {
	Trace ID `json:"trace"`
	Span  ID `json:"span"`
}

// Valid reports whether the context carries a real identity.
func (c SpanCtx) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Child derives a child context: same trace, span ID mixed from the
// parent span, the edge name, and an ordinal. The derivation is a pure
// function, so any process that knows the parent and the coordinates
// derives the identical child — the property that lets a fabric worker
// and an in-process run stamp byte-identical events.
func (c SpanCtx) Child(name string, k int) SpanCtx {
	if !c.Valid() {
		return SpanCtx{}
	}
	h := stats.Mix64(uint64(c.Span) ^ stats.FNV1a(name))
	h = stats.Mix64(h ^ (uint64(k)+1)*0x9e3779b97f4a7c15)
	return SpanCtx{Trace: c.Trace, Span: ID(h)}
}

// Root derives a run's root context from the world seed. Trace and
// span start out equal: the root span is the trace.
func Root(seed uint64) SpanCtx {
	id := ID(stats.Mix64(seed ^ stats.FNV1a("geoblock-trace")))
	if id == 0 {
		id = 1 // the zero ID is the off switch; never hand it out
	}
	return SpanCtx{Trace: id, Span: id}
}

// Attr is one key=value annotation on an event. Values are strings so
// events encode without float formatting ambiguity; format numbers
// with strconv at the call site (and only when tracing is enabled).
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Event is one wide record. Events are complete-span style: recorded
// once, at the end of the thing they describe, carrying its outcome.
//
// Two timestamp pairs coexist, both read through the Clock seam.
// VirtNS/VirtDurNS come from the injected (usually virtual) clock and
// belong to the deterministic view; unit-scoped events read a fresh
// epoch-pinned virtual clock so their stamps cannot depend on which
// process or worker ran the unit. WallNS/WallDurNS are real time when
// a wall clock was injected — runtime-class information, zeroed by
// Trace.Deterministic, used by the Chrome export to lay out the
// timeline.
type Event struct {
	Trace  ID `json:"trace"`
	Span   ID `json:"span"`
	Parent ID `json:"parent,omitempty"`
	// Name is the event class: "fetch", "session.open", "unit",
	// "sink.emit", "scan", "outage", "pipeline/scan", ...
	Name string `json:"name"`
	// Phase is the scan phase (or journal key) the event belongs to.
	Phase string `json:"phase,omitempty"`
	// Unit is the canonical shard sequence, -1 for events above the
	// unit level.
	Unit    int    `json:"unit"`
	Country string `json:"country,omitempty"`
	// Outcome is the event's result: "ok", an ErrCode or OutageReason
	// label, or an error class.
	Outcome string `json:"outcome,omitempty"`
	// Runtime marks events whose content or ordering depends on
	// scheduling (lease traffic, slow-lookup exemplars, worker
	// lifecycles); they
	// are stripped from the deterministic view exactly like
	// runtime-class metrics.
	Runtime   bool   `json:"runtime,omitempty"`
	VirtNS    int64  `json:"virt_ns,omitempty"`
	VirtDurNS int64  `json:"virt_dur_ns,omitempty"`
	WallNS    int64  `json:"wall_ns,omitempty"`
	WallDurNS int64  `json:"wall_dur_ns,omitempty"`
	Attrs     []Attr `json:"attrs,omitempty"`
}

// NewEvent starts an event under ctx with the unit field parked at -1.
// The caller fills coordinates and outcome, then hands it to a Buffer
// or Tracer.
func NewEvent(ctx SpanCtx, name string) Event {
	return Event{Trace: ctx.Trace, Span: ctx.Span, Name: name, Unit: -1}
}

// Buffer stages one unit's events without any locking: each scheduler
// shard (or fabric work unit) owns exactly one Buffer for its
// lifetime, so recording is plain appends — the lock-cheap
// per-goroutine path. The scanner's Assembly, in process or on the
// fabric, hands the finished buffer to the Tracer at the canonical
// emission point, which is what keeps the merged stream's order
// independent of scheduling.
//
// A nil *Buffer is a valid no-op receiver, so instrumentation sites
// stay straight-line.
type Buffer struct {
	ctx    SpanCtx
	parent ID
	wall   telemetry.Clock
	events []Event
}

// NewBuffer opens a unit's staging buffer. ctx is the unit's own span
// context, parent the span it nests under (the scan span), and wall an
// optional wall clock for runtime-class stamps — nil keeps wall fields
// zero, which every deterministic run does.
func NewBuffer(ctx SpanCtx, parent ID, wall telemetry.Clock) *Buffer {
	return &Buffer{ctx: ctx, parent: parent, wall: wall}
}

// Ctx returns the buffer's unit context (zero for a nil buffer).
func (b *Buffer) Ctx() SpanCtx {
	if b == nil {
		return SpanCtx{}
	}
	return b.ctx
}

// Parent returns the span the buffer's unit nests under.
func (b *Buffer) Parent() ID {
	if b == nil {
		return 0
	}
	return b.parent
}

// Wall reads the buffer's wall clock in nanoseconds, 0 without one.
func (b *Buffer) Wall() int64 {
	if b == nil || b.wall == nil {
		return 0
	}
	return b.wall.Now().UnixNano()
}

// Record appends one event, filling its trace ID and parent from the
// buffer's context when the caller left them zero.
func (b *Buffer) Record(ev Event) {
	if b == nil {
		return
	}
	if ev.Trace == 0 {
		ev.Trace = b.ctx.Trace
	}
	if ev.Parent == 0 {
		ev.Parent = b.ctx.Span
	}
	b.events = append(b.events, ev)
}

// Events returns the staged events (nil for a nil buffer). The slice
// is the buffer's own; callers take ownership after the unit is done.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	return b.events
}
