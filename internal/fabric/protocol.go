// The wire protocol: what a coordinator and its workers agree on.
//
// The protocol ships coordinates, not payloads. A worker regenerates
// the coordinator's deterministic world from the StudySpec's seed and
// calibration, rebuilds each phase's Plan from the PhaseSpec's inputs,
// and proves agreement through the plan and unit fingerprints before
// any lease runs. Only results cross the wire in bulk — and those
// travel as runstore-framed records, so the coordinator journals
// exactly the bytes a single-process run would have journaled.
package fabric

import (
	"fmt"

	"geoblock/internal/geo"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/worldgen"
)

// Endpoint paths served by Coordinator.Handler.
const (
	PathStudy    = "/fabric/study"
	PathPhase    = "/fabric/phase/" // + phase ID
	PathLease    = "/fabric/lease"
	PathExtend   = "/fabric/extend"
	PathComplete = "/fabric/complete"
)

// FaultSpec replicates a named chaos profile on every worker, so a
// distributed chaos run injects the same faults a single-process run
// would. Workers build the injector locally from the seed; verdicts are
// pure functions of (seed, call arguments), so which process asks is
// irrelevant.
type FaultSpec struct {
	Seed    uint64 `json:"seed"`
	Profile string `json:"profile"`
	// Country scopes the profile to one country; empty applies it as
	// the default for all.
	Country string `json:"country,omitempty"`
}

// StudySpec is everything a worker needs to rebuild the coordinator's
// world: the full world calibration and the optional fault profile.
type StudySpec struct {
	World  worldgen.Config `json:"world"`
	Faults *FaultSpec      `json:"faults,omitempty"`
}

// ConfigWire is the serializable subset of scanner.Config — the knobs
// that shape a scan's output, minus the process-local seams (funcs,
// registries, spans, resume state).
type ConfigWire struct {
	Samples            int                `json:"samples"`
	Retries            int                `json:"retries"`
	RequestsPerExit    int                `json:"requests_per_exit"`
	MaxRedirects       int                `json:"max_redirects"`
	ShardSize          int                `json:"shard_size"`
	Headers            map[string]string  `json:"headers"`
	Bodies             scanner.BodyPolicy `json:"bodies"`
	Phase              string             `json:"phase"`
	VerifyConnectivity bool               `json:"verify_connectivity"`
}

// NewConfigWire extracts the serializable subset of cfg, erroring on
// configs the fabric cannot ship: a custom KeepBody func (use
// Config.Bodies) or a WrapTransport middleware.
func NewConfigWire(cfg scanner.Config) (ConfigWire, error) {
	if cfg.KeepBody != nil {
		return ConfigWire{}, fmt.Errorf("fabric: Config.KeepBody is a func and cannot cross the wire; set Config.Bodies instead")
	}
	if cfg.WrapTransport != nil {
		return ConfigWire{}, fmt.Errorf("fabric: Config.WrapTransport cannot cross the wire")
	}
	return ConfigWire{
		Samples:            cfg.Samples,
		Retries:            cfg.Retries,
		RequestsPerExit:    cfg.RequestsPerExit,
		MaxRedirects:       cfg.MaxRedirects,
		ShardSize:          cfg.ShardSize,
		Headers:            cfg.Headers,
		Bodies:             cfg.Bodies,
		Phase:              cfg.Phase,
		VerifyConnectivity: cfg.VerifyConnectivity,
	}, nil
}

// Config rebuilds the scanner.Config a worker executes units under.
// Concurrency stays zero: workers execute one unit at a time, and the
// determinism contract makes the knob output-invariant anyway.
func (w ConfigWire) Config() scanner.Config {
	return scanner.Config{
		Samples:            w.Samples,
		Retries:            w.Retries,
		RequestsPerExit:    w.RequestsPerExit,
		MaxRedirects:       w.MaxRedirects,
		ShardSize:          w.ShardSize,
		Headers:            w.Headers,
		Bodies:             w.Bodies,
		Phase:              w.Phase,
		VerifyConnectivity: w.VerifyConnectivity,
	}
}

// PhaseSpec describes one scan phase: the inputs a worker rebuilds the
// Plan from, and the fingerprints that prove coordinator and worker
// built the same one.
type PhaseSpec struct {
	ID        int               `json:"id"`
	Phase     string            `json:"phase"`
	Domains   []string          `json:"domains"`
	Countries []geo.CountryCode `json:"countries"`
	Tasks     []scanner.Task    `json:"tasks"`
	Config    ConfigWire        `json:"config"`
	// Fingerprint is the coordinator's Plan.Fingerprint for this phase.
	Fingerprint uint64 `json:"fingerprint"`
	// Units is the plan's unit count.
	Units int `json:"units"`
	// WorldClock is the coordinator world's policy clock at phase start.
	// Studies advance the clock between phases (policies flap as time
	// passes); workers set their regenerated world to this value before
	// executing any of the phase's units.
	WorldClock int64 `json:"world_clock"`
	// Trace is the coordinator-issued scan-level trace context. Workers
	// pin it as Config.TraceCtx, so the per-unit contexts they derive —
	// and every ID on every shipped event — match what an in-process
	// run would have stamped. Zero means the coordinator is not
	// tracing.
	Trace trace.SpanCtx `json:"trace"`
}

// Lease grant statuses.
const (
	// StatusUnit: a unit was leased; execute it.
	StatusUnit = "unit"
	// StatusWait: no work right now (between phases, or every pending
	// unit is leased); poll again after RetryMillis.
	StatusWait = "wait"
	// StatusStudyDone: the study is over; the worker may exit.
	StatusStudyDone = "study-done"
)

// DefaultLeaseBatch is how many units a worker asks for per lease
// round trip. Units are small (a shard of ~32 tasks executes in
// milliseconds on the simulated net), so per-unit leasing makes the
// coordinator round trip the dominant cost and workers spend their
// time waiting on HTTP instead of scanning.
// Batching amortizes one round trip over K units.
const DefaultLeaseBatch = 16

// MaxLeaseBatch caps what a single request may ask for, so one greedy
// worker cannot drain a phase and starve the rest.
const MaxLeaseBatch = 64

// LeaseRequest asks the coordinator for work. Max is the largest batch
// the worker wants in this round trip; 0 means 1.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// UnitLease is one leased unit inside a grant.
type UnitLease struct {
	Seq   int    `json:"seq"`
	Lease uint64 `json:"lease"`
	// Fingerprint is the coordinator's fingerprint for the leased unit;
	// the worker refuses the lease if its own plan disagrees.
	Fingerprint uint64 `json:"fingerprint"`
	// Span is the coordinator-derived span ID for the unit — redundant
	// with the derivation the worker performs from PhaseSpec.Trace, and
	// carried precisely so that redundancy is checkable: the worker
	// errors if the two disagree, the same trust-but-verify posture as
	// the fingerprints. Zero when the coordinator is not tracing.
	Span trace.ID `json:"span,omitempty"`
}

// unitPayload is what rides Checkpoint.Metrics across the wire in a
// completion: the unit's full staged metrics snapshot (embedded, so an
// untraced payload on a virtual clock is exactly the bare snapshot),
// its trace events, and its execution time on the worker's clock.
// Transport only — the coordinator journal re-derives its
// deterministic checkpoint view from the rehydrated staging registry,
// so these bytes never land in a segment file.
type unitPayload struct {
	telemetry.Snapshot
	Trace     []trace.Event `json:"trace,omitempty"`
	ElapsedNS int64         `json:"elapsed_ns,omitempty"`
}

// LeaseGrant is the coordinator's answer to a lease request.
type LeaseGrant struct {
	Status string `json:"status"`
	// Set when Status is StatusUnit: the phase the units belong to and
	// the batch itself, in canonical (ascending seq) order.
	Phase     int         `json:"phase,omitempty"`
	Units     []UnitLease `json:"units,omitempty"`
	TTLMillis int64       `json:"ttl_millis,omitempty"`
	// Set when Status is StatusWait.
	RetryMillis int64 `json:"retry_millis,omitempty"`
}

// ExtendRequest refreshes a held lease (a worker about to start long
// work calls it so a slow plan rebuild does not cost it the lease).
type ExtendRequest struct {
	Worker string `json:"worker"`
	Phase  int    `json:"phase"`
	Seq    int    `json:"seq"`
	Lease  uint64 `json:"lease"`
}

// Ack is the coordinator's answer to extend and complete calls. OK
// false with a Status explains why the call did not land — a stale
// phase or an expired lease is a normal fabric event, not an error.
type Ack struct {
	OK     bool   `json:"ok"`
	Status string `json:"status,omitempty"`
}
