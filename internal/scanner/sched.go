// The scheduler layer: deterministic sharding, the in-process pool's
// lowest-seq-first claim loop behind a bounded reorder window, and
// canonical-order emission.
package scanner

import (
	"context"
	"strconv"
	"sync"

	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

// windowPerWorker sizes the in-process pool's reorder window: a worker
// may start unit seq only while seq < frontier + windowPerWorker×workers,
// so at most that many completed units ever wait behind a slow frontier
// unit.
const windowPerWorker = 4

// shard is one schedulable unit: a contiguous chunk of one group's
// (country's or VPS's) task list. Shards are fully independent — each
// carries its own session slot — so any execution order yields the
// same per-shard output.
type shard struct {
	seq     int    // canonical position (group-major, chunk order)
	group   int16  // country or VPS index
	index   int    // chunk index within the group
	slot    uint64 // sticky-session slot, a pure function of (group, phase, index)
	tasks   []Task
	out     []Sample     // filled by the runner, released after emission
	lost    OutageReason // set by the runner when the shard's tasks were lost
	country string       // group's country code, for ShardDone
	// staging holds the shard's own metrics when a ShardSink asked for
	// per-shard accounting; merged into the main registry at emission.
	staging *telemetry.Registry
	// events holds the shard's staged trace events when tracing is on;
	// appended to the tracer at emission, same canonical point as the
	// metrics merge.
	events []trace.Event
}

// buildShards groups tasks by Task.Country (a country or VPS index
// below groups) and chunks each group's list. Boundaries depend only on
// the task lists and shardSize — never on Concurrency — so the shard
// set (and through slotFor, every session slot) is stable across any
// worker count.
func buildShards(tasks []Task, groups, shardSize int, slotFor func(group int16, index int) uint64) []*shard {
	byGroup := make([][]Task, groups)
	for _, t := range tasks {
		byGroup[t.Country] = append(byGroup[t.Country], t)
	}
	var shards []*shard
	for g, tasks := range byGroup {
		for i := 0; len(tasks) > 0; i++ {
			n := shardSize
			if n > len(tasks) {
				n = len(tasks)
			}
			shards = append(shards, &shard{
				seq:   len(shards),
				group: int16(g),
				index: i,
				slot:  slotFor(int16(g), i),
				tasks: tasks[:n],
			})
			tasks = tasks[n:]
		}
	}
	return shards
}

// shardSlot derives a shard's sticky-session slot from (country, phase,
// shard index) — the determinism anchor: a shard lands on the same
// exits no matter which worker runs it, or when.
func shardSlot(country, phase string, index int) uint64 {
	return stats.FNV1a(country + "/" + phase + "/" + strconv.Itoa(index))
}

// run executes the pending units on the in-process pool and folds each
// as it finishes, then closes the assembly: Finish's tail (with the
// outage and coverage accounting when outages is set) after a full run,
// Abort after a cancelled one, whose emission stops at the first shard
// boundary after ctx is cancelled.
//
// The pool follows the fabric coordinator's grant policy: workers claim
// the lowest pending seq from one shared cursor, so the reorder frontier
// trails the claims closely. The window bounds the rest — a worker waits
// before claiming a unit windowPerWorker×workers or more past the
// frontier, and wakes when the frontier advances or ctx is cancelled.
// Claims go lowest-first, so the frontier unit is always already
// claimed and the window cannot deadlock the pool.
//
// A unit's metrics are staged in a shard-local registry only when the
// sink is a ShardSink that needs each shard's own contribution;
// otherwise they record straight into the plan's registry.
func (a *Assembly) run(ctx context.Context, scan shardScan, outages bool) error {
	p := a.plan
	_, journaling := a.sink.(ShardSink)
	stage := journaling && p.cfg.Metrics != nil
	workers := min(p.cfg.Concurrency, len(p.shards)-a.skip)
	if workers > 0 {
		// The worker count follows Concurrency, so its gauge is
		// runtime-class.
		p.cfg.Metrics.RuntimeGauge(MetWorkers).Set(int64(workers))
	}
	window := windowPerWorker * workers
	a.stop = ctx.Done()
	defer context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.wake.Broadcast()
		a.mu.Unlock()
	})()

	cursor := a.skip // next unclaimed seq, guarded by a.mu
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				a.mu.Lock()
				for ctx.Err() == nil && cursor < len(p.shards) && cursor >= a.next+window {
					a.wake.Wait()
				}
				if ctx.Err() != nil || cursor == len(p.shards) {
					a.mu.Unlock()
					return
				}
				seq := cursor
				cursor++
				a.mu.Unlock()

				reg := p.cfg.Metrics
				if stage {
					reg = telemetry.NewWithClock(reg.Clock())
				}
				res, err := p.execute(ctx, seq, reg, scan)
				if err != nil {
					return
				}
				if !stage {
					reg = nil
				}
				a.mu.Lock()
				a.foldLocked(seq, res, reg)
				a.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		a.Abort()
		return err
	}
	return a.finish(outages)
}

// foldLocked credits one executed unit — its country-span activation,
// timed by the unit's own execution, and the shards-done counter — and
// emits every unit the reorder frontier can now pass. Activations merge
// by name, so a country node's count reads "shards run" and its outcome
// tally aggregates the per-shard fates. staging is the unit's
// shard-local registry, nil when nothing was staged.
func (a *Assembly) foldLocked(seq int, res UnitResult, staging *telemetry.Registry) {
	p := a.plan
	sh := p.shards[seq]
	sh.country = p.country(sh)
	sh.out, sh.lost, sh.events, sh.staging = res.Samples, res.Lost, res.Trace, staging
	a.sp.Record(sh.country, sh.lost.outcome(), res.Elapsed)
	p.cfg.Metrics.Counter(MetShardsDone).Add(1)
	a.done[seq] = true
	from := a.next
	for a.next < len(p.shards) && a.done[a.next] {
		select {
		case <-a.stop:
			return
		default:
		}
		a.emitLocked(p.shards[a.next])
		a.next++
	}
	if a.next > from {
		a.wake.Broadcast()
	}
}

// emitLocked delivers one shard at the frontier: its samples to the
// sink, then the emission-time accounting — sink counters, the staged
// metrics merge, ShardDone, and the staged trace events — which is
// therefore identical in process and on the fabric.
func (a *Assembly) emitLocked(sh *shard) {
	cfg := &a.plan.cfg
	for i := range sh.out {
		a.sink.Emit(sh.out[i])
	}
	if cfg.Metrics != nil {
		var bytes int64
		for i := range sh.out {
			bytes += int64(sh.out[i].BodyLen)
		}
		cfg.Metrics.Counter(MetSinkSamples).Add(int64(len(sh.out)))
		cfg.Metrics.Counter(MetSinkBytes).Add(bytes)
	}
	if sh.staging != nil {
		// Fold the shard's staged metrics into the main registry at the
		// canonical emission point. Merging is commutative, so the totals
		// equal a run that recorded them live.
		cfg.Metrics.Merge(sh.staging.Snapshot())
	}
	if ss, ok := a.sink.(ShardSink); ok {
		var det *telemetry.Snapshot
		if sh.staging != nil {
			det = sh.staging.Snapshot().Deterministic()
		}
		ss.EmitShardDone(ShardDone{
			Seq:     sh.seq,
			Country: sh.country,
			Tasks:   len(sh.tasks),
			Samples: len(sh.out),
			Lost:    sh.lost,
			Metrics: det,
		})
	}
	if cfg.Trace != nil {
		// Same canonical point as the metrics merge: unit events land in
		// frontier order, then the emission itself is recorded.
		cfg.Trace.Append(sh.events)
		scanCtx := ScanTraceCtx(*cfg)
		virt, wall := cfg.Trace.Now()
		ev := trace.NewEvent(scanCtx.Child("sink.emit", sh.seq), "sink.emit")
		ev.Parent = scanCtx.Span
		ev.Unit = sh.seq
		ev.Country = sh.country
		ev.Phase = cfg.Phase
		ev.Outcome = sh.lost.outcome()
		ev.VirtNS = virt
		ev.WallNS = wall
		ev.Attrs = []trace.Attr{{K: "samples", V: strconv.Itoa(len(sh.out))}}
		cfg.Trace.Record(ev)
	}
	sh.out = nil // release bodies as soon as the sink has seen them
	sh.staging = nil
	sh.events = nil
}
