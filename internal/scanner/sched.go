// The scheduler layer: deterministic sharding and a work-stealing
// worker pool with canonical-order emission.
package scanner

import (
	"context"
	"strconv"
	"sync"

	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

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
	return hash(country + "/" + phase + "/" + strconv.Itoa(index))
}

// deque is one worker's queue of unit sequence numbers. The owner pops
// from the front (low canonical sequence first); thieves steal from the
// back, so a skewed country's tail chunks migrate to idle workers.
type deque struct {
	mu   sync.Mutex
	seqs []int
}

func (d *deque) popFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.seqs) == 0 {
		return 0, false
	}
	seq := d.seqs[0]
	d.seqs = d.seqs[1:]
	return seq, true
}

func (d *deque) stealBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.seqs) == 0 {
		return 0, false
	}
	seq := d.seqs[len(d.seqs)-1]
	d.seqs = d.seqs[:len(d.seqs)-1]
	return seq, true
}

// emitter delivers completed shards to the sink in canonical order: a
// reorder frontier holds out-of-order completions until every earlier
// shard has been emitted. Emit is therefore always called sequentially
// and in the same order regardless of scheduling.
type emitter struct {
	mu        sync.Mutex
	sink      Sink
	shardSink ShardSink // sink's ShardSink side, when it has one
	shards    []*shard
	done      []bool
	next      int
	reg       *telemetry.Registry
	// tr/scanCtx/phase carry the trace wiring: staged unit events are
	// appended (and the per-shard "sink.emit" event recorded) inside
	// the frontier loop, which is what makes the merged stream's order
	// canonical regardless of scheduling or process count.
	tr      *trace.Tracer
	scanCtx trace.SpanCtx
	phase   string
	// stop, when closed, ends emission at the next shard boundary: the
	// in-process pool sets it to its ctx.Done(), so a cancelled scan
	// leaves the sink a prefix of whole shards and delivers no buffered
	// shard after the cancellation.
	stop <-chan struct{}
}

// newEmitter builds the Assembly's canonical-order emitter, whose
// emission-time accounting — metrics merge, ShardDone, trace append —
// is therefore identical in process and on the fabric.
func newEmitter(sink Sink, shards []*shard, skip int, reg *telemetry.Registry, tr *trace.Tracer, scanCtx trace.SpanCtx, phase string) *emitter {
	done := make([]bool, len(shards))
	for i := 0; i < skip; i++ {
		done[i] = true
	}
	em := &emitter{sink: sink, shards: shards, done: done, next: skip, reg: reg, tr: tr, scanCtx: scanCtx, phase: phase}
	em.shardSink, _ = sink.(ShardSink)
	return em
}

func (e *emitter) complete(sh *shard) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done[sh.seq] = true
	for e.next < len(e.shards) && e.done[e.next] {
		select {
		case <-e.stop:
			return
		default:
		}
		ready := e.shards[e.next]
		for i := range ready.out {
			e.sink.Emit(ready.out[i])
		}
		if e.reg != nil {
			var bytes int64
			for i := range ready.out {
				bytes += int64(ready.out[i].BodyLen)
			}
			e.reg.Counter(MetSinkSamples).Add(int64(len(ready.out)))
			e.reg.Counter(MetSinkBytes).Add(bytes)
		}
		if ready.staging != nil {
			// Fold the shard's staged metrics into the main registry at
			// the canonical emission point. Merging is commutative, so
			// the totals equal a run that recorded them live.
			e.reg.Merge(ready.staging.Snapshot())
		}
		if e.shardSink != nil {
			var det *telemetry.Snapshot
			if ready.staging != nil {
				det = ready.staging.Snapshot().Deterministic()
			}
			e.shardSink.EmitShardDone(ShardDone{
				Seq:     ready.seq,
				Country: ready.country,
				Tasks:   len(ready.tasks),
				Samples: len(ready.out),
				Lost:    ready.lost,
				Metrics: det,
			})
		}
		if e.tr != nil {
			// Same canonical point as the metrics merge: unit events land
			// in frontier order, then the emission itself is recorded.
			e.tr.Append(ready.events)
			virt, wall := e.tr.Now()
			ev := trace.NewEvent(e.scanCtx.Child("sink.emit", ready.seq), "sink.emit")
			ev.Parent = e.scanCtx.Span
			ev.Unit = ready.seq
			ev.Country = ready.country
			ev.Phase = e.phase
			ev.Outcome = ready.lost.outcome()
			ev.VirtNS = virt
			ev.WallNS = wall
			ev.Attrs = []trace.Attr{{K: "samples", V: strconv.Itoa(len(ready.out))}}
			e.tr.Record(ev)
		}
		ready.out = nil // release bodies as soon as the sink has seen them
		ready.staging = nil
		ready.events = nil
		e.next++
	}
}

// schedule fans the pending units out over a work-stealing pool,
// calling run once per unit; run owns everything that happens to the
// unit's result (see Assembly.run). On context cancellation workers
// stop picking up units and schedule returns ctx.Err(). The pool only
// records its runtime-class metrics — the worker gauge and steals —
// and, through em's trace wiring, one "steal" event per migrated unit.
func schedule(ctx context.Context, pending []int, workers int, run func(context.Context, int), em *emitter) error {
	if len(pending) == 0 {
		return ctx.Err()
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}
	// Steal counts and the worker gauge depend on scheduling, so they
	// are runtime-class.
	em.reg.RuntimeGauge(MetWorkers).Set(int64(workers))
	steals := em.reg.RuntimeCounter(MetSteals)

	// Round-robin distribution: unit i starts on worker i%workers, so a
	// giant country's chunks are spread across the pool from the start
	// and stealing only handles residual imbalance.
	deques := make([]*deque, workers)
	for w := range deques {
		deques[w] = &deque{}
	}
	for i, seq := range pending {
		d := deques[i%workers]
		d.seqs = append(d.seqs, seq)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				seq, ok := deques[w].popFront()
				if !ok {
					for off := 1; off < workers && !ok; off++ {
						seq, ok = deques[(w+off)%workers].stealBack()
					}
					if ok {
						steals.Add(1)
						if em.tr != nil {
							// Which unit migrates depends entirely on
							// scheduling — runtime-class by definition.
							ev := trace.NewEvent(em.scanCtx.Child("steal", seq), "steal")
							ev.Parent = em.scanCtx.Span
							ev.Unit = seq
							ev.Phase = em.phase
							ev.Runtime = true
							_, ev.WallNS = em.tr.Now()
							ev.Attrs = []trace.Attr{{K: "worker", V: strconv.Itoa(w)}}
							em.tr.Record(ev)
						}
					}
				}
				if !ok {
					return // pool drained: the unit set is static
				}
				run(ctx, seq)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
