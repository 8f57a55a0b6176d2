package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"geoblock"
	"geoblock/internal/analysis"
	"geoblock/internal/fabric"
	"geoblock/internal/papertables"
	"geoblock/internal/pipeline"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
	"geoblock/internal/verdict"
	"geoblock/internal/worldgen"
)

// fabricWorkers is the worker count of the fabric workload: one per
// CPU of the 2-CPU box the benchmark is sized for, each holding one
// connection to the coordinator.
const fabricWorkers = 2

// worldConfig is the j-th world a workload seed stands for. The
// program under test receives only this config.
func worldConfig(seed uint64, j int, scale float64) worldgen.Config {
	cfg := worldgen.DefaultConfig()
	// World seed 0 means "the default seed" to the program, so world
	// seeds start at 1.
	cfg.Seed = seed*worldsPerSeed + uint64(j) + 1
	cfg.Scale = scale
	return cfg
}

// digest condenses everything a study reports into one hex string: the
// findings, the per-phase sample counts, coverage, the deterministic
// telemetry snapshot and the rendered findings summary and Tables 1
// and 2. Two studies of the same world must digest identically.
func digest(r *pipeline.Top10KResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "samples initial=%d resample=%d candidates=%d eliminated=%d\n",
		len(r.Initial.Samples), r.CandidatePairs*r.Config.ResampleCount, r.CandidatePairs, r.Eliminated)
	fmt.Fprintf(h, "coverage %+v outages %d\n", r.Coverage, len(r.Outages))
	for _, f := range r.Findings {
		fmt.Fprintf(h, "finding %s %d %s %v %d/%d\n", f.DomainName, f.Rank, f.Country, f.Kind, f.Rate.Blocks, f.Rate.Responses)
	}
	if r.Telemetry != nil {
		io.WriteString(h, r.Telemetry.Text())
	}
	papertables.FindingsSummary(h, r)
	papertables.PrintTable1(h, analysis.BuildTable1(r))
	rows, total := analysis.BuildTable2(r)
	papertables.PrintTable2(h, rows, total)
	return hex.EncodeToString(h.Sum(nil))
}

// system is one constructed study under test.
type system struct {
	run     func() *pipeline.Top10KResult
	err     func() error
	metrics *telemetry.Registry
}

// sysOpts are the deployment choices a workload makes.
type sysOpts struct {
	metrics *telemetry.Registry
	trace   *trace.Tracer
	store   *runstore.Store
	fabric  *fabric.Coordinator
}

// newSystem builds the study. Untraced, it goes through the public
// facade exactly as the CLIs do. Traced, it mirrors geoblock.New step
// by step so the harness can time world generation and put its timing
// runner in the pipeline's Runner seam.
func newSystem(cfg worldgen.Config, o sysOpts, l *layers) *system {
	if l == nil {
		sys := geoblock.New(geoblock.Options{World: &cfg, Metrics: o.metrics, Trace: o.trace, Store: o.store, Fabric: o.fabric})
		return &system{
			run:     func() *pipeline.Top10KResult { return sys.RunTop10K(geoblock.Top10KConfig{}) },
			err:     sys.Err,
			metrics: sys.Metrics(),
		}
	}
	start := time.Now()
	w := worldgen.Generate(cfg)
	l.worldgen(time.Since(start))
	st := pipeline.New(w)
	if o.metrics != nil {
		st.Metrics = o.metrics
	}
	st.Trace = o.trace
	st.Store = o.store
	var inner pipeline.ScanRunner
	if o.fabric != nil {
		o.fabric.BindWorld(w)
		inner = o.fabric.RunPhase
	}
	st.Runner = l.runner(st.Net, inner)
	// geoblock.New always compiles the verdict snapshot at the end of a
	// study; keep that work in the traced study too.
	st.VerdictOut = func(*verdict.Snapshot) {}
	return &system{
		run: func() *pipeline.Top10KResult {
			start := time.Now()
			r := st.RunTop10K(pipeline.Top10KConfig{})
			l.studyDone(st, r, time.Since(start))
			return r
		},
		err:     st.Err,
		metrics: st.Metrics,
	}
}

// rep is what one repetition of a workload measured.
type rep struct {
	setup, study, resume time.Duration
	samples              int64
	mallocs              uint64
	peakHeap             uint64
	attempted, failed    int
	world                int // index of the seed's world it ran on
}

// bench carries one invocation's inputs and running tallies.
type bench struct {
	world worldgen.Config // the world the next repetition runs on
	work  string          // scratch directory for journals and trace files
	ref   string          // digest of the bare in-process study of world
	log   io.Writer
	reps  int
	// setupOnly makes a repetition stop after its set-up: the extra
	// set-ups that steady the setup_s median.
	setupOnly bool
}

// startSetup collects the heap left by the previous repetition, so
// every set-up starts from the same state, and starts its clock.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

// check counts one finished study, failing it when the system reported
// an error or its output's digest differs from any of wants. It
// returns the digest.
func (b *bench) check(r *rep, what string, err error, res *pipeline.Top10KResult, wants ...string) string {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(b.log, "perfbench: %s failed: %v\n", what, err)
		return ""
	}
	got := digest(res)
	for _, want := range wants {
		if got != want {
			r.failed++
			fmt.Fprintf(b.log, "perfbench: %s output differs: digest %s, want %s\n", what, got, want)
			break
		}
	}
	return got
}

// measure runs f from a collected heap and reports its wall time, the
// heap allocations the whole process made meanwhile, and the peak of
// the heap's object bytes (live objects and those not yet collected),
// sampled every millisecond: the heap a user of the study pays for.
func measure(f func()) (wall time.Duration, mallocs, peak uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hp := startHeapPeak()
	start := time.Now()
	f()
	wall = time.Since(start)
	peak = hp.stop()
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs, peak
}

// heapObjects is the runtime metric heapPeak samples.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapPeak samples the heap's object bytes until stopped.
type heapPeak struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

// reference runs the bare in-process study of b.world and returns its
// digest. It is every workload's correctness oracle and, run first,
// the warm-up before anything is timed.
func (b *bench) reference() (string, error) {
	sys := newSystem(b.world, sysOpts{}, nil)
	res := sys.run()
	if err := sys.err(); err != nil {
		return "", fmt.Errorf("reference study: %w", err)
	}
	return digest(res), nil
}

// repTop10K is the bare in-process study: no journal, no tracer, the
// default virtual-clock registry.
func (b *bench) repTop10K(l *layers) (rep, error) {
	var r rep
	start := startSetup()
	sys := newSystem(b.world, sysOpts{}, l)
	r.setup = time.Since(start)
	if b.setupOnly {
		return r, nil
	}
	var res *pipeline.Top10KResult
	r.study, r.mallocs, r.peakHeap = measure(func() { res = sys.run() })
	r.samples = sys.metrics.Counter(scanner.MetSinkSamples).Value()
	b.check(&r, "top10k study", sys.err(), res, b.ref)
	// Without a journal a restarted study reruns in full.
	r.resume = r.study
	return r, nil
}

// repDurable is the study as `lumscan -store -trace -metrics` runs it:
// a cold run journaled into a fresh directory under a wall-clock
// registry and tracer, its Chrome trace exported, then the same study
// resumed over the completed journal.
func (b *bench) repDurable(l *layers) (rep, error) {
	var r rep
	b.reps++
	dir := filepath.Join(b.work, fmt.Sprintf("journal-%d", b.reps))
	traceFile := filepath.Join(b.work, fmt.Sprintf("trace-%d.json", b.reps))
	defer os.RemoveAll(dir)
	defer os.Remove(traceFile)

	start := startSetup()
	reg := telemetry.NewWithClock(telemetry.Wall{})
	store, err := geoblock.OpenRunStore(dir, geoblock.RunStoreOptions{Metrics: reg})
	if err != nil {
		return r, err
	}
	tr := geoblock.NewTracer(b.world.Seed).WithWall(telemetry.Wall{})
	sys := newSystem(b.world, sysOpts{metrics: reg, trace: tr, store: store}, l)
	r.setup = time.Since(start)
	if b.setupOnly {
		return r, store.Close()
	}

	var res *pipeline.Top10KResult
	var exportErr error
	r.study, r.mallocs, r.peakHeap = measure(func() {
		res = sys.run()
		exportErr = exportTrace(tr, traceFile, l)
	})
	r.samples = sys.metrics.Counter(scanner.MetSinkSamples).Value()
	cold := b.check(&r, "durable cold study", errors.Join(sys.err(), exportErr), res, b.ref)
	if err := store.Close(); err != nil {
		return r, fmt.Errorf("closing journal: %w", err)
	}
	l.journal(dir)

	// The resumes: reopen the complete journal and rerun the study over
	// it, resumesPerRep times, since one resume is short enough for a
	// scheduling hiccup to matter. World generation is not timed.
	var resumes []float64
	for k := 0; k < resumesPerRep; k++ {
		d, err := b.resumeOnce(dir, traceFile, cold, &r, l)
		if err != nil {
			return r, err
		}
		resumes = append(resumes, d.Seconds())
	}
	r.resume = time.Duration(median(resumes) * float64(time.Second))
	return r, nil
}

// resumesPerRep is how many resumes one durable repetition times.
const resumesPerRep = 3

// resumeOnce reopens the complete journal in dir, reruns the study over
// it with a fresh wall-clock registry and tracer, exports the trace,
// and checks the output against the reference and the cold half. It
// returns the time from reopen to export.
func (b *bench) resumeOnce(dir, traceFile, cold string, r *rep, l *layers) (time.Duration, error) {
	reg := telemetry.NewWithClock(telemetry.Wall{})
	tr := geoblock.NewTracer(b.world.Seed).WithWall(telemetry.Wall{})
	openStart := time.Now()
	store, err := geoblock.OpenRunStore(dir, geoblock.RunStoreOptions{Metrics: reg})
	open := time.Since(openStart)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	l.journalOpen(open)
	sys := newSystem(b.world, sysOpts{metrics: reg, trace: tr, store: store}, l)
	var res *pipeline.Top10KResult
	var exportErr error
	resumed, _, _ := measure(func() {
		res = sys.run()
		exportErr = exportTrace(tr, traceFile, nil)
	})
	wants := []string{b.ref}
	if cold != "" {
		wants = append(wants, cold)
	}
	b.check(r, "durable resumed study", errors.Join(sys.err(), exportErr), res, wants...)
	return open + resumed, nil
}

// exportTrace writes the tracer's Chrome trace-event JSON to path, the
// `-trace` flag's output.
func exportTrace(tr *trace.Tracer, path string, l *layers) error {
	start := time.Now()
	snap := tr.Snapshot()
	if err := snap.WriteFile(path); err != nil {
		return err
	}
	if l != nil {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		l.traceExport(len(snap.Events), fi.Size(), time.Since(start))
	}
	return nil
}

// repFabric routes the study through an in-process coordinator serving
// loopback HTTP to fabricWorkers workers that behave as cmd/scanworker
// does: one connection each and a real time.Sleep backoff.
func (b *bench) repFabric(l *layers) (rep, error) {
	var r rep
	start := startSetup()
	coord := geoblock.NewFabric(geoblock.FabricOptions{
		Study:   geoblock.FabricStudySpec{World: b.world},
		Metrics: telemetry.New(),
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := make([]*geoblock.FabricWorker, fabricWorkers)
	transports := make([]*http.Transport, fabricWorkers)
	errs := make([]error, fabricWorkers)
	var wg sync.WaitGroup
	for i := range workers {
		transports[i] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer transports[i].CloseIdleConnections()
		opts := geoblock.FabricWorkerOptions{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("perfbench-%d", i),
			Client:      &http.Client{Transport: transports[i]},
			Sleep:       time.Sleep,
		}
		l.instrumentWorker(i, &opts)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workers[i], errs[i] = geoblock.NewFabricWorker(ctx, opts)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return r, fmt.Errorf("starting fabric workers: %w", err)
	}
	sys := newSystem(b.world, sysOpts{fabric: coord}, l)
	r.setup = time.Since(start)
	if b.setupOnly {
		return r, nil
	}

	var res *pipeline.Top10KResult
	r.study, r.mallocs, r.peakHeap = measure(func() {
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *geoblock.FabricWorker) {
				defer wg.Done()
				runStart := time.Now()
				errs[i] = w.Run(ctx)
				l.workerDone(i, time.Since(runStart))
			}(i, w)
		}
		res = sys.run()
		coord.FinishStudy()
	})
	// Workers notice the finished study on their next poll; their exit
	// is not part of the study.
	wg.Wait()
	l.fabricDone()
	r.samples = sys.metrics.Counter(scanner.MetSinkSamples).Value()
	b.check(&r, "fabric study", errors.Join(append([]error{sys.err()}, errs...)...), res, b.ref)
	r.resume = r.study
	return r, nil
}
