package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geoblock"
	"geoblock/internal/cdn"
	"geoblock/internal/censor"
	"geoblock/internal/cluster"
	"geoblock/internal/fabric"
	"geoblock/internal/geo"
	"geoblock/internal/pipeline"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/textfeat"
	"geoblock/internal/verdict"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// Replay sizes: how many of the study's units are re-executed one at a
// time, how many of their fetches are replayed through each network
// layer, and how many session opens time one unit's. Large enough for a
// stable mean, small enough to stay a small fraction of a traced run.
const (
	replayUnits   = 240
	replayFetches = 4000
	sessionOpens  = 64
)

// layers collects the traced run's per-layer timings. It is the
// harness's instrumentation: every figure comes from the benchmark's
// own wrappers around the calls it makes into the program's public
// functions and seams, never from spans inside the program. The hooks
// the repetitions call are no-ops on a nil *layers, the untraced run.
type layers struct {
	mu sync.Mutex

	// In-situ figures, gathered while traced studies run.
	unitUS       []float64 // ExecuteUnit wall per unit, µs
	emitNS       float64   // downstream Emit time, summed
	emits        int64
	checkpointUS []float64 // EmitShardDone into the journal, µs
	firstEmitMS  []float64 // per study: largest phase's wait for its first sample
	stallMaxMS   []float64 // per study: longest gap between two samples
	scanS, tailS []float64 // per study
	worldgenMS   []float64
	journalBytes []float64
	openMS       []float64
	traceEvents  []float64
	exportBytes  []float64
	exportMS     []float64

	// Fabric RPC figures.
	workers       [fabricWorkers]workerStats
	leaseUS       []float64
	completeUS    []float64
	completeBytes []float64
	rpcs, units   int64
	leases, waits int64
	leaseWaitS    []float64 // per study
	busyFrac      []float64 // per study

	// The phases of the study in flight, and of the last study that
	// executed units: the inputs the layer replay re-runs.
	cur      []phaseRun
	last     []phaseRun
	lastRes  *pipeline.Top10KResult
	lastStd  *pipeline.Study
	shardLog []scanner.ShardDone // first journaled phase's checkpoints

	// Replay figures, filled by replay.
	replayed map[string]float64
}

// phaseRun is one scan phase as the runner saw it.
type phaseRun struct {
	domains   []string
	countries []geo.CountryCode
	tasks     []scanner.Task
	cfg       scanner.Config
	wall      time.Duration
	samples   int64
	firstEmit time.Duration
	stallMax  time.Duration
	executed  int
}

// workerStats is one fabric worker's RPC and wait record, written only
// by that worker's goroutine while it runs.
type workerStats struct {
	rpc       time.Duration
	slept     time.Duration
	run       time.Duration
	lastEnd   time.Time
	unitGapUS []float64
}

func (l *layers) worldgen(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.worldgenMS = append(l.worldgenMS, ms(d))
	l.mu.Unlock()
}

func (l *layers) journal(dir string) {
	if l == nil {
		return
	}
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	l.journalBytes = append(l.journalBytes, float64(n))
}

func (l *layers) journalOpen(d time.Duration) {
	if l == nil {
		return
	}
	l.openMS = append(l.openMS, ms(d))
}

func (l *layers) traceExport(events int, bytes int64, d time.Duration) {
	if l == nil {
		return
	}
	l.traceEvents = append(l.traceEvents, float64(events))
	l.exportBytes = append(l.exportBytes, float64(bytes))
	l.exportMS = append(l.exportMS, ms(d))
}

// runner is the harness's pipeline.ScanRunner. In process it executes
// each phase's plan unit by unit through scanner.Plan.ExecuteUnit and
// scanner.Assembly, with the scanner's configured Concurrency, timing
// every unit; on the fabric it wraps the coordinator's RunPhase. Either
// way the sink is wrapped to time delivery.
func (l *layers) runner(net *proxy.Network, inner pipeline.ScanRunner) pipeline.ScanRunner {
	return func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error {
		ph := phaseRun{domains: domains, countries: countries, tasks: tasks, cfg: cfg}
		ts := &timedSink{next: sink, l: l, start: time.Now()}
		var err error
		if inner != nil {
			err = inner(ctx, domains, countries, tasks, cfg, ts)
		} else {
			ph.executed, err = l.execute(ctx, net, domains, countries, tasks, cfg, ts)
		}
		ph.wall = time.Since(ts.start)
		ph.samples, ph.firstEmit, ph.stallMax = ts.n, ts.first, ts.stall
		if inner != nil {
			ph.executed = len(tasks)
		}
		l.mu.Lock()
		l.cur = append(l.cur, ph)
		l.emitNS += float64(ts.spent.Nanoseconds())
		l.emits += ts.n
		l.mu.Unlock()
		return err
	}
}

// execute runs one phase the way the fabric does, in process: a plan,
// an assembly folding completions back into canonical order, and
// cfg.Concurrency goroutines taking pending units in order.
func (l *layers) execute(ctx context.Context, net *proxy.Network, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) (int, error) {
	plan := scanner.NewPlan(domains, countries, tasks, cfg)
	asm, err := scanner.NewAssembly(plan, sink)
	if err != nil {
		return 0, err
	}
	pending := asm.Pending()
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 8 // the scanner's default
	}
	var next atomic.Int64
	errs := make([]error, workers)
	unitUS := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) || errs[w] != nil {
					return
				}
				start := time.Now()
				res, err := plan.ExecuteUnit(ctx, net, pending[i])
				unitUS[w] = append(unitUS[w], us(time.Since(start)))
				if err == nil {
					err = asm.Complete(pending[i], res)
				}
				if err != nil {
					errs[w] = err
					next.Store(int64(len(pending)))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		asm.Abort()
		return len(pending), err
	}
	l.mu.Lock()
	for _, u := range unitUS {
		l.unitUS = append(l.unitUS, u...)
	}
	l.mu.Unlock()
	return len(pending), asm.Finish()
}

// timedSink times the delivery of each sample to the sink it wraps and
// the journal's checkpoint, and forwards the optional sink channels so
// journaling and outage accounting see exactly what they would have.
type timedSink struct {
	next  scanner.Sink
	l     *layers
	start time.Time
	last  time.Time
	n     int64
	first time.Duration
	stall time.Duration
	spent time.Duration
}

func (t *timedSink) Emit(s scanner.Sample) {
	now := time.Now()
	if t.n == 0 {
		t.first = now.Sub(t.start)
	} else if gap := now.Sub(t.last); gap > t.stall {
		t.stall = gap
	}
	t.n++
	t.next.Emit(s)
	t.last = time.Now()
	t.spent += t.last.Sub(now)
}

func (t *timedSink) EmitShardDone(d scanner.ShardDone) {
	ss, ok := t.next.(scanner.ShardSink)
	if !ok {
		return
	}
	start := time.Now()
	ss.EmitShardDone(d)
	el := time.Since(start)
	t.l.mu.Lock()
	t.l.checkpointUS = append(t.l.checkpointUS, us(el))
	if len(t.l.cur) == 0 && t.l.lastRes == nil {
		// The first journaled phase of the first cold study: its
		// checkpoints drive the journal replay exercise.
		t.l.shardLog = append(t.l.shardLog, d)
	}
	t.l.mu.Unlock()
}

func (t *timedSink) EmitOutage(o scanner.Outage) {
	if os, ok := t.next.(scanner.OutageSink); ok {
		os.EmitOutage(o)
	}
}

func (t *timedSink) EmitCoverage(c scanner.Coverage) {
	if os, ok := t.next.(scanner.OutageSink); ok {
		os.EmitCoverage(c)
	}
}

// studyDone files one traced study: its scan/tail split and its
// emission figures, taken from the phase with the most samples. A
// study that executed no units (a resume over a complete journal)
// keeps no scan figures; the last study that did is what the layer
// replay re-runs.
func (l *layers) studyDone(st *pipeline.Study, r *pipeline.Top10KResult, wall time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	phases := l.cur
	l.cur = nil
	executed := 0
	var scan, stall time.Duration
	var big phaseRun
	for _, ph := range phases {
		executed += ph.executed
		scan += ph.wall
		if ph.stallMax > stall {
			stall = ph.stallMax
		}
		if ph.samples > big.samples {
			big = ph
		}
	}
	if executed == 0 {
		return
	}
	l.scanS = append(l.scanS, scan.Seconds())
	l.tailS = append(l.tailS, (wall - scan).Seconds())
	l.firstEmitMS = append(l.firstEmitMS, ms(big.firstEmit))
	l.stallMaxMS = append(l.stallMaxMS, ms(stall))
	l.last, l.lastRes, l.lastStd = phases, r, st
}

// instrumentWorker gives fabric worker i a timing transport and a
// sleep hook that records the wall time it actually slept.
func (l *layers) instrumentWorker(i int, opts *geoblock.FabricWorkerOptions) {
	if l == nil {
		return
	}
	ws := &l.workers[i]
	base := opts.Client.Transport
	opts.Client = &http.Client{Transport: &rpcTimer{base: base, l: l, ws: ws}}
	opts.Sleep = func(d time.Duration) {
		start := time.Now()
		time.Sleep(d)
		ws.slept += time.Since(start)
		ws.lastEnd = time.Now()
		atomic.AddInt64(&l.waits, 1)
	}
}

func (l *layers) workerDone(i int, run time.Duration) {
	if l == nil {
		return
	}
	l.workers[i].run = run
}

// fabricDone folds the workers' records of one study into the per-study
// fabric figures and resets them.
func (l *layers) fabricDone() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var slept time.Duration
	var busy []float64
	for i := range l.workers {
		ws := &l.workers[i]
		slept += ws.slept
		if ws.run > 0 {
			busy = append(busy, float64(ws.run-ws.rpc-ws.slept)/float64(ws.run))
		}
		l.unitUS = append(l.unitUS, ws.unitGapUS...)
		l.workers[i] = workerStats{}
	}
	l.leaseWaitS = append(l.leaseWaitS, slept.Seconds())
	l.busyFrac = append(l.busyFrac, mean(busy))
}

// rpcTimer times each coordinator call from request to body close.
type rpcTimer struct {
	base http.RoundTripper
	l    *layers
	ws   *workerStats
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	path := req.URL.Path
	if path == fabric.PathComplete && !t.ws.lastEnd.IsZero() {
		// A worker runs one unit at a time between its calls, so the gap
		// before a completion is that unit's execution and encoding.
		t.ws.unitGapUS = append(t.ws.unitGapUS, us(start.Sub(t.ws.lastEnd)))
	}
	size := req.ContentLength
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.done(path, start, size)
		return nil, err
	}
	resp.Body = &closeTimer{ReadCloser: resp.Body, done: func() { t.done(path, start, size) }}
	return resp, nil
}

func (t *rpcTimer) done(path string, start time.Time, size int64) {
	end := time.Now()
	t.ws.lastEnd = end
	if path == fabric.PathStudy {
		return // part of the worker's set-up, not its study
	}
	d := end.Sub(start)
	t.ws.rpc += d
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rpcs++
	switch path {
	case fabric.PathLease:
		l.leases++
		l.leaseUS = append(l.leaseUS, us(d))
	case fabric.PathComplete:
		l.units++
		l.completeUS = append(l.completeUS, us(d))
		l.completeBytes = append(l.completeBytes, float64(size))
	}
}

// closeTimer calls done once, when the response body is closed.
type closeTimer struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (c *closeTimer) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(c.done)
	return err
}

// replay re-runs the last traced study's own work one call at a time,
// on one goroutine, to give each layer an uncontended cost: a sample of
// its units through ExecuteUnit, their session opens, and a sample of
// their fetches through vnet's client, vnet's RoundTrip and cdn.Serve.
// It then times the study's outlier corpus through TF-IDF, single-link
// clustering and the classifier, compiles its verdict snapshot, and, if
// the study was journaled, journals and replays its first phase again.
func (l *layers) replay(work string) error {
	l.replayed = map[string]float64{}
	st, r := l.lastStd, l.lastRes
	if st == nil {
		return errors.New("no traced study executed any scan unit")
	}
	if err := l.replayUnits(st); err != nil {
		return err
	}
	l.replayCorpus(st, r)
	if len(l.shardLog) > 0 {
		if err := l.replayJournal(work, r); err != nil {
			return err
		}
	}
	return nil
}

// replayUnits re-executes every k-th unit of the study's phases, then
// captures the fetches of a smaller sample and replays them layer by
// layer.
func (l *layers) replayUnits(st *pipeline.Study) error {
	ctx := context.Background()
	total := 0
	plans := make([]*scanner.Plan, len(l.last))
	for i, ph := range l.last {
		cfg := ph.cfg
		cfg.Resume = nil
		plans[i] = scanner.NewPlan(ph.domains, ph.countries, ph.tasks, cfg)
		total += plans[i].NumUnits()
	}
	stride := total/replayUnits + 1

	// Pass 1: plain re-execution, for the uncontended unit cost and
	// its allocations.
	var unitNS []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range plans {
		for seq := 0; seq < p.NumUnits(); seq += stride {
			start := time.Now()
			if _, err := p.ExecuteUnit(ctx, st.Net, seq); err != nil {
				return err
			}
			unitNS = append(unitNS, float64(time.Since(start).Nanoseconds()))
		}
	}
	runtime.ReadMemStats(&m1)
	l.replayed["unit_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(unitNS))
	l.replayed["unit_ns"] = mean(unitNS)

	// Session opens of the same units.
	var openNS []float64
	for _, p := range plans {
		for seq := 0; seq < p.NumUnits(); seq += stride {
			u := p.Unit(seq)
			start := time.Now()
			for k := 0; k < sessionOpens; k++ {
				if _, err := st.Net.NewSession(geo.CountryCode(u.Country), u.Slot); err != nil {
					return fmt.Errorf("session open for %s: %w", u.Country, err)
				}
			}
			openNS = append(openNS, float64(time.Since(start).Nanoseconds())/sessionOpens)
		}
	}
	l.replayed["session_open_ns"] = mean(openNS)

	// Pass 2: the same units again with a capturing transport. Every
	// fetch counts toward the fetches per unit; an even sample of them is
	// replayed layer by layer.
	capt := &fetchCapture{}
	units := 0
	for _, ph := range l.last {
		cfg := ph.cfg
		cfg.Resume = nil
		keep := bodyKeep(cfg)
		cfg.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
			return &captureRT{next: rt, world: st.World, capt: capt, keep: keep}
		}
		p := scanner.NewPlan(ph.domains, ph.countries, ph.tasks, cfg)
		for seq := 0; seq < p.NumUnits(); seq += stride {
			if _, err := p.ExecuteUnit(ctx, st.Net, seq); err != nil {
				return err
			}
			units++
		}
	}
	if len(capt.fetches) == 0 {
		return errors.New("layer replay captured no fetches")
	}
	l.replayed["fetches_per_unit"] = float64(len(capt.fetches)) / float64(units)
	every := len(capt.fetches)/replayFetches + 1
	sample := make([]fetch, 0, replayFetches)
	for i := 0; i < len(capt.fetches); i += every {
		sample = append(sample, capt.fetches[i])
	}
	return l.replayFetches(st.World, sample)
}

// fetch is one captured scanner request: what vnet needs to repeat it.
type fetch struct {
	domain string
	exit   geo.IP
	seed   uint64
	header http.Header
	keep   func(status, bodyLen int) bool
}

type fetchCapture struct {
	fetches []fetch
}

// captureRT records each fetch the scanner hands its proxy session
// that the session passes on to the network. Redirect hops are left
// out (the client replay follows those itself), and so are fetches the
// proxy answers itself: exit failures, local filters, platform
// refusals and unreachable paths, which never reach vnet.
type captureRT struct {
	next  http.RoundTripper
	world *worldgen.World
	capt  *fetchCapture
	keep  func(status, bodyLen int) bool
}

func (c *captureRT) RoundTrip(req *http.Request) (*http.Response, error) {
	sess, ok := c.next.(*proxy.Session)
	if !ok || req.Response != nil {
		return c.next.RoundTrip(req)
	}
	exit := sess.Exit().IP
	resp, err := c.next.RoundTrip(req)
	if !c.reachedNetwork(req, exit, resp, err) {
		return resp, err
	}
	seed, _ := vnet.SampleSeed(req.Context())
	c.capt.fetches = append(c.capt.fetches, fetch{
		domain: req.URL.Hostname(), exit: exit, seed: seed,
		header: req.Header.Clone(), keep: c.keep,
	})
	return resp, err
}

// reachedNetwork reports whether the proxy handed the fetch to vnet.
// A timeout is ambiguous (the proxy drops unreachable paths, vnet
// drops censored and dead hosts), so it is settled by asking vnet.
func (c *captureRT) reachedNetwork(req *http.Request, exit geo.IP, resp *http.Response, err error) bool {
	if resp != nil {
		return resp.Header.Get("X-Luminati-Error") == ""
	}
	var op *vnet.OpError
	if !errors.As(err, &op) {
		return true
	}
	switch {
	case op.Op == "proxy" || strings.HasSuffix(op.Msg, "local filter"):
		return false
	case op.Timeout():
		_, verr := vnet.NewStack(c.world, exit).RoundTrip(req)
		var vop *vnet.OpError
		return errors.As(verr, &vop) && vop.Timeout()
	}
	return true
}

// bodyKeep is the body-retention rule the scanner's fetcher applies
// for cfg: a custom KeepBody, or the one its Bodies policy stands for.
func bodyKeep(cfg scanner.Config) func(status, bodyLen int) bool {
	if cfg.KeepBody != nil {
		return cfg.KeepBody
	}
	switch cfg.Bodies {
	case scanner.BodyNone:
		return func(int, int) bool { return false }
	case scanner.BodyAll:
		return func(int, int) bool { return true }
	}
	return func(status, _ int) bool { return status != 200 && status != 301 && status != 302 }
}

// request builds f's request the way the fetcher does.
func (f fetch) request() *http.Request {
	ctx := vnet.WithSampleSeed(context.Background(), f.seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+f.domain+"/", nil)
	if err != nil {
		panic(err) // the domain came from a request that parsed
	}
	req.Header = f.header.Clone()
	return req
}

// readBody consumes resp's body when the fetcher would: always when
// the length is unknown, else when the retention rule keeps it.
func readBody(resp *http.Response, keep func(status, bodyLen int) bool) {
	if resp.ContentLength < 0 || keep(resp.StatusCode, int(resp.ContentLength)) {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
}

// hop is one RoundTrip a client fetch made, and whether its body was
// read.
type hop struct {
	req   *http.Request
	stack *vnet.Stack
	read  bool
}

// hopRecorder is a client transport that notes every hop.
type hopRecorder struct {
	stack *vnet.Stack
	hops  *[]hop
}

func (h *hopRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.stack.RoundTrip(req)
	*h.hops = append(*h.hops, hop{req: req, stack: h.stack})
	if resp != nil {
		resp.Body = &readMark{ReadCloser: resp.Body, hops: h.hops, idx: len(*h.hops) - 1}
	}
	return resp, err
}

// readMark flags its hop as read on the first Read.
type readMark struct {
	io.ReadCloser
	hops *[]hop
	idx  int
}

func (r *readMark) Read(p []byte) (int, error) {
	(*r.hops)[r.idx].read = true
	return r.ReadCloser.Read(p)
}

// replayFetches times the captured fetches through each network layer,
// one pass per layer so each pass's allocation count is its own:
//
//	vnet.Stack.Client().Do plus the body read the fetcher makes
//	vnet.Stack.RoundTrip plus the body read, for every hop of the fetch
//	cdn.Serve for every hop that reaches the edge
//
// and the body read alone, which renders the page. All four figures
// are per fetch, so the differences are the self times of net/http
// (client minus round trips) and of vnet (round trips minus edge and
// render). The passes repeat in rotating order and each reports its
// median round, so a burst of outside load hits one round, not one
// layer.
func (l *layers) replayFetches(w *worldgen.World, fetches []fetch) error {
	n := float64(len(fetches))

	// Discover each fetch's hops and which bodies get read.
	var hops []hop
	for _, f := range fetches {
		stack := vnet.NewStack(w, f.exit)
		c := &http.Client{Transport: &hopRecorder{stack: stack, hops: &hops}, CheckRedirect: stack.Client(10).CheckRedirect}
		resp, err := c.Do(f.request())
		if err == nil {
			readBody(resp, f.keep)
		}
	}
	var served []cdn.Request
	for _, h := range hops {
		if cr, ok := edgeRequest(w, h.stack.IP, h.req); ok {
			served = append(served, cr)
		}
	}

	var renderNS float64
	passes := []struct {
		name string
		n    int
		prep func()
		call func(i int)
	}{
		{"client_do", len(fetches), nil, nil},
		{"roundtrip", len(hops), func() { renderNS = 0 }, func(i int) {
			h := hops[i]
			resp, err := h.stack.RoundTrip(h.req)
			if err != nil {
				return
			}
			if h.read {
				start := time.Now()
				_, _ = io.Copy(io.Discard, resp.Body)
				renderNS += float64(time.Since(start).Nanoseconds())
			}
			resp.Body.Close()
		}},
		{"serve", len(served), nil, func(i int) { _ = cdn.Serve(w, served[i]) }},
	}
	// Client().Do, as the fetcher calls it: the requests and clients are
	// built before the pass, as the fetcher builds its client once.
	var reqs []*http.Request
	var clients []*http.Client
	passes[0].prep = func() {
		reqs = make([]*http.Request, len(fetches))
		clients = make([]*http.Client, len(fetches))
		for i, f := range fetches {
			reqs[i] = f.request()
			clients[i] = vnet.NewStack(w, f.exit).Client(10)
		}
	}
	passes[0].call = func(i int) {
		resp, err := clients[i].Do(reqs[i])
		if err == nil {
			readBody(resp, fetches[i].keep)
		}
	}

	const rounds = 5
	times := map[string][]float64{}
	allocs := map[string]float64{}
	var renders []float64
	for r := 0; r < rounds; r++ {
		for k := range passes {
			p := passes[(r+k)%len(passes)]
			if p.prep != nil {
				p.prep()
			}
			ns, a := timePass(p.n, p.call)
			times[p.name] = append(times[p.name], ns/n)
			allocs[p.name] = a / n
			if p.name == "roundtrip" {
				renders = append(renders, renderNS/n)
			}
		}
	}
	for _, p := range passes {
		l.replayed[p.name+"_ns"] = median(times[p.name])
		l.replayed[p.name+"_allocs"] = allocs[p.name]
	}
	l.replayed["render_ns"] = median(renders)
	return nil
}

// timePass runs f(0..n-1) from a collected heap and returns the summed
// wall time of the calls, in ns, and the process's heap allocations
// over the pass.
func timePass(n int, f func(i int)) (ns, allocs float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		f(i)
		total += time.Since(start)
	}
	runtime.ReadMemStats(&m1)
	return float64(total.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs)
}

// edgeRequest builds the cdn.Request vnet.Stack.RoundTrip hands the
// edge for req from ip, reporting false when RoundTrip would answer
// before reaching it (censorship, resolution failure, dropped
// connections).
func edgeRequest(w *worldgen.World, ip geo.IP, req *http.Request) (cdn.Request, bool) {
	host := strings.ToLower(req.URL.Hostname())
	seed, ok := vnet.SampleSeed(req.Context())
	if !ok {
		return cdn.Request{}, false
	}
	loc, _ := w.Geo.Locate(ip)
	d, found := w.Lookup(strings.TrimPrefix(host, "www."))
	if !found || censor.Check(d, loc) != censor.None || d.Unreachable || d.TimeoutBlockedIn(loc) {
		return cdn.Request{}, false
	}
	return cdn.Request{
		Domain: d, Host: host, Path: req.URL.Path, Method: req.Method, Scheme: req.URL.Scheme,
		ClientIP: ip, Header: req.Header, Clock: w.Clock(), SampleSeed: seed,
	}, true
}

// replayCorpus times the study's text stages on the study's own
// outlier corpus, and its verdict compile on its own findings.
func (l *layers) replayCorpus(st *pipeline.Study, r *pipeline.Top10KResult) {
	docs := make([]string, len(r.Outliers))
	for i := range r.Outliers {
		docs[i] = r.Outliers[i].Body
	}
	start := time.Now()
	_, vecs := textfeat.FitTransform(docs)
	l.replayed["fit_transform_ms"] = ms(time.Since(start))

	opts := cluster.DefaultOptions()
	opts.Workers = r.Config.Concurrency
	start = time.Now()
	cluster.SingleLink(docs, vecs, opts)
	l.replayed["single_link_ms"] = ms(time.Since(start))

	var classifyNS []float64
	for _, doc := range docs {
		start := time.Now()
		st.Classifier.Classify(doc)
		classifyNS = append(classifyNS, float64(time.Since(start).Nanoseconds()))
	}
	l.replayed["classify_ns"] = mean(classifyNS)

	src := verdict.Source{
		Version: uint64(st.World.Clock()), Seed: st.World.Cfg.Seed,
		Domains: r.SafeDomains, Countries: r.Countries,
	}
	for _, f := range r.Findings {
		src.Entries = append(src.Entries, verdict.Entry{Domain: f.DomainName, Country: f.Country, Kind: f.Kind})
	}
	start = time.Now()
	_, err := verdict.Compile(src)
	l.replayed["compile_ms"] = ms(time.Since(start))
	if err != nil {
		l.replayed["compile_ms"] = 0
	}
}

// replayJournal journals the study's initial snapshot again, shard by
// shard with the checkpoints the cold run wrote, into a fresh journal
// through runstore.Store.Scan, timing each append; then reopens it and
// times Store.Scan replaying the completed phase.
func (l *layers) replayJournal(work string, r *pipeline.Top10KResult) error {
	dir := filepath.Join(work, "replay-journal")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	samples := r.Initial.Samples
	cfg := scanner.Config{Phase: "perfbench-replay"}
	sc := runstore.Scan{Key: "perfbench-replay", Fingerprint: 1, Cfg: cfg, Sink: scanner.SinkFunc(func(scanner.Sample) {})}

	store, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		return err
	}
	var appendNS float64
	appended := 0
	sc.Run = func(_ scanner.Config, sink scanner.Sink) error {
		ss := sink.(scanner.ShardSink)
		for _, d := range l.shardLog {
			if appended+d.Samples > len(samples) {
				break
			}
			for _, s := range samples[appended : appended+d.Samples] {
				start := time.Now()
				ss.Emit(s)
				appendNS += float64(time.Since(start).Nanoseconds())
			}
			appended += d.Samples
			ss.EmitShardDone(d)
		}
		return nil
	}
	if err := store.Scan(sc); err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	if appended == 0 {
		return errors.New("journal replay appended no samples")
	}
	l.replayed["append_ns"] = appendNS / float64(appended)

	store, err = runstore.Open(dir, runstore.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	sc.Run = func(scanner.Config, scanner.Sink) error { return nil }
	start := time.Now()
	if err := store.Scan(sc); err != nil {
		return err
	}
	l.replayed["replay_ns"] = float64(time.Since(start).Nanoseconds()) / float64(appended)
	return nil
}

// report turns the traced run into the per-layer metrics, and the
// self-time table into text.
func (l *layers) report(tracedStudyS, untracedStudyS []float64) (map[string]float64, string) {
	m := map[string]float64{}
	rp := l.replayed
	m["scanner.unit_us_p50"] = median(l.unitUS)
	_, m["scanner.unit_us_tail"] = tailQuantile(l.unitUS)
	m["scanner.unit_allocs"] = rp["unit_allocs"]
	if l.emits > 0 {
		m["scanner.sink_emit_ns"] = l.emitNS / float64(l.emits)
	}
	m["scanner.first_emit_ms"] = median(l.firstEmitMS)
	m["scanner.emit_stall_max_ms"] = median(l.stallMaxMS)
	m["proxy.session_open_ns"] = rp["session_open_ns"]
	m["vnet.client_do_ns"] = rp["client_do_ns"]
	m["vnet.client_do_allocs"] = rp["client_do_allocs"]
	m["vnet.roundtrip_ns"] = rp["roundtrip_ns"]
	m["vnet.roundtrip_allocs"] = rp["roundtrip_allocs"]
	m["cdn.serve_ns"] = rp["serve_ns"]
	m["cdn.serve_allocs"] = rp["serve_allocs"]
	m["blockpage.render_ns"] = rp["render_ns"]
	m["net_http.self_ns"] = rp["client_do_ns"] - rp["roundtrip_ns"]
	m["vnet.self_ns"] = rp["roundtrip_ns"] - rp["serve_ns"] - rp["render_ns"]
	unitChildrenNS := rp["session_open_ns"] + rp["fetches_per_unit"]*rp["client_do_ns"]
	m["scanner.unit_self_us"] = (rp["unit_ns"] - unitChildrenNS) / 1e3
	m["pipeline.scan_s"] = median(l.scanS)
	m["pipeline.tail_s"] = median(l.tailS)
	m["runstore.append_ns"] = rp["append_ns"]
	m["runstore.checkpoint_us_p50"] = median(l.checkpointUS)
	_, m["runstore.checkpoint_us_tail"] = tailQuantile(l.checkpointUS)
	m["runstore.journal_bytes"] = median(l.journalBytes)
	m["runstore.open_ms"] = median(l.openMS)
	m["runstore.replay_ns"] = rp["replay_ns"]
	m["trace.events"] = median(l.traceEvents)
	m["trace.export_bytes"] = median(l.exportBytes)
	m["trace.export_ms"] = median(l.exportMS)
	m["textfeat.fit_transform_ms"] = rp["fit_transform_ms"]
	m["cluster.single_link_ms"] = rp["single_link_ms"]
	m["fingerprint.classify_ns"] = rp["classify_ns"]
	m["fabric.lease_rpc_us_p50"] = median(l.leaseUS)
	_, m["fabric.lease_rpc_us_tail"] = tailQuantile(l.leaseUS)
	m["fabric.complete_rpc_us_p50"] = median(l.completeUS)
	_, m["fabric.complete_rpc_us_tail"] = tailQuantile(l.completeUS)
	m["fabric.complete_bytes"] = mean(l.completeBytes)
	if l.units > 0 {
		m["fabric.rpcs_per_unit"] = float64(l.rpcs) / float64(l.units)
	}
	if l.leases > 0 {
		m["fabric.empty_lease_frac"] = float64(l.waits) / float64(l.leases)
	}
	m["fabric.lease_wait_s"] = median(l.leaseWaitS)
	m["fabric.worker_busy_frac"] = median(l.busyFrac)
	m["worldgen.generate_ms"] = median(l.worldgenMS)
	m["verdict.compile_ms"] = rp["compile_ms"]
	if u := median(untracedStudyS); u > 0 {
		m["harness.trace_overhead_frac"] = median(tracedStudyS)/u - 1
	}
	return m, l.selfTable(m, median(untracedStudyS))
}

// selfTable lays out each layer's cost per call, its self time (the
// call minus its timed children), the calls one study makes, and the
// layer's self time as a share of the study's CPU time (study_s times
// the CPUs the process may use). Layers timed in the uncontended layer
// replay carry their replay cost; the rest are in-situ.
func (l *layers) selfTable(m map[string]float64, studyS float64) string {
	rp := l.replayed
	res := l.lastRes
	units := 0.0
	for _, ph := range l.last {
		units += float64(scanner.NewPlan(ph.domains, ph.countries, ph.tasks, ph.cfg).NumUnits())
	}
	fetches := units * rp["fetches_per_unit"]
	cpu := studyS * float64(runtime.GOMAXPROCS(0))
	type row struct {
		layer       string
		callNS      float64
		selfNS      float64
		calls       float64
		description string
	}
	rows := []row{
		{"scanner.unit", rp["unit_ns"], m["scanner.unit_self_us"] * 1e3, units, "ExecuteUnit − session open − fetches"},
		{"proxy.session_open", rp["session_open_ns"], rp["session_open_ns"], units, "Network.NewSession"},
		{"vnet.client_do", rp["client_do_ns"], m["net_http.self_ns"], fetches, "net/http: client_do − roundtrip"},
		{"vnet.roundtrip", rp["roundtrip_ns"], m["vnet.self_ns"], fetches, "vnet: roundtrip − serve − render"},
		{"cdn.serve", rp["serve_ns"], rp["serve_ns"], fetches, "cdn.Serve"},
		{"blockpage.render", rp["render_ns"], rp["render_ns"], fetches, "body read"},
	}
	if l.emits > 0 {
		rows = append(rows, row{"scanner.sink_emit", m["scanner.sink_emit_ns"], m["scanner.sink_emit_ns"], float64(l.emits) / float64(len(l.scanS)), "downstream sink"})
	}
	if res != nil {
		rows = append(rows,
			row{"fingerprint.classify", rp["classify_ns"], rp["classify_ns"], float64(len(res.Outliers)), "per outlier body"},
			row{"textfeat.fit_transform", rp["fit_transform_ms"] * 1e6, rp["fit_transform_ms"] * 1e6, 1, "outlier corpus"},
			row{"cluster.single_link", rp["single_link_ms"] * 1e6, rp["single_link_ms"] * 1e6, 1, "outlier corpus"},
			row{"verdict.compile", rp["compile_ms"] * 1e6, rp["compile_ms"] * 1e6, 1, "findings"},
		)
	}
	if len(l.checkpointUS) > 0 {
		per := float64(len(l.checkpointUS)) / float64(len(l.scanS))
		rows = append(rows, row{"runstore.checkpoint", m["runstore.checkpoint_us_p50"] * 1e3, m["runstore.checkpoint_us_p50"] * 1e3, per, "EmitShardDone (p50)"})
		rows = append(rows, row{"runstore.append", rp["append_ns"], rp["append_ns"], float64(l.emits) / float64(len(l.scanS)), "per journaled sample"})
	}
	if len(l.exportMS) > 0 {
		rows = append(rows, row{"trace.export", m["trace.export_ms"] * 1e6, m["trace.export_ms"] * 1e6, 1, "Chrome JSON"})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].selfNS*rows[i].calls > rows[j].selfNS*rows[j].calls })
	var b strings.Builder
	fmt.Fprintf(&b, "self time per layer (study_s %.3f s x %d CPUs = %.3f CPU-s)\n", studyS, runtime.GOMAXPROCS(0), cpu)
	fmt.Fprintf(&b, "%-24s %14s %14s %12s %10s %8s  %s\n", "layer", "ns/call", "self ns/call", "calls", "self s", "share", "self = ")
	for _, r := range rows {
		selfS := r.selfNS * r.calls / 1e9
		share := 0.0
		if cpu > 0 {
			share = selfS / cpu
		}
		fmt.Fprintf(&b, "%-24s %14.0f %14.0f %12.0f %10.4f %7.1f%%  %s\n", r.layer, r.callNS, r.selfNS, r.calls, selfS, 100*share, r.description)
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
