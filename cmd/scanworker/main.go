// Command scanworker is the worker side of the distributed scan
// fabric: it dials a coordinator (lumscan -serve-fabric, or geoscan
// -fabric), regenerates the coordinator's deterministic world from the
// study spec, and executes leased scan shards until the study is done.
//
//	scanworker -coordinator http://127.0.0.1:7403
//
// Run as many scanworker processes as you like — the merged output on
// the coordinator is byte-identical regardless of worker count, and a
// worker that dies mid-shard just forfeits its lease.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"geoblock"
	"geoblock/internal/faults"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:7403", "coordinator base URL")
	name := flag.String("name", "", "worker name in leases and logs (default: scanworker-<pid>)")
	dialFor := flag.Duration("dial-for", 30*time.Second, "keep retrying the first coordinator contact for this long")
	killAfter := flag.Int64("kill-after", 0, "chaos: die (exit 3) after executing roughly this many units, before reporting the last one; 0 disables")
	killSeed := flag.Uint64("kill-seed", 1, "chaos: seed for the -kill-after death draw")
	verbose := flag.Bool("v", false, "log leases and phase changes")
	traceOut := flag.String("trace", "", "write this worker's local wide-event trace to this file (.json: Chrome trace-event JSON); unit events ship to the coordinator regardless")
	flag.Parse()

	if *name == "" {
		*name = fmt.Sprintf("scanworker-%d", os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The worker always carries a local tracer: when chaos (or a panic)
	// kills it, the flight recorder dumps the last events to stderr —
	// the post-mortem for a process that never reports home. The
	// deterministic unit events still ship to the coordinator through
	// the completion payload; this tracer is the worker's own black box.
	tracer := geoblock.NewTracer(0).WithWall(telemetry.Wall{}).WithFlightSink(os.Stderr)
	defer trace.CrashDump(tracer, os.Stderr)

	opts := geoblock.FabricWorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Sleep:       time.Sleep, //geolint:allow determinism worker poll backoff waits on the real wall clock
		Trace:       tracer,
		// A wall-clock registry times each unit, so the coordinator's
		// country spans read real execution time.
		Metrics: telemetry.NewWithClock(telemetry.Wall{}),
	}
	if *verbose {
		opts.Log = func(format string, args ...any) { log.Printf(format, args...) }
	}
	if *killAfter > 0 {
		opts.Kill = faults.New(*killSeed).WorkerDeath(*killAfter)
		fmt.Fprintf(os.Stderr, "scanworker: chaos death armed (span %d, seed %d)\n", *killAfter, *killSeed)
	}

	// The coordinator usually starts a beat after its workers in
	// scripted runs; retry the first contact instead of dying on a
	// connection refused.
	var w *geoblock.FabricWorker
	deadline := telemetry.Wall{}.Now().Add(*dialFor)
	for {
		var err error
		w, err = geoblock.NewFabricWorker(ctx, opts)
		if err == nil {
			break
		}
		if ctx.Err() != nil || !(telemetry.Wall{}).Now().Before(deadline) {
			fmt.Fprintf(os.Stderr, "scanworker: cannot reach coordinator %s: %v\n", *coordinator, err)
			os.Exit(2)
		}
		time.Sleep(250 * time.Millisecond) //geolint:allow determinism coordinator dial retry on the real wall clock
	}
	fmt.Fprintf(os.Stderr, "scanworker: %s leasing from %s\n", *name, *coordinator)

	runErr := w.Run(ctx)
	// Written before the exit-code switch: os.Exit skips defers, and
	// the killed-worker trace is exactly the one worth keeping.
	if *traceOut != "" {
		snap := tracer.Snapshot()
		if werr := snap.WriteFile(*traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "scanworker: trace: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "scanworker: %d trace events written to %s\n", len(snap.Events), *traceOut)
		}
	}
	switch err := runErr; {
	case err == nil:
		fmt.Fprintf(os.Stderr, "scanworker: %s: study done\n", *name)
	case errors.Is(err, geoblock.ErrFabricWorkerKilled):
		fmt.Fprintf(os.Stderr, "scanworker: %s: %v\n", *name, err)
		os.Exit(3)
	default:
		fmt.Fprintf(os.Stderr, "scanworker: %s: %v\n", *name, err)
		os.Exit(1)
	}
}
