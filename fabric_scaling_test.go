package geoblock

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"geoblock/internal/telemetry"
)

// timedFabricStudy runs the Top-10K study distributed over nWorkers
// worker loops and returns the study's wall-clock duration. Unlike
// fabricRun it keeps the default lease TTL (never expiring under the
// registry's virtual clock), so no unit is ever re-issued and the
// measurement sees each unit execute exactly once.
func timedFabricStudy(t *testing.T, nWorkers int) time.Duration {
	t.Helper()
	wcfg := matrixWorld()
	reg := telemetry.New()
	coord := NewFabric(FabricOptions{
		Study:   FabricStudySpec{World: wcfg},
		Metrics: reg,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	workerErrs := make([]error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewFabricWorker(ctx, FabricWorkerOptions{
				Coordinator: srv.URL, Name: "w" + string(rune('a'+i)), Sleep: fabricYield,
			})
			if err != nil {
				workerErrs[i] = err
				return
			}
			workerErrs[i] = w.Run(ctx)
		}(i)
	}

	wall := telemetry.Wall{}
	start := wall.Now()
	s := New(Options{World: &wcfg, Metrics: reg, Fabric: coord})
	s.RunTop10K(Top10KConfig{})
	if err := s.Err(); err != nil {
		t.Fatalf("fabric study with %d workers aborted: %v", nWorkers, err)
	}
	coord.FinishStudy()
	wg.Wait()
	elapsed := wall.Now().Sub(start)
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return elapsed
}

// TestFabricScalesWithWorkers is the regression gate for an earlier
// finding: per-unit leasing made every fabric configuration slower than
// a single worker (4 workers ran ~43% behind), because each tiny unit
// cost a full coordinator round trip. With batched lease grants, adding
// a worker must actually help: 2 workers have to beat 1 on the same
// bench workload (the matrixWorld Top-10K study). Best-of-N absorbs
// scheduler noise; the comparison is relative, so machine speed is
// irrelevant.
func TestFabricScalesWithWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥2 CPUs for worker parallelism to be observable")
	}
	const attempts = 3
	var best1, best2 time.Duration
	for i := 0; i < attempts; i++ {
		d1 := timedFabricStudy(t, 1)
		d2 := timedFabricStudy(t, 2)
		if best1 == 0 || d1 < best1 {
			best1 = d1
		}
		if best2 == 0 || d2 < best2 {
			best2 = d2
		}
		if best2 < best1 {
			break
		}
	}
	t.Logf("fabric study: 1 worker %v, 2 workers %v (best of ≤%d)", best1, best2, attempts)
	if best2 >= best1 {
		t.Fatalf("2 workers (%v) did not beat 1 worker (%v): the lease path is serializing the fabric again", best2, best1)
	}
}
