package scanner

import (
	"context"
	"testing"
)

// maxFetchAllocs is the allocation ceiling of one fetch of a plain 200
// sample through a proxy session: the request, its context and URL, the
// edge's headers and lazy body, and the response. It is the measured
// count; the same fetch through an http.Client cost 45.
const maxFetchAllocs = 14

// TestFetchAllocCeiling pins the per-fetch allocation count of the
// probe path's commonest sample, so a regression in the fetcher, the
// proxy, vnet or the edge shows in tier-1 rather than in a profile.
func TestFetchAllocCeiling(t *testing.T) {
	cfg := testConfig().withDefaults()
	se, err := openSession(testNet, "US", 0, cfg.retryPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newFetcher(context.Background(), se.transport(), cfg)
	for _, d := range testWorld.Top10K() {
		if d.RedirectHops != 0 || d.RedirectLoop || d.LuminatiRestricted || d.JunkRate > 0 {
			continue
		}
		seed := sampleSeed(d.Name, "US", "alloc", 0)
		if s := f.fetch(d.Name, seed, Task{}, 0, se.exitIP()); s.Err != ErrNone || s.Status != 200 || s.Body != "" {
			continue
		}
		allocs := testing.AllocsPerRun(200, func() {
			if s := f.fetch(d.Name, seed, Task{}, 0, se.exitIP()); s.Status != 200 {
				t.Fatalf("%s: status %d on a repeat fetch", d.Name, s.Status)
			}
		})
		t.Logf("%s: %.1f allocs per fetch", d.Name, allocs)
		if allocs > maxFetchAllocs {
			t.Fatalf("one 200 fetch of %s allocates %.1f times, ceiling %d", d.Name, allocs, maxFetchAllocs)
		}
		return
	}
	t.Fatal("no plain 200 domain in the test world")
}
