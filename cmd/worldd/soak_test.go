package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/verdict"
)

// soakParams sizes the sustained-QPS soak. The default (always-on)
// shape keeps `go test ./...` fast; `make soak` sets GEOBLOCK_SOAK=full
// for the real run: more clients, a longer window, and the latency and
// throughput floors enforced.
type soakParams struct {
	clients  int
	duration time.Duration
	full     bool
}

func soakConfig() soakParams {
	if os.Getenv("GEOBLOCK_SOAK") == "full" {
		return soakParams{clients: 32, duration: 3 * time.Second, full: true}
	}
	return soakParams{clients: 8, duration: 300 * time.Millisecond, full: false}
}

// soakExpect is the ground truth the clients validate against, per
// snapshot version: the soak serves version 1 first, then swaps to
// version 2 mid-run. A response is judged against the version it
// *reports*, so in-flight requests across the swap stay valid.
func soakExpect(version uint64, domain string, cc string) (blocked bool, kind string, known bool) {
	if cc != "CN" && cc != "US" {
		return false, "", false
	}
	switch domain {
	case "blocked.example":
		if cc == "CN" {
			return true, "Cloudflare", true
		}
		return false, "", true
	case "swap.example":
		if cc == "CN" && version >= 2 {
			return true, "Akamai", true
		}
		return false, "", true
	case "clear.example":
		return false, "", true
	default:
		return false, "", false
	}
}

// TestVerdictSoak drives the verdict edge with concurrent clients for
// a sustained window, swaps the snapshot atomically mid-soak via
// POST /v1/snapshot, and asserts zero dropped or incorrect verdicts.
// Full mode (GEOBLOCK_SOAK=full) additionally enforces a p99 service
// latency bound from the telemetry histogram and a ≥1M lookups/s
// in-process floor.
func TestVerdictSoak(t *testing.T) {
	p := soakConfig()
	srv, edge, reg := newEdgeServer(t, nil) // shedding off: every request must be answered
	snapA := edgeSnapshot(t, 1)
	snapB := edgeSnapshot(t, 2)
	edge.Swap(snapA)

	queries := []struct{ domain, cc string }{
		{"blocked.example", "CN"},
		{"swap.example", "CN"},
		{"clear.example", "US"},
		{"blocked.example", "US"},
		{"nope.example", "CN"},    // outside universe: always 404
		{"blocked.example", "ZZ"}, // outside universe: always 404
	}

	wall := telemetry.Wall{}
	deadline := wall.Now().Add(p.duration)
	swapAt := wall.Now().Add(p.duration / 2)

	var (
		wg       sync.WaitGroup
		lookups  atomic.Int64
		notMod   atomic.Int64
		failures atomic.Int64
		firstErr atomic.Pointer[string]
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstErr.CompareAndSwap(nil, &msg)
	}

	client := func(id int) {
		defer wg.Done()
		rng := stats.NewRNG(uint64(id + 1)).Fork("soak")
		hc := &http.Client{}
		var lastETag string
		for i := 0; wall.Now().Before(deadline); i++ {
			q := queries[rng.Intn(len(queries))]
			switch {
			case i%16 == 15:
				// Bulk round trip over the full query set.
				var sb strings.Builder
				sb.WriteString(`{"queries":[`)
				for j, bq := range queries {
					if j > 0 {
						sb.WriteString(",")
					}
					fmt.Fprintf(&sb, `{"domain":%q,"cc":%q}`, bq.domain, bq.cc)
				}
				sb.WriteString("]}")
				resp, err := hc.Post(srv.URL+"/v1/verdicts", "application/json", strings.NewReader(sb.String()))
				if err != nil {
					fail("bulk: %v", err)
					return
				}
				var out struct {
					Version uint64       `json:"version"`
					Results []bulkResult `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("bulk: status %d err %v", resp.StatusCode, err)
					return
				}
				for j, res := range out.Results {
					blocked, kind, known := soakExpect(out.Version, queries[j].domain, queries[j].cc)
					if res.Found != known || res.Blocked != blocked || res.Kind != kind {
						fail("bulk v%d (%s,%s): got %+v want found=%v blocked=%v kind=%q",
							out.Version, queries[j].domain, queries[j].cc, res, known, blocked, kind)
						return
					}
				}
				lookups.Add(int64(len(out.Results)))
			default:
				req, err := http.NewRequest(http.MethodGet,
					srv.URL+"/v1/verdict?domain="+q.domain+"&cc="+q.cc, nil)
				if err != nil {
					fail("request: %v", err)
					return
				}
				// Periodically revalidate with the last seen tag — the
				// swap must rotate the validator, never serve a stale 304
				// for a changed matrix.
				if i%8 == 7 && lastETag != "" {
					req.Header.Set("If-None-Match", lastETag)
				}
				resp, err := hc.Do(req)
				if err != nil {
					fail("get: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				lookups.Add(1)
				_, _, known := soakExpect(1, q.domain, q.cc)
				switch resp.StatusCode {
				case http.StatusNotModified:
					if resp.Header.Get("ETag") != lastETag {
						fail("304 under a different ETag")
						return
					}
					notMod.Add(1)
				case http.StatusNotFound:
					if known {
						fail("(%s,%s): dropped to 404 mid-soak", q.domain, q.cc)
						return
					}
				case http.StatusOK:
					if !known {
						fail("(%s,%s): 200 for an outside-universe pair", q.domain, q.cc)
						return
					}
					var v verdictBody
					if err := json.Unmarshal(body, &v); err != nil {
						fail("(%s,%s): bad body %q", q.domain, q.cc, body)
						return
					}
					if v.Version != 1 && v.Version != 2 {
						fail("(%s,%s): foreign snapshot version %d", q.domain, q.cc, v.Version)
						return
					}
					blocked, kind, _ := soakExpect(v.Version, q.domain, q.cc)
					if v.Blocked != blocked || v.Kind != kind {
						fail("v%d (%s,%s): got blocked=%v kind=%q want blocked=%v kind=%q",
							v.Version, q.domain, q.cc, v.Blocked, v.Kind, blocked, kind)
						return
					}
					lastETag = resp.Header.Get("ETag")
				default:
					fail("(%s,%s): status %d (%s)", q.domain, q.cc, resp.StatusCode, body)
					return
				}
			}
		}
	}

	wg.Add(p.clients)
	for i := 0; i < p.clients; i++ {
		go client(i)
	}

	// The swapper: once the soak is half done, publish snapshot B
	// through the management endpoint — the edge must not drop a single
	// request across the swap.
	wg.Add(1)
	swapped := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(swapped)
		for wall.Now().Before(swapAt) {
			yieldSoak()
		}
		resp, err := http.Post(srv.URL+"/v1/snapshot", "application/octet-stream",
			strings.NewReader(string(snapB.Encode())))
		if err != nil {
			fail("swap: %v", err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("swap: status %d", resp.StatusCode)
		}
	}()
	wg.Wait()
	<-swapped

	if failures.Load() > 0 {
		t.Fatalf("%d incorrect/dropped verdicts; first: %s", failures.Load(), *firstErr.Load())
	}
	if lookups.Load() == 0 {
		t.Fatal("soak performed no lookups")
	}
	// The swap landed: the edge now answers with snapshot B.
	resp, err := http.Get(srv.URL + "/v1/verdict?domain=swap.example&cc=CN")
	if err != nil {
		t.Fatal(err)
	}
	var v verdictBody
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.Version != 2 || !v.Blocked || v.Kind != "Akamai" {
		t.Fatalf("post-soak verdict %+v, want the snapshot-B answer", v)
	}
	t.Logf("soak: %d clients, %d lookups (%d revalidated 304) over %v; swap mid-soak ok",
		p.clients, lookups.Load(), notMod.Load(), p.duration)

	// p99 service latency from the telemetry histogram: walk the bins
	// to the 99th percentile. Enforced in full mode; quick mode only
	// requires that the histogram recorded traffic.
	var hist *telemetry.HistogramStats
	metricsSnap := reg.Snapshot()
	for i := range metricsSnap.Histograms {
		if metricsSnap.Histograms[i].Name == verdict.HistLookupNanos {
			hist = &metricsSnap.Histograms[i]
		}
	}
	if hist == nil || hist.Total == 0 {
		t.Fatal("soak recorded no lookup latencies")
	}
	p99 := histP99(*hist)
	t.Logf("soak: p99 service latency ≤ %v (%d observations, %d beyond range)",
		time.Duration(p99), hist.Total, hist.OutOfRange)
	if p.full && raceEnabled == false {
		const bound = 1e6 // 1ms: the histogram's full range
		if p99 > bound {
			t.Fatalf("p99 service latency %v exceeds %v", time.Duration(p99), time.Duration(int64(bound)))
		}
	}

	// In-process lookup throughput floor: the matrix itself must serve
	// ≥1M lookups/s (the HTTP stack above it is the transport tax).
	doms := snapB.Domains()
	ccs := snapB.Countries()
	const n = 2_000_000
	start := wall.Now()
	var sink bool
	for i := 0; i < n; i++ {
		v, _ := snapB.Lookup(doms[i%len(doms)], ccs[i%len(ccs)])
		sink = v.Blocked
	}
	_ = sink
	elapsed := wall.Now().Sub(start)
	rate := float64(n) / elapsed.Seconds()
	t.Logf("soak: in-process %0.1fM lookups/s", rate/1e6)
	if !raceEnabled && rate < 1e6 {
		t.Fatalf("in-process lookup rate %.0f/s below the 1M/s floor", rate)
	}
}

// histP99 returns the nanosecond upper edge of the bin holding the
// 99th-percentile observation. Observations beyond the histogram range
// count as the range maximum.
func histP99(h telemetry.HistogramStats) float64 {
	target := (h.Total*99 + 99) / 100 // ceil(0.99 * total)
	seen := 0
	width := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			return h.Min + width*float64(i+1)
		}
	}
	return h.Max
}

// yieldSoak parks the swapper between deadline polls without a
// wall-clock sleep (this package sits under the determinism lint).
func yieldSoak() { runtime.Gosched() }
