package geoblock

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"geoblock/internal/analysis"
	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/papertables"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
)

// resumeRun executes the Top-10K study once, optionally journaled, and
// returns the result, the rendered paper tables, and the deterministic
// telemetry snapshot.
func resumeRun(t *testing.T, store *RunStore, reg *telemetry.Registry) (*Top10KResult, string, string) {
	t.Helper()
	s := New(Options{Scale: 0.02, Seed: 11, Metrics: reg, Store: store})
	r := s.RunTop10K(Top10KConfig{})
	var tables bytes.Buffer
	papertables.PrintCoverage(&tables, "top10k initial snapshot", r.Outages, r.Coverage)
	papertables.PrintTable1(&tables, analysis.BuildTable1(r))
	rows, total := analysis.BuildTable2(r)
	papertables.PrintTable2(&tables, rows, total)
	papertables.PrintTable5(&tables, s.World.Geo, analysis.BuildTable5(s.World, r.Findings))
	return r, tables.String(), reg.Snapshot().Deterministic().Text()
}

// TestStudyResumeAfterCrash is the end-to-end resume contract: kill a
// journaled Top-10K study partway through — a crashed store or a
// cancelled context — reopen the directory with a fresh System, and the
// resumed study's findings, paper tables, and deterministic telemetry
// are byte-identical to a run that was never interrupted.
func TestStudyResumeAfterCrash(t *testing.T) {
	refResult, refTables, refSnap := resumeRun(t, nil, telemetry.New())

	// A journaled run with no crash must change nothing.
	dir := t.TempDir()
	st, err := OpenRunStore(dir, RunStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, tables, snap := resumeRun(t, st, telemetry.New())
	st.Close()
	if tables != refTables {
		t.Fatalf("journaling changed the paper tables:\n--- journaled ---\n%s\n--- reference ---\n%s", tables, refTables)
	}
	if snap != refSnap {
		t.Fatalf("journaling changed the deterministic snapshot:\n--- journaled ---\n%s\n--- reference ---\n%s", snap, refSnap)
	}

	for _, in := range []interruption{
		// The store severs at a seeded record count, every later phase
		// fails fast, and the study limps to a partial result.
		{name: "store crash", store: RunStoreOptions{Crash: faults.New(7).StoreCrash(500)}, want: runstore.ErrSevered},
		// The study's context is cancelled inside a unit of the initial
		// phase, with other units in flight: none of them may be
		// checkpointed as complete.
		{name: "cancel mid-phase", arm: cancelAtFetch(5000), want: context.Canceled},
	} {
		t.Run(in.name, func(t *testing.T) {
			dir := t.TempDir()
			interrupted, err := OpenRunStore(dir, in.store)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Scale: 0.02, Seed: 11, Metrics: telemetry.New(), Store: interrupted}
			var hook func(*System)
			if in.arm != nil {
				hook = in.arm(&opts)
			}
			sys := New(opts)
			if hook != nil {
				hook(sys)
			}
			_ = sys.RunTop10K(Top10KConfig{})
			if err := sys.study.Err(); !errors.Is(err, in.want) {
				t.Fatalf("interrupted study error = %v, want %v", err, in.want)
			}
			interrupted.Close()

			// Resume: a fresh System over a reopened journal replays the
			// committed prefix and finishes the rest.
			resumed, err := OpenRunStore(dir, RunStoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			if phases := resumed.Phases(); len(phases) == 0 {
				t.Fatal("interrupted journal holds no phases; the interruption landed before any scan")
			}
			result, tables, snap := resumeRun(t, resumed, telemetry.New())
			if len(result.Findings) != len(refResult.Findings) {
				t.Fatalf("resumed study found %d instances, reference %d", len(result.Findings), len(refResult.Findings))
			}
			for i := range result.Findings {
				if result.Findings[i] != refResult.Findings[i] {
					t.Fatalf("resumed finding %d differs:\n%+v\n%+v", i, result.Findings[i], refResult.Findings[i])
				}
			}
			if tables != refTables {
				t.Fatalf("resumed paper tables differ:\n--- resumed ---\n%s\n--- reference ---\n%s", tables, refTables)
			}
			if snap != refSnap {
				t.Fatalf("resumed deterministic snapshot differs:\n--- resumed ---\n%s\n--- reference ---\n%s", snap, refSnap)
			}
		})
	}
}

// interruption is one way a journaled study dies partway through.
type interruption struct {
	name  string
	store RunStoreOptions
	// arm, when non-nil, wires the interruption into the options of the
	// study to interrupt and returns a hook to apply to its System.
	arm  func(*Options) func(*System)
	want error
}

// cancelAtFetch cancels the study's context from inside its k-th
// residential fetch, by running its scans through a runner whose
// transports count round trips.
func cancelAtFetch(k int64) func(*Options) func(*System) {
	return func(o *Options) func(*System) {
		ctx, cancel := context.WithCancel(context.Background())
		o.Ctx = ctx
		return func(s *System) {
			var n atomic.Int64
			st := s.study
			st.Runner = func(ctx context.Context, domains []string, countries []geo.CountryCode, tasks []scanner.Task, cfg scanner.Config, sink scanner.Sink) error {
				cfg.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
					return countingTransport{rt: rt, hit: func() {
						if n.Add(1) == k {
							cancel()
						}
					}}
				}
				return scanner.Run(ctx, st.Net, domains, countries, tasks, cfg, sink)
			}
		}
	}
}

// countingTransport calls hit before every round trip.
type countingTransport struct {
	rt  http.RoundTripper
	hit func()
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.hit()
	return c.rt.RoundTrip(req)
}
