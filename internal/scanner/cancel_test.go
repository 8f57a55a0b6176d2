package scanner

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"

	"geoblock/internal/geo"
	"geoblock/internal/proxy"
)

// shardLog is a ShardSink that groups the delivered samples by the
// checkpoint that closed them — what a journal commits per shard.
type shardLog struct {
	pending []Sample
	done    []ShardDone
	samples [][]Sample // samples[i] belong to done[i]
}

func (l *shardLog) Emit(s Sample) { l.pending = append(l.pending, s) }

func (l *shardLog) EmitShardDone(d ShardDone) {
	l.done = append(l.done, d)
	l.samples = append(l.samples, l.pending)
	l.pending = nil
}

// bySeq indexes a complete run's shards by sequence number.
func (l *shardLog) bySeq() map[int][]Sample {
	out := make(map[int][]Sample, len(l.done))
	for i, d := range l.done {
		out[d.Seq] = l.samples[i]
	}
	return out
}

// cancelAfter wraps every fetch transport so the k-th round trip of
// the run cancels it: the cancellation always lands inside a unit.
func cancelAfter(k int64, cancel context.CancelFunc) func(http.RoundTripper) http.RoundTripper {
	var n atomic.Int64
	return func(rt http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if n.Add(1) == k {
				cancel()
			}
			return rt.RoundTrip(req)
		})
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// checkCheckpoints asserts that every shard a cancelled run
// checkpointed is the complete shard of the uncancelled run: a
// checkpoint is a journal's commit point, so a truncated shard behind
// one would be replayed as complete on resume.
func checkCheckpoints(t *testing.T, k int64, got *shardLog, want map[int][]Sample) {
	t.Helper()
	for i, d := range got.done {
		ref := want[d.Seq]
		if d.Samples != len(ref) || len(got.samples[i]) != len(ref) {
			t.Fatalf("cancel at fetch %d: shard %d checkpointed with %d samples (%d delivered), uncancelled run has %d",
				k, d.Seq, d.Samples, len(got.samples[i]), len(ref))
		}
		for j := range ref {
			if got.samples[i][j] != ref[j] {
				t.Fatalf("cancel at fetch %d: shard %d sample %d differs from the uncancelled run", k, d.Seq, j)
			}
		}
	}
}

// TestCancelledRunCheckpointsWholeShards cancels a journaled Run at
// many points inside its units. A unit cancelled mid-execution must
// yield no result, so every ShardDone the sink sees matches the
// uncancelled run's shard sample for sample.
func TestCancelledRunCheckpointsWholeShards(t *testing.T) {
	domains, countries := smallInputs(64)
	tasks := CrossProduct(len(domains), len(countries))
	cfg := testConfig()
	cfg.Concurrency = 4

	var ref shardLog
	if err := Run(context.Background(), testNet, domains, countries, tasks, cfg, &ref); err != nil {
		t.Fatal(err)
	}
	want := ref.bySeq()
	total := int64(len(tasks) * cfg.Samples)
	for k := int64(1); k < total; k += 7 {
		ctx, cancel := context.WithCancel(context.Background())
		c := cfg
		c.WrapTransport = cancelAfter(k, cancel)
		var got shardLog
		err := Run(ctx, testNet, domains, countries, tasks, c, &got)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at fetch %d: %v", k, err)
		}
		checkCheckpoints(t, k, &got, want)
	}
}

// TestCancelledVPSRunCheckpointsWholeShards is the RunVPS form of
// TestCancelledRunCheckpointsWholeShards.
func TestCancelledVPSRunCheckpointsWholeShards(t *testing.T) {
	fleet := proxy.VPSFleet(testWorld, []geo.CountryCode{"IR", "US", "RU", "BR"})
	domains, _ := smallInputs(64)
	cfg := Config{Samples: 2, Headers: ZGrabHeaders(), Phase: "vps-cancel", Concurrency: 4, ShardSize: 8}

	var ref shardLog
	if err := RunVPS(context.Background(), fleet, domains, nil, cfg, &ref); err != nil {
		t.Fatal(err)
	}
	want := ref.bySeq()
	total := int64(len(domains) * len(fleet) * cfg.Samples)
	for k := int64(1); k < total; k += 5 {
		ctx, cancel := context.WithCancel(context.Background())
		c := cfg
		c.WrapTransport = cancelAfter(k, cancel)
		var got shardLog
		err := RunVPS(ctx, fleet, domains, nil, c, &got)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at fetch %d: %v", k, err)
		}
		checkCheckpoints(t, k, &got, want)
	}
}
