package main

import (
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported figure. The end-to-end and per-layer
// catalogues below are the program's half of BENCHMARK.json: the test
// suite holds the two to the same names, units and directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the study sees, printed by every untraced
// run (--trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"study_s", "s", "lower"},
	{"resume_s", "s", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"allocs_per_sample", "count", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is what the traced run (--trace 1) reports: one figure per
// module boundary the benchmark times, plus the derived self times and
// the harness's own overhead. A layer that does no work in a workload
// reports 0 there. Better is the direction an optimization of the
// layer should move the figure.
var perLayer = []metricDef{
	{"scanner.unit_us_p50", "us", "lower"},
	{"scanner.unit_us_tail", "us", "lower"},
	{"scanner.unit_allocs", "count", "lower"},
	{"scanner.unit_self_us", "us", "lower"},
	{"scanner.sink_emit_ns", "ns", "lower"},
	{"scanner.first_emit_ms", "ms", "lower"},
	{"scanner.emit_stall_max_ms", "ms", "lower"},
	{"proxy.session_open_ns", "ns", "lower"},
	{"vnet.client_do_ns", "ns", "lower"},
	{"vnet.client_do_allocs", "count", "lower"},
	{"vnet.roundtrip_ns", "ns", "lower"},
	{"vnet.roundtrip_allocs", "count", "lower"},
	{"vnet.self_ns", "ns", "lower"},
	{"net_http.self_ns", "ns", "lower"},
	{"cdn.serve_ns", "ns", "lower"},
	{"cdn.serve_allocs", "count", "lower"},
	{"blockpage.render_ns", "ns", "lower"},
	{"pipeline.scan_s", "s", "lower"},
	{"pipeline.tail_s", "s", "lower"},
	{"runstore.append_ns", "ns", "lower"},
	{"runstore.checkpoint_us_p50", "us", "lower"},
	{"runstore.checkpoint_us_tail", "us", "lower"},
	{"runstore.journal_bytes", "bytes", "lower"},
	{"runstore.open_ms", "ms", "lower"},
	{"runstore.replay_ns", "ns", "lower"},
	{"trace.events", "count", "lower"},
	{"trace.export_bytes", "bytes", "lower"},
	{"trace.export_ms", "ms", "lower"},
	{"textfeat.fit_transform_ms", "ms", "lower"},
	{"cluster.single_link_ms", "ms", "lower"},
	{"fingerprint.classify_ns", "ns", "lower"},
	{"fabric.lease_rpc_us_p50", "us", "lower"},
	{"fabric.lease_rpc_us_tail", "us", "lower"},
	{"fabric.complete_rpc_us_p50", "us", "lower"},
	{"fabric.complete_rpc_us_tail", "us", "lower"},
	{"fabric.complete_bytes", "bytes", "lower"},
	{"fabric.rpcs_per_unit", "count", "lower"},
	{"fabric.empty_lease_frac", "frac", "lower"},
	{"fabric.lease_wait_s", "s", "lower"},
	{"fabric.worker_busy_frac", "frac", "higher"},
	{"worldgen.generate_ms", "ms", "lower"},
	{"verdict.compile_ms", "ms", "lower"},
	{"harness.trace_overhead_frac", "frac", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (the mean of the middle two for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile picks the highest of p99.9, p99 and p90 that still has
// at least ten samples beyond it, falling back to the median for small
// sets. It returns the quantile and its value.
func tailQuantile(xs []float64) (q, v float64) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(xs))*(1-q)+1e-9 >= 10 {
			return q, quantile(xs, q)
		}
	}
	return 0.5, median(xs)
}

// mean returns the arithmetic mean of xs, or 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
