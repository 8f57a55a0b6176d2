// Command perfbench is the repository's benchmark: it runs the §4
// Top-10K study (geoblock.New + RunTop10K) in one of three deployments,
// checks every study's output against the bare in-process study of the
// same world, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separately instrumented run) as one JSON line.
//
//	go run . --workload top10k --seed 3 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"geoblock/internal/worldgen"
)

const (
	// scale sizes every workload's world: 500 Top-10K domains × 177
	// countries, a study of about two seconds on the 2-CPU machine the
	// benchmark is sized for.
	scale = 0.05
	// minReps is the fewest untraced repetitions a run makes, however
	// long they take.
	minReps = 3
	// minSetups is the fewest set-ups setup_s is the median of.
	minSetups = 21
	// worldsPerSeed is how many worlds one seed generates. Repetitions
	// cycle through them, so a run's figures average over several world
	// mixes instead of resting on one.
	worldsPerSeed = 3
)

// workloads maps each workload name to the repetition it runs.
var workloads = map[string]func(*bench, *layers) (rep, error){
	"top10k":  (*bench).repTop10K,
	"durable": (*bench).repDurable,
	"fabric":  (*bench).repFabric,
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64 // the tests shrink the world
	work     string
	minReps  int
	log      io.Writer
	// ref, when non-empty, replaces the reference digest the studies are
	// checked against (the tests corrupt it on purpose).
	ref string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: top10k, durable or fabric")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the studies' worlds are generated from it")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 runs the instrumented study and prints per-layer metrics")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for journals and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.traced = *trace == 1
	o.scale = scale
	o.minReps = minReps
	o.log = stderr
	if _, ok := workloads[o.workload]; !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload top10k|durable|fabric and --trace 0|1\n")
		return 2
	}
	res, err := runBench(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runBench runs one workload for o.seconds and summarizes it.
func runBench(o options) (*result, error) {
	work := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{work: work, log: o.log}

	// One reference study per world: the oracle, and the warm-up.
	worlds := make([]worldgen.Config, worldsPerSeed)
	refs := make([]string, worldsPerSeed)
	for j := range worlds {
		worlds[j] = worldConfig(o.seed, j, o.scale)
		b.world = worlds[j]
		ref, err := b.reference()
		if err != nil {
			return nil, err
		}
		refs[j] = ref
		if o.ref != "" {
			refs[j] = o.ref
		}
	}
	use := func(r int) int {
		j := r % worldsPerSeed
		b.world, b.ref = worlds[j], refs[j]
		return j
	}

	repFn := workloads[o.workload]
	var l *layers
	if o.traced {
		l = &layers{}
	}
	var plain, traced []rep
	start := time.Now()
	for i := 0; ; i++ {
		// A traced run alternates untraced and instrumented repetitions,
		// pairing each of its worlds once with each.
		var lr *layers
		w := i
		if o.traced {
			w = i / 2
			if i%2 == 1 {
				lr = l
			}
		}
		j := use(w)
		r, err := repFn(b, lr)
		if err != nil {
			return nil, err
		}
		r.world = j
		if lr != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		done := len(plain) >= o.minReps
		if o.traced {
			done = len(plain) >= 2 && len(traced) >= 2
		}
		elapsed := time.Since(start)
		perRep := elapsed / time.Duration(i+1)
		if done && (elapsed+perRep).Seconds() > o.seconds {
			break
		}
	}

	// Set up more times without studying, so setup_s is the median of
	// at least minSetups set-ups whatever the study length.
	setups := append([]rep(nil), plain...)
	b.setupOnly = true
	for len(setups) < minSetups {
		j := use(len(setups))
		r, err := repFn(b, nil)
		if err != nil {
			return nil, err
		}
		r.world = j
		setups = append(setups, r)
	}

	res := &result{Metrics: map[string]metricValue{}}
	for _, r := range append(append([]rep(nil), plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	e2e := map[string]float64{}
	for _, d := range endToEnd {
		reps := plain
		if d.Name == "setup_s" {
			reps = setups
		}
		e2e[d.Name] = overWorlds(reps, endToEndFns[d.Name])
	}
	printEndToEnd(o, plain, setups, e2e, res)

	if !o.traced {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{Value: e2e[d.Name], Unit: d.Unit}
		}
		return res, nil
	}
	if err := l.replay(work); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	layer, table := l.report(studySeconds(traced), studySeconds(plain))
	fmt.Fprint(o.log, table)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: layer[d.Name], Unit: d.Unit}
		fmt.Fprintf(o.log, "  %-30s %16.4f %s\n", d.Name, layer[d.Name], d.Unit)
	}
	return res, nil
}

func studySeconds(reps []rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.study.Seconds()
	}
	return out
}

// endToEndFns reads each end-to-end metric off one repetition.
var endToEndFns = map[string]func(rep) float64{
	"setup_s":           func(r rep) float64 { return r.setup.Seconds() },
	"study_s":           func(r rep) float64 { return r.study.Seconds() },
	"resume_s":          func(r rep) float64 { return r.resume.Seconds() },
	"samples_per_s":     func(r rep) float64 { return float64(r.samples) / r.study.Seconds() },
	"allocs_per_sample": func(r rep) float64 { return float64(r.mallocs) / float64(r.samples) },
	"peak_heap_mb":      func(r rep) float64 { return float64(r.peakHeap) / 1e6 },
}

// overWorlds reduces one metric over repetitions: the median within
// each world, averaged over the worlds. Averaging whole worlds keeps one
// seed's world mix from moving the figure as much as a single world
// would.
func overWorlds(reps []rep, f func(rep) float64) float64 {
	byWorld := make([][]float64, worldsPerSeed)
	for _, r := range reps {
		byWorld[r.world] = append(byWorld[r.world], f(r))
	}
	var meds []float64
	for _, xs := range byWorld {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return mean(meds)
}

// printEndToEnd writes the human-readable summary of the untraced
// repetitions to the log: each metric's reported value, and the
// quartiles and range of its repetitions across worlds, and the share
// of studies whose output failed the check.
func printEndToEnd(o options, plain, setups []rep, e2e map[string]float64, res *result) {
	fmt.Fprintf(o.log, "perfbench: workload %s, seed %d, %d worlds at scale %g, %d untraced repetitions, %d set-ups\n",
		o.workload, o.seed, worldsPerSeed, o.scale, len(plain), len(setups))
	fmt.Fprintf(o.log, "  %-20s %14s %14s %14s %14s %14s %s\n", "metric", "value", "q1", "q3", "min", "max", "unit")
	for _, d := range endToEnd {
		reps := plain
		if d.Name == "setup_s" {
			reps = setups
		}
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = endToEndFns[d.Name](r)
		}
		fmt.Fprintf(o.log, "  %-20s %14.4f %14.4f %14.4f %14.4f %14.4f %s\n", d.Name, e2e[d.Name],
			quantile(xs, 0.25), quantile(xs, 0.75), quantile(xs, 0), quantile(xs, 1), d.Unit)
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(o.log, "  %-20s %14.4f  (%d of %d studies)\n", "failed_frac", frac, res.Failed, res.Attempted)
}
