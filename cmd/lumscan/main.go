// Command lumscan is the interactive face of the scanning engine: probe
// chosen domains from chosen countries through the simulated
// residential proxy mesh and print per-sample results — the workflow
// the paper's operators used when manually verifying block pages.
//
//	lumscan -domains airbnb.fr,fasttech.com -countries IR,CN,US -samples 5
//
// Pass -domains all to scan the whole (safe) Top-10K population, or
// -zgrab to use the bare ZGrab header set and watch bot defenses fire.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	stdnet "net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"geoblock"
	"geoblock/internal/faults"
	"geoblock/internal/fingerprint"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/runstore"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/telemetry"
	"geoblock/internal/trace"
)

func main() {
	domainsFlag := flag.String("domains", "airbnb.fr,fasttech.com,geniusdisplay.com", "comma-separated domains, or 'all'")
	countriesFlag := flag.String("countries", "US,IR,SY,CN,RU", "comma-separated country codes")
	samples := flag.Int("samples", 3, "samples per (domain, country) pair")
	scale := flag.Float64("scale", 0.1, "population scale in (0,1]")
	seed := flag.Uint64("seed", 403, "world seed")
	zgrab := flag.Bool("zgrab", false, "use the bare ZGrab header set instead of browser headers")
	showErrors := flag.Bool("errors", false, "print failed samples too")
	faultsFlag := flag.String("faults", "", "chaos profile to inject: "+strings.Join(faults.Names(), ", "))
	faultSeed := flag.Uint64("faultseed", 1, "fault-injection seed (reproducible chaos)")
	faultCountry := flag.String("faultcountry", "", "restrict the chaos profile to one country code (default: all)")
	metricsAddr := flag.String("metrics", "", "serve /debug/metrics (and pprof) on this address while the scan runs")
	metricsOut := flag.String("metrics-out", "", "write the final telemetry snapshot to this file (.json for JSON, else text)")
	traceOut := flag.String("trace", "", "write the run's wide-event trace to this file (.json: Chrome trace-event JSON, loadable in Perfetto)")
	storeDir := flag.String("store", "", "journal the scan to this directory (crash-safe; see -resume)")
	resume := flag.Bool("resume", false, "resume an interrupted scan from the -store journal instead of refusing it")
	serveFabric := flag.String("serve-fabric", "", "serve a distributed-scan coordinator on this address; the scan executes on scanworker processes instead of in-process")
	fabricReady := flag.String("fabric-ready-file", "", "write the coordinator's resolved listen address to this file (for scripts that spawn workers)")
	flag.Parse()

	// The world calibration is pinned explicitly (not via Seed/Scale
	// shorthand) because -serve-fabric ships it to workers verbatim.
	wcfg := geoblock.DefaultWorldConfig()
	if *seed != 0 {
		wcfg.Seed = *seed
	}
	if *scale != 0 {
		wcfg.Scale = *scale
	}
	sys := geoblock.New(geoblock.Options{World: &wcfg})
	net := proxy.NewNetwork(sys.World)
	cls := fingerprint.NewClassifier()

	// An interactive scan runs on the wall clock so span durations and
	// the fetch-latency histogram mean something.
	reg := telemetry.NewWithClock(telemetry.Wall{})

	// -trace arms the tracer for the whole run: wall stamps for the
	// Perfetto timeline, flight dumps to stderr on an Outage, and a
	// crash-path dump if the process panics.
	var tracer *geoblock.Tracer
	if *traceOut != "" {
		tracer = geoblock.NewTracer(wcfg.Seed).WithWall(telemetry.Wall{}).WithFlightSink(os.Stderr)
		defer trace.CrashDump(tracer, os.Stderr)
	}
	if *metricsAddr != "" {
		srv := telemetry.MetricsServer(*metricsAddr, reg)
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "lumscan: metrics server: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "lumscan: metrics on http://%s/debug/metrics\n", *metricsAddr)
	}

	if *faultsFlag != "" {
		profile, ok := faults.Named(*faultsFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "lumscan: unknown fault profile %q (have: %s)\n",
				*faultsFlag, strings.Join(faults.Names(), ", "))
			os.Exit(2)
		}
		inj := faults.New(*faultSeed).Instrument(reg)
		if *faultCountry != "" {
			inj.Country(geo.CountryCode(strings.ToUpper(*faultCountry)), profile)
		} else {
			inj.Default(profile)
		}
		net.SetFaults(inj)
		fmt.Fprintf(os.Stderr, "lumscan: chaos profile %q (seed %d) active\n", *faultsFlag, *faultSeed)
	}

	// -serve-fabric: lease the scan's shards to worker processes instead
	// of fetching in-process. Output — samples, outages, journal — stays
	// byte-identical; only the fetching moves.
	var coord *geoblock.FabricCoordinator
	if *serveFabric != "" {
		spec := geoblock.FabricStudySpec{World: wcfg}
		if *faultsFlag != "" {
			profile := geoblock.FabricFaultSpec{Seed: *faultSeed, Profile: *faultsFlag, Country: strings.ToUpper(*faultCountry)}
			spec.Faults = &profile
		}
		coord = geoblock.NewFabric(geoblock.FabricOptions{Study: spec, Metrics: reg, Trace: tracer})
		coord.BindWorld(sys.World)
		ln, lerr := stdnet.Listen("tcp", *serveFabric)
		if lerr != nil {
			fmt.Fprintf(os.Stderr, "lumscan: fabric listener: %v\n", lerr)
			os.Exit(2)
		}
		fsrv := &http.Server{Handler: coord.Handler()}
		go func() {
			if serr := fsrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "lumscan: fabric server: %v\n", serr)
			}
		}()
		defer fsrv.Close()
		if *fabricReady != "" {
			if werr := os.WriteFile(*fabricReady, []byte(ln.Addr().String()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "lumscan: fabric-ready-file: %v\n", werr)
				os.Exit(2)
			}
		}
		fmt.Fprintf(os.Stderr, "lumscan: fabric coordinator on http://%s (start workers: scanworker -coordinator http://%s)\n", ln.Addr(), ln.Addr())
	}

	var domains []string
	if *domainsFlag == "all" {
		for _, d := range sys.World.Top10K() {
			domains = append(domains, d.Name)
		}
	} else {
		for _, d := range strings.Split(*domainsFlag, ",") {
			d = strings.TrimSpace(d)
			if d == "" {
				continue
			}
			if _, ok := sys.World.Lookup(d); !ok {
				fmt.Fprintf(os.Stderr, "lumscan: %s does not exist in this world (seed %d, scale %.2f)\n", d, *seed, *scale)
				os.Exit(2)
			}
			domains = append(domains, d)
		}
	}

	var countries []geo.CountryCode
	for _, c := range strings.Split(*countriesFlag, ",") {
		c = strings.TrimSpace(strings.ToUpper(c))
		if c != "" {
			countries = append(countries, geo.CountryCode(c))
		}
	}

	cfg := scanner.DefaultConfig()
	cfg.Samples = *samples
	cfg.Phase = "cli"
	cfg.Metrics = reg
	cfg.Trace = tracer
	if *zgrab {
		cfg.Headers = scanner.ZGrabHeaders()
	}

	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "lumscan: -resume requires -store")
		os.Exit(2)
	}
	var store *runstore.Store
	if *storeDir != "" {
		st, oerr := runstore.Open(*storeDir, runstore.Options{Metrics: reg})
		if oerr != nil {
			fmt.Fprintf(os.Stderr, "lumscan: %v\n", oerr)
			os.Exit(2)
		}
		if info, ok := st.Phase("cli"); ok && !*resume {
			st.Close()
			fmt.Fprintf(os.Stderr, "lumscan: %s already holds a journal (%d shards checkpointed); pass -resume to continue it, or point -store at a fresh directory\n",
				*storeDir, info.Shards)
			os.Exit(2)
		} else if ok {
			fmt.Fprintf(os.Stderr, "lumscan: resuming from %s: %d shards / %d samples journaled\n",
				*storeDir, info.Shards, info.Samples)
		}
		defer st.Close()
		store = st
	}

	// Stream results as shards complete (canonical order is preserved
	// by the engine), and let Ctrl-C cancel a long run cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopProgress := telemetry.StartProgress(os.Stderr, 2*time.Second, func() string {
		return "lumscan: " + scanner.ProgressLine(reg)
	})
	fmt.Printf("%-28s %-4s %-3s %-8s %-6s %-16s %s\n",
		"DOMAIN", "CC", "N", "STATUS", "BYTES", "EXIT", "PAGE")
	tasks := scanner.CrossProduct(len(domains), len(countries))
	sink := &cliSink{emit: func(s scanner.Sample) {
		domain := domains[s.Domain]
		cc := countries[s.Country]
		if !s.OK() {
			if *showErrors {
				fmt.Printf("%-28s %-4s %-3d %-8s %-6s %-16s -\n",
					domain, cc, s.Attempt, "ERR", "-", s.Err)
			}
			return
		}
		page := "-"
		if s.Body != "" {
			if k := cls.Classify(s.Body); k != 0 {
				page = k.String()
			}
		}
		fmt.Printf("%-28s %-4s %-3d %-8d %-6d %-16s %s\n",
			domain, cc, s.Attempt, s.Status, s.BodyLen, s.ExitIP, page)
	}}
	runScan := func(cfg scanner.Config, sk scanner.Sink) error {
		if coord != nil {
			return coord.RunPhase(ctx, domains, countries, tasks, cfg, sk)
		}
		return scanner.Run(ctx, net, domains, countries, tasks, cfg, sk)
	}
	var err error
	if store != nil {
		err = store.Scan(runstore.Scan{
			Key:         "cli",
			Fingerprint: scanFingerprint(*seed, *scale, domains, countries, *samples, *zgrab),
			Cfg:         cfg,
			Sink:        sink,
			Run:         runScan,
		})
	} else {
		err = runScan(cfg, sink)
	}
	stopProgress()
	if coord != nil {
		coord.FinishStudy()
		// Grace period: let polling workers observe study-done and exit
		// cleanly before the coordinator endpoint disappears.
		time.Sleep(time.Second) //geolint:allow determinism worker-drain grace period on the real wall clock
	}
	if *metricsOut != "" {
		if werr := reg.Snapshot().WriteFile(*metricsOut); werr != nil {
			fmt.Fprintf(os.Stderr, "lumscan: metrics-out: %v\n", werr)
		}
	}
	if *traceOut != "" {
		snap := tracer.Snapshot()
		if werr := snap.WriteFile(*traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "lumscan: trace: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "lumscan: %d trace events written to %s (open in ui.perfetto.dev)\n", len(snap.Events), *traceOut)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lumscan: phase %q failed: %v\n", cfg.Phase, err)
		os.Exit(1)
	}
}

// cliSink streams samples to stdout and the degradation accounting —
// per-country outages and the attained-vs-requested coverage line — to
// stderr, where it survives piping the sample stream elsewhere.
type cliSink struct {
	emit func(scanner.Sample)
}

func (c *cliSink) Emit(s scanner.Sample) { c.emit(s) }

func (c *cliSink) EmitOutage(o scanner.Outage) {
	fmt.Fprintf(os.Stderr, "lumscan: outage %s (%s): %d/%d shards, %d tasks lost\n",
		o.Country, o.Reason, o.Shards, o.ShardsTotal, o.Tasks)
}

func (c *cliSink) EmitCoverage(cov scanner.Coverage) {
	if cov.Full() {
		return
	}
	fmt.Fprintf(os.Stderr, "lumscan: coverage %d/%d countries attained (%d tasks lost; lost: %s)\n",
		cov.Attained, cov.Requested, cov.TasksLost, joinCountries(cov.Lost))
}

// scanFingerprint digests the scan's identity for the journal, so a
// -store directory reused with different inputs errors instead of
// splicing two different scans. Concurrency is deliberately absent.
func scanFingerprint(seed uint64, scale float64, domains []string, countries []geo.CountryCode, samples int, zgrab bool) uint64 {
	h := stats.FNV1a("lumscan-cli")
	h = stats.Mix64(h ^ seed)
	h = stats.Mix64(h ^ math.Float64bits(scale))
	for _, d := range domains {
		h = stats.Mix64(h ^ stats.FNV1a(d))
	}
	for _, c := range countries {
		h = stats.Mix64(h ^ stats.FNV1a(string(c)))
	}
	h = stats.Mix64(h ^ uint64(samples))
	if zgrab {
		h = stats.Mix64(h ^ 1)
	}
	return h
}

func joinCountries(ccs []geo.CountryCode) string {
	if len(ccs) == 0 {
		return "none fully"
	}
	parts := make([]string, len(ccs))
	for i, cc := range ccs {
		parts[i] = string(cc)
	}
	return strings.Join(parts, ",")
}
