package scanner

import (
	"context"
	"testing"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/worldgen"
)

// The paper-level behaviours of the engine (§3.1, §3.2): what a scan
// of the simulated world measures, whatever its scheduling.

func mustScan(t *testing.T, domains []string, countries []geo.CountryCode, tasks []Task, cfg Config) *Result {
	t.Helper()
	res, err := Scan(context.Background(), testNet, domains, countries, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustScanVPS(t *testing.T, fleet []*proxy.VPS, domains []string, cfg Config) *Result {
	t.Helper()
	res, err := ScanVPS(context.Background(), fleet, domains, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestScanProducesAllSamples(t *testing.T) {
	domains, countries := smallInputs(40)
	cfg := DefaultConfig()
	cfg.Concurrency = 4
	res := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	want := len(domains) * len(countries) * cfg.Samples
	if len(res.Samples) != want {
		t.Fatalf("samples = %d, want %d", len(res.Samples), want)
	}
	okCount := 0
	for _, s := range res.Samples {
		if int(s.Domain) >= len(domains) || int(s.Country) >= len(countries) {
			t.Fatalf("sample indexes out of range: %+v", s)
		}
		if s.OK() {
			okCount++
			if s.Status == 0 {
				t.Fatalf("ok sample with zero status: %+v", s)
			}
		}
	}
	// The vast majority of requests should succeed (paper: 90% of
	// domains saw <11.7% error rates).
	if frac := float64(okCount) / float64(len(res.Samples)); frac < 0.80 {
		t.Fatalf("success fraction %.2f too low", frac)
	}
}

func TestScanDeterministic(t *testing.T) {
	domains, countries := smallInputs(40)
	cfg := DefaultConfig()
	a := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	b := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Samples {
		sa, sb := a.Samples[i], b.Samples[i]
		if sa != sb {
			t.Fatalf("sample %d differs:\n%+v\n%+v", i, sa, sb)
		}
	}
}

func TestPhaseChangesSamples(t *testing.T) {
	domains, countries := smallInputs(40)
	cfg := DefaultConfig()
	cfg.Samples = 1
	a := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	cfg.Phase = "resample"
	b := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	diff := 0
	for i := range a.Samples {
		if a.Samples[i].Seed != b.Samples[i].Seed {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("phase salt must change seeds")
	}
}

func TestBlockPageBodiesKept(t *testing.T) {
	// Scan a GAE-hosted domain from Iran: the AppEngine block page must
	// come back with its body retained.
	var gae *worldgen.Domain
	for _, d := range testWorld.Top10K() {
		if d.GAEHosted && len(d.Providers) == 1 && d.Providers[0] == worldgen.AppEngine && !d.Unreachable {
			gae = d
			break
		}
	}
	if gae == nil {
		t.Skip("no GAE domain at this scale")
	}
	res := mustScan(t, []string{gae.Name}, []geo.CountryCode{"IR"},
		CrossProduct(1, 1), DefaultConfig())
	found := false
	for _, s := range res.Samples {
		if s.OK() && s.Status == 403 {
			if s.Body == "" {
				t.Fatal("403 sample lost its body")
			}
			if !blockpage.Matches(blockpage.AppEngine, s.Body) {
				t.Fatal("403 body is not the AppEngine page")
			}
			if int(s.BodyLen) != len(s.Body) {
				t.Fatal("BodyLen mismatch")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no block page observed in 3 samples from Iran")
	}
}

func TestSuccessBodiesDropped(t *testing.T) {
	domains, countries := smallInputs(40)
	res := mustScan(t, domains, countries[:1], CrossProduct(len(domains), 1), DefaultConfig())
	for _, s := range res.Samples {
		if s.Status == 200 && s.Body != "" {
			t.Fatal("200 bodies must not be retained by default")
		}
		if s.Status == 200 && s.BodyLen <= 0 {
			t.Fatal("200 samples must still record their length")
		}
	}
}

func TestReplayReproducesBody(t *testing.T) {
	// Every retained body — block pages and 200s alike — must come back
	// byte for byte from its (domain, exit, seed) replay key.
	domains, countries := smallInputs(12)
	cfg := DefaultConfig()
	cfg.Bodies = BodyAll
	res := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	replayed := 0
	for _, s := range res.Samples {
		if !s.OK() {
			continue
		}
		body, status, err := Replay(context.Background(), testWorld, domains[s.Domain], s.ExitIP, s.Seed, cfg.Headers, cfg.MaxRedirects)
		if err != nil {
			t.Fatal(err)
		}
		if int16(status) != s.Status || body != s.Body {
			t.Fatalf("replay of %s from %s: status %d, %d-byte body; sample has %d, %d bytes",
				domains[s.Domain], countries[s.Country], status, len(body), s.Status, len(s.Body))
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no successful sample to replay")
	}
}

func TestNoExitsCountry(t *testing.T) {
	res := mustScan(t, []string{testWorld.Top10K()[0].Name}, []geo.CountryCode{"KP"},
		CrossProduct(1, 1), DefaultConfig())
	if len(res.Samples) != 3 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Err != ErrNoExits {
			t.Fatalf("North Korea sample err = %v", s.Err)
		}
	}
}

func TestLuminatiRestricted(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.LuminatiRestricted {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no restricted domain at this scale")
	}
	res := mustScan(t, []string{d.Name}, []geo.CountryCode{"US"}, CrossProduct(1, 1), DefaultConfig())
	for _, s := range res.Samples {
		if s.Err != ErrLuminati {
			t.Fatalf("restricted domain err = %v", s.Err)
		}
	}
}

func TestUnreachableTimesOutAfterRetries(t *testing.T) {
	var d *worldgen.Domain
	for _, cand := range testWorld.Top10K() {
		if cand.Unreachable {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no unreachable domain")
	}
	res := mustScan(t, []string{d.Name}, []geo.CountryCode{"US"}, CrossProduct(1, 1), DefaultConfig())
	for _, s := range res.Samples {
		if s.Err != ErrTimeout {
			t.Fatalf("unreachable domain err = %v", s.Err)
		}
	}
}

func TestScanVPS(t *testing.T) {
	fleet := proxy.VPSFleet(testWorld, []geo.CountryCode{"IR", "US"})
	var domains []string
	for _, d := range testWorld.Top10K()[:30] {
		if !d.Unreachable && !d.RedirectLoop {
			domains = append(domains, d.Name)
		}
	}
	cfg := Config{Samples: 1, Headers: ZGrabHeaders(), Phase: "explore"}
	res := mustScanVPS(t, fleet, domains, cfg)
	if len(res.Samples) != len(domains)*2 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Err == ErrProxy {
			t.Fatal("VPS scans have no proxy failures")
		}
	}
}

func TestCrawlerHeadersTriggerBotDefense(t *testing.T) {
	// Bot-sensitive deployments are rare at default calibration; build
	// a small world where they are common.
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.05
	cfg.AkamaiBotSensitivityRate = 0.6
	botWorld := worldgen.Generate(cfg)
	var d *worldgen.Domain
	for _, cand := range botWorld.Top10K() {
		if cand.FrontedBy(worldgen.Akamai) && cand.BotSensitivity > 0.8 &&
			len(cand.GeoRules) == 0 && !cand.AirbnbStyle && !cand.Unreachable && len(cand.CensoredIn) == 0 {
			d = cand
			break
		}
	}
	if d == nil {
		t.Fatal("no bot-sensitive Akamai domain even at elevated rate")
	}
	fleet := proxy.VPSFleet(botWorld, []geo.CountryCode{"US"})

	crawler := mustScanVPS(t, fleet, []string{d.Name}, Config{Samples: 3, Headers: ZGrabHeaders(), Phase: "a"})
	got403 := false
	for _, s := range crawler.Samples {
		if s.Status == 403 {
			got403 = true
		}
	}
	if !got403 {
		t.Fatal("crawler fingerprint should trip bot defense")
	}

	browser := mustScanVPS(t, fleet, []string{d.Name}, Config{Samples: 3, Headers: BrowserHeaders(), Phase: "a"})
	got200 := false
	for _, s := range browser.Samples {
		if s.Status == 200 {
			got200 = true
		}
	}
	if !got200 {
		t.Fatal("browser fingerprint should pass bot defense")
	}
}

func TestErrCodeStrings(t *testing.T) {
	codes := []ErrCode{ErrNone, ErrProxy, ErrTimeout, ErrDNS, ErrReset, ErrRedirects, ErrLuminati, ErrNoExits}
	seen := map[string]bool{}
	for _, c := range codes {
		s := c.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("bad string for %d: %q", c, s)
		}
		seen[s] = true
	}
}

func TestLoadBalancingBoundsExitUse(t *testing.T) {
	// §3.2: "We only perform 10 requests with a given exit machine
	// before changing exit machine." Retries and redirect hops add a
	// bounded overshoot on top of the per-sample budget check.
	domains, countries := smallInputs(40)
	cfg := DefaultConfig()
	res := mustScan(t, domains, countries, CrossProduct(len(domains), len(countries)), cfg)
	load := res.LoadReport()
	if load.MaxStretch == 0 {
		t.Fatal("no load recorded")
	}
	// A sample consumes up to 1+Retries requests plus redirect hops,
	// so a stretch of samples can exceed 10 slightly — but not by much.
	if load.MaxStretch > cfg.RequestsPerExit+6 {
		t.Fatalf("an exit served %d consecutive samples; the budget is %d",
			load.MaxStretch, cfg.RequestsPerExit)
	}
	if len(load.PerExit) < len(countries) {
		t.Fatalf("only %d exits used for %d countries", len(load.PerExit), len(countries))
	}
}

func TestCrossProductShape(t *testing.T) {
	tasks := CrossProduct(3, 2)
	if len(tasks) != 6 {
		t.Fatalf("len = %d", len(tasks))
	}
	// Grouped by country so one worker keeps one session.
	if tasks[0].Country != 0 || tasks[3].Country != 1 {
		t.Fatalf("ordering wrong: %+v", tasks)
	}
	if CrossProduct(0, 5) == nil {
		// Empty is fine, but must not panic.
		t.Log("empty cross product")
	}
}

func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Samples != 3 || cfg.Phase != "initial" {
		t.Fatalf("default samples = %d phase = %q", cfg.Samples, cfg.Phase)
	}
	if cfg.RequestsPerExit != 10 || cfg.MaxRedirects != 10 {
		t.Fatal("paper parameters wrong")
	}
	if cfg.Headers["Accept-Language"] == "" {
		t.Fatal("browser header set incomplete")
	}
}

func TestZGrabHeadersAreCrawlerLike(t *testing.T) {
	h := ZGrabHeaders()
	if h["Accept"] != "" || h["Accept-Language"] != "" {
		t.Fatal("ZGrab set must be bare")
	}
	if h["User-Agent"] == "" {
		t.Fatal("ZGrab still sets a UA (§3.1)")
	}
}

func TestSampleOKSemantics(t *testing.T) {
	s := Sample{Err: ErrNone, Status: 200}
	if !s.OK() {
		t.Fatal("ok sample misreported")
	}
	s.Err = ErrTimeout
	if s.OK() {
		t.Fatal("failed sample misreported")
	}
}
