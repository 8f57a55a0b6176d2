package scanner

import (
	"context"
	"io"
	"net/http"
	"testing"

	"geoblock/internal/faults"
	"geoblock/internal/geo"
	"geoblock/internal/proxy"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// clientFetch is the reference attempt: the fetcher's request made
// through a real http.Client over the same transport, with the redirect
// bound as its CheckRedirect policy. The fetcher must produce the same
// Sample, byte for byte.
func clientFetch(ctx context.Context, c *http.Client, cfg Config, domain string, seed uint64, t Task, attempt uint8, exit geo.IP) Sample {
	s := Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Seed: seed, ExitIP: exit}
	req, err := http.NewRequestWithContext(vnet.WithSampleSeed(ctx, seed), http.MethodGet, "http://"+domain+"/", nil)
	if err != nil {
		s.Err = ErrDNS
		return s
	}
	for k, v := range cfg.Headers {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		s.Err = classifyError(err)
		return s
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Luminati-Error") != "" {
		s.Err = ErrLuminati
		return s
	}
	s.Status = int16(resp.StatusCode)
	var body []byte
	bodyLen := resp.ContentLength
	if bodyLen < 0 {
		if body, err = io.ReadAll(resp.Body); err != nil {
			s.Err = ErrReset
			return s
		}
		bodyLen = int64(len(body))
	}
	s.BodyLen = int32(bodyLen)
	if cfg.KeepBody(resp.StatusCode, int(bodyLen)) {
		if body == nil {
			if body, err = io.ReadAll(resp.Body); err != nil {
				s.Err = ErrReset
				return s
			}
		}
		s.Body = string(body)
		s.BodyLen = int32(len(body))
	}
	return s
}

// reshapeRedirects varies the redirect answers by sample seed, so the
// fetcher meets every shape http.Client distinguishes: a 3xx without a
// Location, a 307 (followed, method kept), a 300 with a Location (not
// followed), and the edge's own 301.
func reshapeRedirects(rt http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := rt.RoundTrip(req)
		if err != nil || resp.Header.Get("Location") == "" {
			return resp, err
		}
		seed, _ := vnet.SampleSeed(req.Context())
		switch seed % 4 {
		case 0:
			resp.Header = resp.Header.Clone()
			resp.Header.Del("Location")
		case 1:
			resp.StatusCode = http.StatusTemporaryRedirect
		case 2:
			resp.StatusCode = http.StatusMultipleChoices
		}
		return resp, nil
	})
}

// conformanceTally counts what a conformance pass exercised.
type conformanceTally struct {
	samples, redirectLimits, luminati, resets, multiHop, threeXX int
}

// checkConformance measures every (domain, country, sample) twice in
// lockstep, through the fetcher and through clientFetch, each over its
// own session opened at the same slot. The retry loop is
// fetchReliable's. Every attempt must yield identical Samples and send
// the same number of round trips through its session.
func checkConformance(t *testing.T, net *proxy.Network, domains []string, countries []geo.CountryCode, cfg Config, tally *conformanceTally) {
	t.Helper()
	ctx := context.Background()
	cfg = cfg.withDefaults()
	pol := cfg.retryPolicy()
	wrap := cfg.WrapTransport
	if wrap == nil {
		wrap = func(rt http.RoundTripper) http.RoundTripper { return rt }
	}
	for ci, cc := range countries {
		se, err1 := openSession(net, cc, uint64(ci), pol, nil)
		ref, err2 := openSession(net, cc, uint64(ci), pol, nil)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: session opens disagree: %v vs %v", cc, err1, err2)
		}
		if err1 != nil {
			continue
		}
		f := newFetcher(ctx, se.transport(), cfg)
		client := &http.Client{
			Transport: wrap(ref.transport()),
			CheckRedirect: func(_ *http.Request, via []*http.Request) error {
				if len(via) >= cfg.MaxRedirects {
					return errRedirectLimit
				}
				return nil
			},
		}
		for di, domain := range domains {
			task := Task{Domain: int32(di), Country: int16(ci)}
			for a := 0; a < cfg.Samples; a++ {
				seed := sampleSeed(domain, string(cc), cfg.Phase, a)
				for try := 0; try <= pol.Retries; try++ {
					ok, refOK := se.ready(seed), ref.ready(seed)
					if ok != refOK {
						t.Fatalf("%s %s: session readiness diverged", cc, domain)
					}
					if !ok {
						break
					}
					trySeed := seed + uint64(try)*0x9e3779b97f4a7c15
					before := se.s.Used()
					got := f.fetch(domain, trySeed, task, uint8(a), se.exitIP())
					want := clientFetch(ctx, client, cfg, domain, trySeed, task, uint8(a), ref.exitIP())
					if got != want {
						t.Fatalf("%s %s seed %#x:\nfetcher %+v\n client %+v", cc, domain, trySeed, got, want)
					}
					if se.s.Used() != ref.s.Used() {
						t.Fatalf("%s %s seed %#x: fetcher sent %d round trips on its exit, client %d", cc, domain, trySeed, se.s.Used(), ref.s.Used())
					}
					tally.samples++
					switch {
					case got.Err == ErrRedirects:
						tally.redirectLimits++
					case got.Err == ErrLuminati:
						tally.luminati++
					case got.Err == ErrReset:
						tally.resets++
					case got.Status >= 300 && got.Status < 400:
						tally.threeXX++
					case got.Err == ErrNone && se.s.Used()-before >= 3:
						tally.multiHop++
					}
					if got.Err == ErrNone || got.Err == ErrLuminati {
						se.h.success()
						ref.h.success()
						break
					}
					se.rotate()
					ref.rotate()
				}
			}
		}
	}
}

// conformanceDomains is the first n Top-10K domains of w plus one of
// each shape the fetcher must handle like http.Client: a redirect loop,
// a two-hop redirect chain and a Luminati refusal.
func conformanceDomains(t *testing.T, w *worldgen.World, n int) []string {
	var domains []string
	for _, d := range w.Top10K()[:n] {
		domains = append(domains, d.Name)
	}
	shapes := []func(d *worldgen.Domain) bool{
		func(d *worldgen.Domain) bool { return d.RedirectLoop },
		func(d *worldgen.Domain) bool { return d.RedirectHops >= 2 },
		func(d *worldgen.Domain) bool { return d.LuminatiRestricted },
	}
	for i, shape := range shapes {
		found := false
		for _, d := range w.Top10K() {
			if shape(d) {
				domains = append(domains, d.Name)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("conformance world has no domain of shape %d", i)
		}
	}
	return domains
}

// TestFetcherMatchesHTTPClient is the probe path's conformance test:
// the fetcher's own redirect loop against a real http.Client over the
// same transports, on clean and chaotic meshes, under every body
// policy and redirect shape.
func TestFetcherMatchesHTTPClient(t *testing.T) {
	// The shared test world holds no redirect loop, so this test
	// generates a small world where loops are common.
	wcfg := worldgen.TestConfig()
	wcfg.Scale = 0.02
	wcfg.RedirectLoopRate = 0.05
	w := worldgen.Generate(wcfg)
	domains := conformanceDomains(t, w, 30)
	_, countries := smallInputs(0)
	faulty := func(seed uint64, profile string) *proxy.Network {
		p, ok := faults.Named(profile)
		if !ok {
			t.Fatalf("profile %q not registered", profile)
		}
		net := proxy.NewNetwork(w)
		net.SetFaults(faults.New(seed).Default(p))
		return net
	}
	clean := proxy.NewNetwork(w)
	cases := []struct {
		name string
		net  *proxy.Network
		cfg  func(*Config)
	}{
		{"clean", clean, func(*Config) {}},
		{"clean-body-all", clean, func(c *Config) { c.Bodies = BodyAll }},
		{"clean-body-none", clean, func(c *Config) { c.Bodies = BodyNone }},
		{"mixed", faulty(7, "mixed"), func(*Config) {}},
		{"mixed-body-all", faulty(7, "mixed"), func(c *Config) { c.Bodies = BodyAll }},
		{"truncate-body-all", faulty(3, "truncate"), func(c *Config) { c.Bodies = BodyAll }},
		{"reshaped-redirects", clean, func(c *Config) { c.WrapTransport = reshapeRedirects }},
		{"one-redirect", clean, func(c *Config) { c.MaxRedirects = 1 }},
	}
	var total conformanceTally
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Phase = "conformance"
			tc.cfg(&cfg)
			var tally conformanceTally
			checkConformance(t, tc.net, domains, countries, cfg, &tally)
			if tally.samples == 0 {
				t.Fatal("no attempt reached a session")
			}
			total.samples += tally.samples
			total.redirectLimits += tally.redirectLimits
			total.luminati += tally.luminati
			total.resets += tally.resets
			total.multiHop += tally.multiHop
			total.threeXX += tally.threeXX
		})
	}
	t.Logf("conformance: %+v", total)
	if total.redirectLimits == 0 || total.luminati == 0 || total.resets == 0 || total.multiHop == 0 || total.threeXX == 0 {
		t.Fatalf("a fetch shape went unexercised: %+v", total)
	}
}
