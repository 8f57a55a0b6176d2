package pipeline

import (
	"io"
	"net/http"
	"sort"

	"geoblock/internal/applayer"
	"geoblock/internal/blockpage"
	"geoblock/internal/censor"
	"geoblock/internal/geo"
	"geoblock/internal/scanner"
	"geoblock/internal/stats"
	"geoblock/internal/vnet"
)

// This file implements the three §7.3 "future work" directions the
// paper sketches: timeout-based geoblocking detection, application-
// layer discrimination detection, and region-granular measurement.

// ---------------------------------------------------------------------
// Timeout geoblocking.

// TimeoutFinding is one domain that consistently times out from
// specific countries while serving everyone else — geoblocking by
// connection drop.
type TimeoutFinding struct {
	DomainName string
	Countries  []geo.CountryCode
	// CensorOverlap lists the found countries that also operate
	// national filters with timeout mechanics — the attribution hazard
	// §7.3 warns about ("much more difficult to differentiate from
	// censorship").
	CensorOverlap []geo.CountryCode
}

// TimeoutResult is the timeout-geoblocking analysis output.
type TimeoutResult struct {
	// CandidateDomains had at least one all-timeout country in the
	// snapshot — overwhelmingly transit black holes on the proxy path,
	// which is why the cheap cross-check runs before anything else.
	CandidateDomains int
	// CrossCheckedPairs survived the independent-vantage probe (the
	// drop reproduces from a datacenter address in the same country).
	CrossCheckedPairs int
	// Findings additionally survived the confirmation resample.
	Findings []TimeoutFinding
}

// AnalyzeTimeouts scans a Top-10K snapshot for country-consistent
// timeouts and confirms candidates with a resample pass: a country
// counts when every confirmation sample times out while the domain
// answers at least 80% of its samples elsewhere.
func (s *Study) AnalyzeTimeouts(r *Top10KResult, resamples int) *TimeoutResult {
	if resamples <= 0 {
		resamples = 10
	}
	out := &TimeoutResult{}
	sp := s.phase("timeouts")
	defer sp.End()

	// Pass 1: per (domain, country) timeout and response tallies.
	type tally struct{ timeouts, responses, other int }
	pair := map[pairKey]*tally{}
	domainOK := map[int32]int{}
	domainAll := map[int32]int{}
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		key := pairKey{sm.Domain, sm.Country}
		t := pair[key]
		if t == nil {
			t = &tally{}
			pair[key] = t
		}
		switch {
		case sm.OK():
			t.responses++
			domainOK[sm.Domain]++
		case sm.Err == scanner.ErrTimeout:
			t.timeouts++
		default:
			t.other++
		}
		domainAll[sm.Domain]++
	}

	// Candidates: domains reachable overall, with ≥1 country that only
	// ever timed out.
	candCountries := map[int32][]int16{}
	for key, t := range pair {
		if t.timeouts >= 2 && t.responses == 0 &&
			domainAll[key.domain] > 0 &&
			float64(domainOK[key.domain]) >= 0.5*float64(domainAll[key.domain]) {
			candCountries[key.domain] = append(candCountries[key.domain], key.country)
		}
	}
	out.CandidateDomains = len(candCountries)

	// Pass 2: independent-vantage cross-check, one probe per pair. A
	// consistent residential timeout is usually a transit black hole on
	// the proxy path, not the server's policy; only drops that
	// reproduce from a datacenter address in the same country proceed.
	// This is the §7.3 differentiation problem in miniature — without a
	// second vantage type these candidates are unattributable.
	domains := make([]int32, 0, len(candCountries))
	for d := range candCountries {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	var tasks []scanner.Task
	for _, d := range domains {
		cs := candCountries[d]
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		for _, c := range cs {
			if s.timesOutFromDatacenter(r.SafeDomains[d], r.Countries[c]) {
				tasks = append(tasks, scanner.Task{Domain: d, Country: c})
			}
		}
	}
	out.CrossCheckedPairs = len(tasks)

	// Pass 3: confirmation resample of the surviving pairs.
	scanCfg := s.scanConfig("timeout-confirm", sp)
	scanCfg.Samples = resamples
	scanCfg.Retries = 0
	confirm := map[pairKey]*tally{}
	s.noteScanErr("timeout-confirm", s.scanStream("timeout-confirm", scanCfg, r.SafeDomains, r.Countries, tasks,
		scanner.SinkFunc(func(sm scanner.Sample) {
			key := pairKey{sm.Domain, sm.Country}
			t := confirm[key]
			if t == nil {
				t = &tally{}
				confirm[key] = t
			}
			switch {
			case sm.OK():
				t.responses++
			case sm.Err == scanner.ErrTimeout:
				t.timeouts++
			default:
				t.other++
			}
		})))

	for _, dIdx := range domains {
		f := TimeoutFinding{DomainName: r.SafeDomains[dIdx]}
		for _, cIdx := range candCountries[dIdx] {
			t := confirm[pairKey{dIdx, cIdx}]
			// Pairs the cross-check rejected never entered the resample
			// and have no tally.
			if t == nil || t.responses > 0 || t.timeouts < resamples*7/10 {
				continue
			}
			cc := r.Countries[cIdx]
			f.Countries = append(f.Countries, cc)
			if censor.CensorsAnything(cc) {
				f.CensorOverlap = append(f.CensorOverlap, cc)
			}
		}
		if len(f.Countries) > 0 {
			out.Findings = append(out.Findings, f)
		}
	}
	return out
}

// timesOutFromDatacenter probes domain from a datacenter address in cc
// and reports whether the connection still times out.
func (s *Study) timesOutFromDatacenter(domain string, cc geo.CountryCode) bool {
	ip, err := s.World.Geo.DatacenterIP(cc, stats.Mix64(stats.FNV1a(domain))%1000)
	if err != nil {
		return false
	}
	stack := vnet.NewStack(s.World, ip)
	client := stack.Client(10)
	seed := stats.Mix64(stats.FNV1a(domain) ^ stats.FNV1a(string(cc)) ^ 0x7a11)
	req, err := http.NewRequestWithContext(
		vnet.WithSampleSeed(s.ctx(), seed),
		http.MethodGet, "http://"+domain+"/", nil)
	if err != nil {
		return false
	}
	for k, v := range scanner.BrowserHeaders() {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return isTimeout(err)
	}
	resp.Body.Close()
	return false
}

func isTimeout(err error) bool {
	for err != nil {
		if ne, ok := err.(interface{ Timeout() bool }); ok {
			return ne.Timeout()
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// ---------------------------------------------------------------------
// Application-layer discrimination.

// AppLayerFinding is one domain serving structurally different pages to
// different countries.
type AppLayerFinding struct {
	DomainName   string
	Country      geo.CountryCode
	MissingLinks []string
	NoticeAdded  bool
	PriceRatio   float64 // 0 when no price comparison was possible
}

// AppLayerResult is the application-layer study output.
type AppLayerResult struct {
	DomainsTested int
	Findings      []AppLayerFinding
}

// RunAppLayerStudy fetches each domain from a reference country and
// from every target country, extracts structural features, and reports
// discriminating differences. Each comparison is confirmed with a
// second sample so a junk-page load never counts as a removed feature.
func (s *Study) RunAppLayerStudy(domains []string, ref geo.CountryCode, targets []geo.CountryCode) *AppLayerResult {
	out := &AppLayerResult{DomainsTested: len(domains)}

	fetch := func(domain string, cc geo.CountryCode, attempt int) (applayer.Observation, bool) {
		ip, err := s.World.Geo.HostIP(cc, stats.Mix64(stats.FNV1a(domain)^stats.FNV1a(string(cc)))%100000)
		if err != nil {
			return applayer.Observation{}, false
		}
		stack := vnet.NewStack(s.World, ip)
		client := stack.Client(10)
		seed := stats.Mix64(stats.FNV1a(domain) ^ stats.FNV1a(string(cc)) ^ uint64(attempt+1)*0x9e37)
		req, err := http.NewRequestWithContext(
			vnet.WithSampleSeed(s.ctx(), seed),
			http.MethodGet, "http://"+domain+"/", nil)
		if err != nil {
			return applayer.Observation{}, false
		}
		for k, v := range scanner.BrowserHeaders() {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			return applayer.Observation{}, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return applayer.Observation{}, false
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return applayer.Observation{}, false
		}
		return applayer.Extract(string(body)), true
	}

	for _, domain := range domains {
		refObs, ok := fetch(domain, ref, 0)
		if !ok {
			continue
		}
		for _, cc := range targets {
			if cc == ref {
				continue
			}
			obs, ok := fetch(domain, cc, 0)
			if !ok {
				continue
			}
			d := applayer.Compare(refObs, obs)
			if !d.Discriminates() {
				continue
			}
			// Confirm on a fresh sample: junk pages and transient
			// variants must not produce findings.
			obs2, ok := fetch(domain, cc, 1)
			if !ok {
				continue
			}
			d2 := applayer.Compare(refObs, obs2)
			if !d2.Discriminates() {
				continue
			}
			out.Findings = append(out.Findings, AppLayerFinding{
				DomainName:   domain,
				Country:      cc,
				MissingLinks: d2.MissingLinks,
				NoticeAdded:  d2.NoticeAdded,
				PriceRatio:   d2.PriceRatio,
			})
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Region-granular measurement.

// RegionalFinding is one domain blocked from a sub-national region but
// not from the rest of its country — the Crimea granularity of §4.2.2.
type RegionalFinding struct {
	DomainName   string
	Kind         blockpage.Kind
	RegionRate   float64
	MainlandRate float64
}

// RunRegionalAnalysis probes domains through Crimean exits and through
// mainland-Ukraine exits and reports the ones whose explicit block page
// appears only from the region.
func (s *Study) RunRegionalAnalysis(domains []string, samples int) []RegionalFinding {
	if samples <= 0 {
		samples = 12
	}
	var out []RegionalFinding
	for _, domain := range domains {
		regionRate, rKind := s.regionBlockRate(domain, true, samples)
		mainRate, _ := s.regionBlockRate(domain, false, samples)
		if regionRate >= 0.8 && mainRate <= 0.2 && rKind != blockpage.KindNone {
			out = append(out, RegionalFinding{
				DomainName:   domain,
				Kind:         rKind,
				RegionRate:   regionRate,
				MainlandRate: mainRate,
			})
		}
	}
	return out
}

func (s *Study) regionBlockRate(domain string, crimea bool, samples int) (float64, blockpage.Kind) {
	sess, err := s.Net.NewRegionSession("UA", crimea, stats.FNV1a(domain))
	if err != nil {
		return 0, blockpage.KindNone
	}
	client := &http.Client{Transport: sess}
	blocks, responses := 0, 0
	kind := blockpage.KindNone
	for i := 0; i < samples; i++ {
		seed := stats.Mix64(stats.FNV1a(domain) ^ uint64(i+1)*0x517cc1b7 ^ uint64(boolToInt(crimea)))
		req, err := http.NewRequestWithContext(
			vnet.WithSampleSeed(s.ctx(), seed),
			http.MethodGet, "http://"+domain+"/", nil)
		if err != nil {
			continue
		}
		for k, v := range scanner.BrowserHeaders() {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			sess.Rotate()
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			continue
		}
		responses++
		if k := s.explicitKind(string(body)); k != blockpage.KindNone {
			blocks++
			kind = k
		}
		if (i+1)%3 == 0 {
			sess.Rotate()
		}
	}
	if responses == 0 {
		return 0, blockpage.KindNone
	}
	return float64(blocks) / float64(responses), kind
}

func boolToInt(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
