package pipeline

import (
	"sort"

	"geoblock/internal/blockpage"
	"geoblock/internal/category"
	"geoblock/internal/cluster"
	"geoblock/internal/consistency"
	"geoblock/internal/geo"
	"geoblock/internal/outlier"
	"geoblock/internal/scanner"
	"geoblock/internal/telemetry"
	"geoblock/internal/textfeat"
)

// Top10KConfig tunes the §4 study. Zero values take the paper's
// parameters.
type Top10KConfig struct {
	InitialSamples  int     // 3
	ResampleCount   int     // 20
	Threshold       float64 // 0.80
	RepCountryCount int     // 20
	LengthCutoff    float64 // 0.30
	Concurrency     int
}

func (c *Top10KConfig) fill() {
	if c.InitialSamples == 0 {
		c.InitialSamples = 3
	}
	if c.ResampleCount == 0 {
		c.ResampleCount = 20
	}
	if c.Threshold == 0 {
		c.Threshold = consistency.DefaultThreshold
	}
	if c.RepCountryCount == 0 {
		c.RepCountryCount = 20
	}
	if c.LengthCutoff == 0 {
		c.LengthCutoff = outlier.DefaultCutoff
	}
	if c.Concurrency == 0 {
		c.Concurrency = 8
	}
}

// OutlierDoc is one extracted candidate block page with its body.
type OutlierDoc struct {
	Domain  int32
	Country int16
	Status  int16
	Len     int32
	Body    string
}

// RecallRow is one line of Table 2.
type RecallRow struct {
	Recalled int
	Actual   int
}

// Top10KResult is everything the §4 analysis needs.
type Top10KResult struct {
	Config Top10KConfig

	// Safe-list filtering (§4.1.1).
	InitialCount      int
	SafeDomains       []string
	SafeRanks         []int
	RemovedRisky      int
	RemovedCitizenLab int

	// Initial snapshot.
	Countries       []geo.CountryCode
	Initial         *scanner.Result
	NeverResponded  int
	LuminatiBlocked int

	// Degradation accounting for the initial snapshot: countries that
	// lost shards to dead or browned-out infrastructure, and the
	// coverage attained vs requested. A degraded run keeps its typed
	// outage records here instead of leaking sentinel values into the
	// table math.
	Outages  []scanner.Outage
	Coverage scanner.Coverage

	// Outlier extraction (§4.1.2).
	RepCountries   []geo.CountryCode
	Rep            *outlier.Representative
	RepSampleCount int
	DiffsAll       []float64 // Figure 2: every sample's relative diff
	DiffsBlocked   []float64 // Figure 2: fingerprinted block pages only
	Outliers       []OutlierDoc

	// Clustering and labeling (§4.1.3).
	Clusters        []cluster.Cluster
	ClusterKinds    []blockpage.Kind
	DiscoveredKinds []blockpage.Kind

	// Length-heuristic evaluation (Table 2, §4.1.5).
	Recall map[blockpage.Kind]RecallRow

	// Telemetry is the study's engine-health snapshot at the end of the
	// run, in its deterministic view (runtime-class metrics stripped,
	// span durations zeroed) so the result stays a pure function of the
	// study inputs. The live registry — runtime metrics included — is
	// Study.Metrics.
	Telemetry *telemetry.Snapshot

	// Resampling and confirmation (§4.1.4, §4.2).
	CandidatePairs int
	// Candidates lists every pair that showed an explicit block page at
	// least once (pre-threshold) — the population the paper's
	// 100-sample experiment draws from (§4.1.4).
	Candidates     []Finding
	Findings       []Finding
	Eliminated     int
	AgreementRates []float64 // Figure 4: per candidate pair
}

// RunTop10K executes the full §4 study.
func (s *Study) RunTop10K(cfg Top10KConfig) *Top10KResult {
	cfg.fill()
	r := &Top10KResult{Config: cfg}
	sp := s.phase("top10k")
	defer func() {
		sp.End()
		r.Telemetry = s.snapshot()
	}()

	s.filterSafe(r)
	s.logf("top10k: %d initial, %d safe (%d risky, %d citizenlab removed)",
		r.InitialCount, len(r.SafeDomains), r.RemovedRisky, r.RemovedCitizenLab)

	r.Countries = s.measurableCountries()

	// Initial snapshot: 3 samples per pair.
	scanCfg := s.scanConfig("top10k-initial", sp)
	scanCfg.Samples = cfg.InitialSamples
	scanCfg.Concurrency = cfg.Concurrency
	var col scanner.Collect
	initErr := s.scanStream("top10k-initial", scanCfg, r.SafeDomains, r.Countries,
		scanner.CrossProduct(len(r.SafeDomains), len(r.Countries)), &col)
	r.Initial = &scanner.Result{Domains: r.SafeDomains, Countries: r.Countries,
		Samples: col.Samples, Outages: col.Outages, Coverage: col.Coverage}
	s.noteScanErr("top10k-initial", initErr)
	r.Outages, r.Coverage = r.Initial.Outages, r.Initial.Coverage
	s.logf("top10k: initial snapshot %d samples", len(r.Initial.Samples))
	s.logCoverage("top10k", r.Outages, r.Coverage)

	s.populationDiagnostics(r)

	// Reference countries for representative lengths.
	ranked := s.rankCountriesByBlocking(r.SafeDomains, r.SafeRanks, r.Countries, 3, sp)
	k := cfg.RepCountryCount
	if k > len(ranked) {
		k = len(ranked)
	}
	r.RepCountries = ranked[:k]

	osp := sp.StartSpan("outliers")
	s.extractOutliers(r)
	osp.End()
	s.logf("top10k: %d outliers from %d reference samples", len(r.Outliers), r.RepSampleCount)

	csp := sp.StartSpan("cluster")
	s.clusterAndLabel(r)
	csp.End()
	s.logf("top10k: %d clusters, %d block-page kinds discovered", len(r.Clusters), len(r.DiscoveredKinds))

	s.evaluateRecall(r)

	s.resampleAndConfirm(r, sp)
	s.logf("top10k: %d candidate pairs, %d confirmed, %d eliminated",
		r.CandidatePairs, len(r.Findings), r.Eliminated)

	s.emitVerdicts(r.SafeDomains, r.Countries, r.Findings)
	return r
}

// filterSafe applies the §4.1.1 safe-list policy.
func (s *Study) filterSafe(r *Top10KResult) {
	top := s.World.Top10K()
	r.InitialCount = len(top)
	for _, d := range top {
		switch {
		case category.IsRisky(d.Category):
			r.RemovedRisky++
		case s.World.CitizenLab.Contains(d.Name):
			r.RemovedCitizenLab++
		default:
			r.SafeDomains = append(r.SafeDomains, d.Name)
			r.SafeRanks = append(r.SafeRanks, d.Rank)
		}
	}
}

// populationDiagnostics computes the §4.1.1 reachability numbers:
// domains that never produced a response, and the subset the proxy
// platform itself refused (X-Luminati-Error).
func (s *Study) populationDiagnostics(r *Top10KResult) {
	okByDomain := make([]bool, len(r.SafeDomains))
	lumByDomain := make([]bool, len(r.SafeDomains))
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if sm.OK() {
			okByDomain[sm.Domain] = true
		}
		if sm.Err == scanner.ErrLuminati {
			lumByDomain[sm.Domain] = true
		}
	}
	for i := range okByDomain {
		if okByDomain[i] {
			continue
		}
		r.NeverResponded++
		if lumByDomain[i] {
			r.LuminatiBlocked++
		}
	}
}

// extractOutliers runs the §4.1.2 length heuristic over the reference
// countries and materializes candidate bodies (replaying samples whose
// bodies were not retained).
func (s *Study) extractOutliers(r *Top10KResult) {
	repSet := make(map[int16]bool, len(r.RepCountries))
	for i, cc := range r.Countries {
		for _, rc := range r.RepCountries {
			if cc == rc {
				repSet[int16(i)] = true
			}
		}
	}

	r.Rep = outlier.NewRepresentative()
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if !repSet[sm.Country] || !sm.OK() || sm.BodyLen <= 0 {
			continue
		}
		r.Rep.Observe(sm.Domain, int(sm.BodyLen))
	}

	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if !repSet[sm.Country] || !sm.OK() || sm.BodyLen <= 0 {
			continue
		}
		r.RepSampleCount++
		diff, ok := r.Rep.RelativeDifference(sm.Domain, int(sm.BodyLen))
		if !ok {
			continue
		}
		r.DiffsAll = append(r.DiffsAll, diff)
		if sm.Body != "" && s.Classifier.IsBlockPage(sm.Body) {
			r.DiffsBlocked = append(r.DiffsBlocked, diff)
		}
		if !r.Rep.IsOutlier(sm.Domain, int(sm.BodyLen), r.Config.LengthCutoff) {
			continue
		}
		body := sm.Body
		if body == "" {
			replayed, _, err := scanner.Replay(s.ctx(), s.World, r.SafeDomains[sm.Domain], sm.ExitIP, sm.Seed, scanner.BrowserHeaders(), 10)
			if err != nil {
				continue
			}
			body = replayed
		}
		r.Outliers = append(r.Outliers, OutlierDoc{
			Domain: sm.Domain, Country: sm.Country, Status: sm.Status,
			Len: sm.BodyLen, Body: body,
		})
	}
}

// clusterAndLabel is §4.1.3: cluster the candidate corpus, then label
// each cluster the way the authors did by hand — here against the
// template ground truth, which plays the role of the human judgment
// "this cluster is the Cloudflare page". The corpus is clustered as one
// body: provider denials collapse into one cluster per page class, and
// the 200-status junk (maintenance pages, default vhosts, SPA shells)
// collapses into a handful of large clusters — exactly the structure
// behind the paper's 119 examined clusters.
func (s *Study) clusterAndLabel(r *Top10KResult) {
	docs := make([]string, len(r.Outliers))
	for i := range r.Outliers {
		docs[i] = r.Outliers[i].Body
	}
	_, vecs := textfeat.FitTransform(docs)
	opts := cluster.DefaultOptions()
	opts.Workers = r.Config.Concurrency
	r.Clusters = cluster.SingleLink(docs, vecs, opts)

	// Label clusters by majority template match.
	kinds := append(blockpage.Kinds(), blockpage.Censorship, blockpage.Legal451)
	seen := map[blockpage.Kind]bool{}
	for _, c := range r.Clusters {
		counts := map[blockpage.Kind]int{}
		for _, m := range c.Members {
			body := r.Outliers[m].Body
			for _, k := range kinds {
				if blockpage.Matches(k, body) {
					counts[k]++
					break
				}
			}
		}
		best, bestN := blockpage.KindNone, 0
		for k, n := range counts {
			if n > bestN {
				best, bestN = k, n
			}
		}
		if bestN*2 < len(c.Members) {
			best = blockpage.KindNone
		}
		r.ClusterKinds = append(r.ClusterKinds, best)
		if best != blockpage.KindNone && best != blockpage.Censorship && !seen[best] {
			seen[best] = true
			r.DiscoveredKinds = append(r.DiscoveredKinds, best)
		}
	}
	sort.Slice(r.DiscoveredKinds, func(i, j int) bool { return r.DiscoveredKinds[i] < r.DiscoveredKinds[j] })
}

// DiscoveredProviders maps the discovered page kinds to the CDN and
// hosting providers they expose (the "7 CDNs and hosting providers" of
// Table 1).
func (r *Top10KResult) DiscoveredProviders() []string {
	set := map[string]bool{}
	for _, k := range r.DiscoveredKinds {
		switch k {
		case blockpage.Akamai:
			set["Akamai"] = true
		case blockpage.Cloudflare, blockpage.CloudflareCaptcha, blockpage.CloudflareJS:
			set["Cloudflare"] = true
		case blockpage.CloudFront:
			set["Amazon CloudFront"] = true
		case blockpage.AppEngine:
			set["Google AppEngine"] = true
		case blockpage.Incapsula:
			set["Incapsula"] = true
		case blockpage.Baidu, blockpage.BaiduCaptcha:
			set["Baidu"] = true
		case blockpage.Soasta:
			set["SOASTA"] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// ClusterSummary describes one cluster the way the manual examination
// step would record it: size, the label assigned, and an example
// domain whose sample sits in it.
type ClusterSummary struct {
	Size          int
	Kind          blockpage.Kind
	ExampleDomain string
	ExampleLen    int32
}

// ClusterSummaries lists the clusters in examination order (largest
// first), for the report and the worldd-style tooling.
func (r *Top10KResult) ClusterSummaries() []ClusterSummary {
	out := make([]ClusterSummary, 0, len(r.Clusters))
	for i, c := range r.Clusters {
		if len(c.Members) == 0 {
			continue
		}
		first := r.Outliers[c.Members[0]]
		out = append(out, ClusterSummary{
			Size:          len(c.Members),
			Kind:          r.ClusterKinds[i],
			ExampleDomain: r.SafeDomains[first.Domain],
			ExampleLen:    first.Len,
		})
	}
	return out
}

// evaluateRecall computes Table 2: among reference-country samples that
// are actually block pages (ground truth via retained bodies), how many
// did the length heuristic extract?
func (s *Study) evaluateRecall(r *Top10KResult) {
	repSet := make(map[int16]bool)
	for i, cc := range r.Countries {
		for _, rc := range r.RepCountries {
			if cc == rc {
				repSet[int16(i)] = true
			}
		}
	}
	r.Recall = make(map[blockpage.Kind]RecallRow)
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if !repSet[sm.Country] || !sm.OK() || sm.Body == "" {
			continue
		}
		kind := s.Classifier.Classify(sm.Body)
		if kind == blockpage.KindNone || kind == blockpage.Censorship {
			continue
		}
		row := r.Recall[kind]
		row.Actual++
		if r.Rep.IsOutlier(sm.Domain, int(sm.BodyLen), r.Config.LengthCutoff) {
			row.Recalled++
		}
		r.Recall[kind] = row
	}
}

// resampleAndConfirm is §4.1.4: find every pair that served an explicit
// geoblock page, sample it 20 more times (after the world moves on — a
// policy can change under the study), and confirm at the agreement
// threshold over all samples.
func (s *Study) resampleAndConfirm(r *Top10KResult, sp *telemetry.Span) {
	kinds := make(map[pairKey]blockpage.Kind)
	for i := range r.Initial.Samples {
		sm := &r.Initial.Samples[i]
		if !sm.OK() || sm.Body == "" {
			continue
		}
		if k := s.explicitKind(sm.Body); k != blockpage.KindNone {
			kinds[pairKey{sm.Domain, sm.Country}] = k
		}
	}
	r.CandidatePairs = len(kinds)
	for key, kind := range kinds {
		r.Candidates = append(r.Candidates, Finding{
			DomainName: r.SafeDomains[key.domain],
			Rank:       r.SafeRanks[key.domain],
			Country:    r.Countries[key.country],
			Kind:       kind,
		})
	}
	sort.Slice(r.Candidates, func(i, j int) bool {
		if r.Candidates[i].DomainName != r.Candidates[j].DomainName {
			return r.Candidates[i].DomainName < r.Candidates[j].DomainName
		}
		return r.Candidates[i].Country < r.Candidates[j].Country
	})

	// Time passes between the snapshot and the confirmation pass.
	s.World.AdvanceClock(1)

	tasks := make([]scanner.Task, 0, len(kinds))
	for key := range kinds {
		tasks = append(tasks, scanner.Task{Domain: key.domain, Country: key.country})
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Country != tasks[j].Country {
			return tasks[i].Country < tasks[j].Country
		}
		return tasks[i].Domain < tasks[j].Domain
	})

	scanCfg := s.scanConfig("top10k-resample", sp)
	scanCfg.Samples = r.Config.ResampleCount
	scanCfg.Concurrency = r.Config.Concurrency

	// The confirmation pass streams straight into the rate fold: each
	// 20-sample pair is digested as its shard completes and its bodies
	// dropped, so the pass never holds a materialized Result.
	cands := make(map[pairKey]*candidate, len(kinds))
	s.collectPairRates(r.Initial, kinds, cands)
	s.noteScanErr("top10k-confirm", s.scanStream("top10k-resample", scanCfg, r.SafeDomains, r.Countries, tasks,
		s.pairRateSink(kinds, cands)))

	keys := make([]pairKey, 0, len(cands))
	for key := range cands {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].domain != keys[j].domain {
			return keys[i].domain < keys[j].domain
		}
		return keys[i].country < keys[j].country
	})
	for _, key := range keys {
		c := cands[key]
		r.AgreementRates = append(r.AgreementRates, c.rate.Frac())
		if !c.rate.Confirmed(r.Config.Threshold) {
			r.Eliminated++
			continue
		}
		r.Findings = append(r.Findings, Finding{
			DomainName: r.SafeDomains[key.domain],
			Rank:       r.SafeRanks[key.domain],
			Country:    r.Countries[key.country],
			Kind:       c.kind,
			Rate:       c.rate,
		})
	}
}

// UniqueDomains returns the count of distinct domains among findings.
func UniqueDomains(findings []Finding) int {
	set := map[string]bool{}
	for _, f := range findings {
		set[f.DomainName] = true
	}
	return len(set)
}

// FindingsByKind groups findings per page kind.
func FindingsByKind(findings []Finding) map[blockpage.Kind][]Finding {
	out := map[blockpage.Kind][]Finding{}
	for _, f := range findings {
		out[f.Kind] = append(out[f.Kind], f)
	}
	return out
}
