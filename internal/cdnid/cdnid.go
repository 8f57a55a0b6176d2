// Package cdnid identifies which domains are customers of each CDN or
// hosting provider — the population-discovery methods of §5.1.1:
//
//   - Header classifiers: Cloudflare (CF-RAY), Amazon CloudFront
//     (X-Amz-Cf-Id) and Incapsula (X-Iinfo) append identifying response
//     headers; a domain counts as fronted if the header appears
//     anywhere in its redirect chain.
//   - The Akamai Pragma probe: sending the Akamai debug Pragma
//     directives makes Akamai edges insert cache headers.
//   - App Engine netblocks: a recursive SPF-style TXT walk enumerates
//     Google's address blocks; domains whose A record lands inside are
//     App Engine-detected.
//
// And the conservative NS-record method of §3.1 used for the early
// exploration (it sees only the fraction of customers whose
// authoritative DNS is the CDN's).
package cdnid

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"sync"

	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// Populations is the discovered customer sets, as sorted rank lists.
type Populations struct {
	ByProvider map[worldgen.Provider][]int
	// Dual lists ranks detected under two or more providers (the
	// paper's 1,408 dual-service domains, e.g. zales.com).
	Dual []int
}

// Total returns the number of unique ranks across providers.
func (p *Populations) Total() int {
	seen := map[int]bool{}
	for _, ranks := range p.ByProvider {
		for _, r := range ranks {
			seen[r] = true
		}
	}
	return len(seen)
}

// Identifier performs discovery scans from a single stable vantage.
type Identifier struct {
	World       *worldgen.World
	Vantage     geo.IP
	Concurrency int
}

// NewIdentifier builds an identifier scanning from a U.S. address (the
// paper scanned from its university network).
func NewIdentifier(w *worldgen.World) *Identifier {
	var ip geo.IP
	var err error
	for n := uint64(7); ; n++ {
		ip, err = w.Geo.DatacenterIP("US", n)
		if err != nil || !w.Geo.IsAnonymizer(ip) {
			break
		}
	}
	if err != nil {
		panic(err)
	}
	return &Identifier{World: w, Vantage: ip, Concurrency: 8}
}

// GAERanges performs the recursive netblock walk and returns the
// discovered Google address ranges.
func (id *Identifier) GAERanges() []geo.Range {
	res := &vnet.Resolver{World: id.World}
	var out []geo.Range
	var walk func(name string)
	walk = func(name string) {
		for _, txt := range res.LookupTXT(name) {
			includes, cidrs := vnet.ParseSPF(txt)
			for _, c := range cidrs {
				if r, err := vnet.ParseCIDR(c); err == nil {
					out = append(out, r)
				}
			}
			for _, inc := range includes {
				walk(inc)
			}
		}
	}
	walk(vnet.GoogleNetblockRoot)
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// ScanRanks identifies providers for every rank in [lo, hi] using
// header probing plus the netblock method. Unresponsive domains simply
// contribute nothing.
func (id *Identifier) ScanRanks(lo, hi int) *Populations {
	ranks := make([]int, 0, hi-lo+1)
	for r := lo; r <= hi; r++ {
		ranks = append(ranks, r)
	}
	return id.ScanRankList(ranks)
}

// ScanRankList identifies providers for an explicit rank list.
func (id *Identifier) ScanRankList(ranks []int) *Populations {
	gae := id.GAERanges()
	res := &vnet.Resolver{World: id.World}

	type found struct {
		rank  int
		provs []worldgen.Provider
	}
	conc := id.Concurrency
	if conc <= 0 {
		conc = 8
	}
	stripe := make([][]found, conc)
	var wg sync.WaitGroup
	for wkr := 0; wkr < conc; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			stack := vnet.NewStack(id.World, id.Vantage)
			for i := wkr; i < len(ranks); i += conc {
				d := id.World.DomainAt(ranks[i])
				if d == nil {
					continue
				}
				provs := id.classifyDomain(stack, res, d, gae)
				if len(provs) > 0 {
					stripe[wkr] = append(stripe[wkr], found{rank: ranks[i], provs: provs})
				}
			}
		}(wkr)
	}
	wg.Wait()

	pops := &Populations{ByProvider: make(map[worldgen.Provider][]int)}
	for _, fs := range stripe {
		for _, f := range fs {
			for _, p := range f.provs {
				pops.ByProvider[p] = append(pops.ByProvider[p], f.rank)
			}
			if len(f.provs) > 1 {
				pops.Dual = append(pops.Dual, f.rank)
			}
		}
	}
	for p := range pops.ByProvider {
		sort.Ints(pops.ByProvider[p])
	}
	sort.Ints(pops.Dual)
	return pops
}

// classifyDomain walks the redirect chain collecting provider evidence.
func (id *Identifier) classifyDomain(stack *vnet.Stack, res *vnet.Resolver, d *worldgen.Domain, gae []geo.Range) []worldgen.Provider {
	set := map[worldgen.Provider]bool{}

	// Netblock method: A-record membership.
	if ip, ok := res.LookupA(d.Name); ok && inRanges(ip, gae) {
		set[worldgen.AppEngine] = true
	}

	// Header probe over the redirect chain (manual chain walk so every
	// hop's headers are inspected, per §5.1.1).
	url := "http://" + d.Name + "/"
	seed := stats.Mix64(stats.FNV1a(d.Name) ^ 0x1d3)
	for hop := 0; hop < 10; hop++ {
		req, err := http.NewRequestWithContext(
			vnet.WithSampleSeed(context.Background(), seed), http.MethodHead, url, nil)
		if err != nil {
			break
		}
		req.Header.Set("User-Agent", "Mozilla/5.0 (Macintosh; Intel Mac OS X 10.13; rv:61.0) Gecko/20100101 Firefox/61.0")
		req.Header.Set("Pragma", "akamai-x-cache-on, akamai-x-cache-remote-on, akamai-x-get-cache-key")
		resp, err := stack.RoundTrip(req)
		if err != nil {
			break
		}
		resp.Body.Close()
		collectHeaderEvidence(resp.Header, set)
		if resp.StatusCode < 300 || resp.StatusCode >= 400 {
			break
		}
		next := resp.Header.Get("Location")
		if next == "" {
			break
		}
		url = next
	}

	out := make([]worldgen.Provider, 0, len(set))
	for _, p := range []worldgen.Provider{
		worldgen.Cloudflare, worldgen.Akamai, worldgen.CloudFront,
		worldgen.AppEngine, worldgen.Incapsula,
	} {
		if set[p] {
			out = append(out, p)
		}
	}
	return out
}

func collectHeaderEvidence(h http.Header, set map[worldgen.Provider]bool) {
	if h.Get("CF-RAY") != "" {
		set[worldgen.Cloudflare] = true
	}
	if h.Get("X-Amz-Cf-Id") != "" {
		set[worldgen.CloudFront] = true
	}
	if h.Get("X-Iinfo") != "" {
		set[worldgen.Incapsula] = true
	}
	if h.Get("X-Check-Cacheable") != "" ||
		strings.Contains(h.Get("X-Cache"), "akamaitechnologies.com") {
		set[worldgen.Akamai] = true
	}
}

// NSPopulations runs the conservative §3.1 discovery: domains whose
// authoritative nameservers belong to Cloudflare or Akamai.
func (id *Identifier) NSPopulations(lo, hi int) map[worldgen.Provider][]int {
	res := &vnet.Resolver{World: id.World}
	out := map[worldgen.Provider][]int{}
	for rank := lo; rank <= hi; rank++ {
		d := id.World.DomainAt(rank)
		if d == nil {
			continue
		}
		for _, ns := range res.LookupNS(d.Name) {
			switch {
			case strings.HasSuffix(ns, ".ns.cloudflare.com"):
				out[worldgen.Cloudflare] = append(out[worldgen.Cloudflare], rank)
			case strings.HasSuffix(ns, ".akam.net"):
				out[worldgen.Akamai] = append(out[worldgen.Akamai], rank)
			default:
				continue
			}
			break
		}
	}
	return out
}

func inRanges(ip geo.IP, rs []geo.Range) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi > ip })
	return i < len(rs) && ip >= rs[i].Lo
}
