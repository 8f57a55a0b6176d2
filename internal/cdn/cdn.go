// Package cdn implements the serving side of the simulated Internet:
// for each provider the paper studies, the edge logic that decides —
// given a client's geolocated address, its header fingerprint, and the
// site owner's access rules — whether to serve the origin page, the
// provider's block page, or a challenge, with the provider's
// characteristic response headers.
//
// Everything the paper's detection pipeline keys on happens here: the
// explicit geoblock pages (Cloudflare, CloudFront, App Engine, Baidu,
// Airbnb), the ambiguous shared block/bot pages (Akamai, Incapsula),
// interactive challenges (captchas, the Cloudflare JavaScript page),
// the identifying headers used for population discovery (CF-RAY,
// X-Amz-Cf-Id, X-Iinfo, the Akamai Pragma debug headers), and the
// GeoIP noise that keeps observed blocking below 100% agreement.
package cdn

import (
	"net/http"
	"strconv"

	"geoblock/internal/blockpage"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// Request is one client request as the edge sees it.
type Request struct {
	Domain     *worldgen.Domain
	Host       string // host as requested (may carry a www. prefix)
	Path       string
	Method     string
	Scheme     string // "http" or "https"
	ClientIP   geo.IP
	Header     http.Header
	Clock      int64
	SampleSeed uint64 // drives per-request randomness, deterministic per sample
}

// Response is the edge's answer. Body is lazy: it is only rendered if
// called, so length-only consumers stay cheap. Page records the ground
// truth of what was served (never exposed on the wire).
type Response struct {
	Status   int
	Header   http.Header
	BodyLen  int
	Body     func() string
	Page     blockpage.Kind
	Redirect string // non-empty for 3xx, the Location value
}

// edgeGeoIPErrorPermille is the per-address probability (in 1/1000)
// that a provider's GeoIP database misplaces a residential address into
// a neighboring country — one of the paper's explanations for sub-100%
// block-page agreement (§4.2). The error is *sticky per address*: a
// GeoIP database does not flip between requests, so disagreement
// appears only when consecutive samples ride different exits.
const edgeGeoIPErrorPermille = 10

// Serve answers req according to the domain's serving chain.
func Serve(w *worldgen.World, req Request) Response {
	d := req.Domain
	rng := stats.NewRNG(stats.Mix64(req.SampleSeed) ^ stats.FNV1a(d.Name))

	loc, ok := w.Geo.Locate(req.ClientIP)
	if !ok {
		loc = geo.Location{}
	}
	loc = maybeMisgeolocate(w, loc, req.ClientIP)

	// The Ray ID and the nonce share one string, which is also
	// CloudFront's request ID.
	ids := rayAndNonce(rng.Uint64(), uint32(rng.Uint64()))
	vars := blockpage.Vars{
		Domain: d.Name,
		Path:   req.Path,
		RayID:  ids[:16],
		Nonce:  ids[16:],
	}

	// Headers are assigned under their canonical keys, which is what
	// Header.Set would store them under, minus the canonicalization.
	header := make(http.Header, 8)
	for _, p := range d.Providers {
		addProviderHeaders(header, p, req, ids)
	}
	header["Content-Type"] = hdrHTML

	// Access control runs at first contact, before any redirect: a
	// blocked client never sees the redirect chain.
	if kind := accessDenial(w, d, req, loc, rng); kind != blockpage.KindNone {
		vars.ClientIP = req.ClientIP.String()
		vars.CountryName = w.Geo.Name(loc.Country)
		body := blockpage.Render(kind, vars)
		return page(kind.Status(), header, kind, func() string { return body }, len(body), "")
	}

	// Same-site redirect hops: http→https, then apex→www.
	if next := redirectLocation(d, req); next != "" {
		header["Location"] = []string{next}
		const movedBody = "<html><head><title>301 Moved Permanently</title></head><body>moved</body></html>\n"
		return page(301, header, blockpage.KindNone, func() string {
			return movedBody
		}, len(movedBody), next)
	}

	// Flaky backends intermittently serve a shared junk page
	// (maintenance interstitial, default vhost page) — 200-status
	// short-page noise for the outlier pipeline.
	if d.JunkRate > 0 && rng.Bool(d.JunkRate) {
		kinds := blockpage.JunkKinds()
		k := kinds[stats.FNV1a(d.Name)%uint64(len(kinds))]
		junk := blockpage.RenderJunk(k, d.Name, vars.Nonce[:6])
		return page(200, header, blockpage.KindNone, func() string { return junk }, len(junk), "")
	}

	// Origin content — possibly an application-layer variant: the page
	// loads with a 200 everywhere, but some countries lose features or
	// see marked-up prices (§7.3).
	body := d.Origin
	variant := blockpage.PageVariant{}
	if d.AppLayer != nil {
		if d.AppLayer.RestrictedIn[loc.Country] {
			variant.Restricted = true
		}
		if f, ok := d.AppLayer.PriceMarkup[loc.Country]; ok {
			variant.PriceFactor = f
		}
	}
	n := body.VariantLength(req.SampleSeed, variant)
	return page(200, header, blockpage.KindNone, func() string {
		return body.RenderVariant(req.SampleSeed, variant)
	}, n, "")
}

func page(status int, h http.Header, kind blockpage.Kind, body func() string, n int, redirect string) Response {
	h["Content-Length"] = []string{strconv.Itoa(n)}
	return Response{
		Status:   status,
		Header:   h,
		BodyLen:  n,
		Body:     body,
		Page:     kind,
		Redirect: redirect,
	}
}

// accessDenial walks the serving chain and returns the page of the
// first layer that refuses the request, or KindNone when none does.
func accessDenial(w *worldgen.World, d *worldgen.Domain, req Request, loc geo.Location, rng *stats.RNG) blockpage.Kind {
	crawler := crawlerLike(req.Header)

	// Proxy-blacklist blocking fires before anything else: these
	// deployments deny the residential-proxy address lists wholesale,
	// in every country — the blocked-everywhere behaviour that defeats
	// the representative-length heuristic (Table 2) and that the
	// consistency analysis must exclude (§5.2.2).
	if d.BlocksProxies && w.Geo.IsProxyExit(req.ClientIP) {
		if d.DistilProtected {
			return blockpage.DistilCaptcha
		}
		switch {
		case d.FrontedBy(worldgen.Akamai):
			return blockpage.Akamai
		case d.FrontedBy(worldgen.Incapsula):
			return blockpage.Incapsula
		case d.Hosting() == worldgen.OriginVarnish:
			return blockpage.Varnish
		default:
			return blockpage.Nginx
		}
	}

	for _, p := range d.Providers {
		// Platform-level App Engine block (§4.2.1): Google itself, not
		// the customer, denies sanctioned locations.
		if p == worldgen.AppEngine && d.GAEHosted && gaeBlocked(loc) {
			return blockpage.AppEngine
		}

		if rule, ok := d.GeoRules[p]; ok && rule.Applies(loc, req.Clock) {
			switch rule.Action {
			case worldgen.ActionBlock:
				if d.Legal451 {
					// RFC 7725: the operator states the legal basis.
					return blockpage.Legal451
				}
				return blockKind(p)
			case worldgen.ActionCaptcha:
				return captchaKind(d, p)
			case worldgen.ActionJS:
				return blockpage.CloudflareJS
			}
		}

		// Bot defense: crawler-like fingerprints are denied with the
		// same page the provider uses for everything else — the §3.1
		// false-positive machine.
		if crawler && d.BotSensitivity > 0 && rng.Bool(d.BotSensitivity) {
			switch p {
			case worldgen.Akamai:
				return blockpage.Akamai
			case worldgen.Incapsula:
				return blockpage.Incapsula
			case worldgen.Cloudflare:
				return blockpage.CloudflareCaptcha
			}
		}

		// Anonymizer challenge: Cloudflare-fronted sites challenge
		// known Tor/VPN exit addresses (the tool-vs-Tor fate sharing of
		// Khattak et al., §8); the verdict is sticky per (domain,
		// address). The challenge page carries a 403, which is why OONI
		// controls made over Tor so often look "blocked" (§7.1).
		if p == worldgen.Cloudflare && w.Geo.IsAnonymizer(req.ClientIP) {
			draw := float64(stats.Mix64(stats.FNV1a(d.Name)^uint64(req.ClientIP)^0x7042)>>11) / (1 << 53)
			if draw < 0.80 {
				return blockpage.CloudflareCaptcha
			}
		}

		// IP-reputation denial: reputation-prone Akamai/Incapsula
		// deployments deny sources from abuse-heavy address space at a
		// rate scaled by the client's country risk (and higher for
		// datacenter sources). The verdict is *sticky per (domain,
		// client address)* — blacklists do not flip between requests —
		// so a VPS revisit reproduces the block (§3.1's "genuine"
		// pairs) while residential measurements through rotating exits
		// see it intermittently. The page is the same ambiguous one the
		// provider uses for geo rules, which is why the paper needs the
		// consistency analysis of §5.2.2 to separate the two.
		if d.ReputationSensitivity > 0 && (p == worldgen.Akamai || p == worldgen.Incapsula) {
			risk := countryRiskFactor(w, loc, w.Geo.IsDatacenter(req.ClientIP))
			if w.Geo.IsAnonymizer(req.ClientIP) {
				risk = 0.88
			}
			draw := float64(stats.Mix64(stats.FNV1a(d.Name)^uint64(req.ClientIP)^0x5ca1ab1e)>>11) / (1 << 53)
			if draw < d.ReputationSensitivity*risk {
				if p == worldgen.Akamai {
					return blockpage.Akamai
				}
				return blockpage.Incapsula
			}
		}
	}

	// Airbnb's custom application-level restriction page.
	if d.AirbnbStyle && airbnbBlocked(loc) {
		return blockpage.Airbnb
	}

	// IP-reputation noise: heavily defended sites challenge even
	// browser-like residential clients at a low per-request rate.
	if d.ResidentialChallengeRate > 0 && rng.Bool(d.ResidentialChallengeRate) {
		if d.DistilProtected {
			return blockpage.DistilCaptcha
		}
		if d.FrontedBy(worldgen.Cloudflare) {
			return blockpage.CloudflareCaptcha
		}
		return blockpage.DistilCaptcha
	}

	return blockpage.KindNone
}

// blockKind maps a provider to its hard-block page.
func blockKind(p worldgen.Provider) blockpage.Kind {
	switch p {
	case worldgen.Cloudflare:
		return blockpage.Cloudflare
	case worldgen.Akamai:
		return blockpage.Akamai
	case worldgen.CloudFront:
		return blockpage.CloudFront
	case worldgen.AppEngine:
		return blockpage.AppEngine
	case worldgen.Incapsula:
		return blockpage.Incapsula
	case worldgen.Baidu:
		return blockpage.Baidu
	case worldgen.Soasta:
		return blockpage.Soasta
	case worldgen.OriginNginx:
		return blockpage.Nginx
	case worldgen.OriginVarnish:
		return blockpage.Varnish
	default:
		return blockpage.Nginx
	}
}

// captchaKind maps a provider (and the Distil overlay) to its
// interactive challenge page.
func captchaKind(d *worldgen.Domain, p worldgen.Provider) blockpage.Kind {
	if d.DistilProtected {
		return blockpage.DistilCaptcha
	}
	switch p {
	case worldgen.Cloudflare:
		return blockpage.CloudflareCaptcha
	case worldgen.Baidu:
		return blockpage.BaiduCaptcha
	default:
		return blockpage.DistilCaptcha
	}
}

// countryRiskFactor scales reputation-based denials by the abuse
// profile of the client's network: sanctioned countries' address space
// carries the worst reputations, high-risk countries follow, everyone
// else sees only background noise, and datacenter sources are penalized
// on top.
func countryRiskFactor(w *worldgen.World, loc geo.Location, datacenter bool) float64 {
	risk := 0.035
	switch loc.Country {
	case "IR", "SY", "SD", "CU", "KP":
		risk = 0.60
	default:
		if c, ok := w.Geo.Country(loc.Country); ok && c.HighRisk {
			risk = 0.18
		}
	}
	if datacenter {
		risk *= 1.6
		if risk > 0.95 {
			risk = 0.95
		}
	}
	return risk
}

// crawlerLike implements the bot-fingerprint heuristic the paper's
// tooling fought: merely setting User-Agent is insufficient (§3.2); a
// browser-like request carries Accept, Accept-Language and a Mozilla
// UA.
func crawlerLike(h http.Header) bool {
	if h == nil {
		return true
	}
	ua := headerValue(h, "User-Agent")
	if ua == "" {
		return true
	}
	if headerValue(h, "Accept") == "" || headerValue(h, "Accept-Language") == "" {
		return true
	}
	return false
}

// headerValue is h.Get for a key in canonical form, without Get's
// canonicalization pass.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// redirectLocation computes the next hop of the domain's same-site
// redirect chain, or "" when content should be served.
func redirectLocation(d *worldgen.Domain, req Request) string {
	if d.RedirectLoop {
		// Pathological: bounce between two paths forever.
		if req.Path == "/a" {
			return req.Scheme + "://" + req.Host + "/b"
		}
		return req.Scheme + "://" + req.Host + "/a"
	}
	www := len(req.Host) > 4 && req.Host[:4] == "www."
	switch {
	case d.RedirectHops >= 1 && req.Scheme == "http":
		return "https://" + req.Host + req.Path
	case d.RedirectHops >= 2 && !www:
		return "https://www." + req.Host + req.Path
	}
	return ""
}

// rayAndNonce renders ray as 16 and nonce as 8 zero-padded lowercase
// hex digits, in one string: fmt's %016x and %08x without fmt.
func rayAndNonce(ray uint64, nonce uint32) string {
	const digits = "0123456789abcdef"
	var buf [24]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[ray&0xf]
		ray >>= 4
	}
	for i := 23; i >= 16; i-- {
		buf[i] = digits[nonce&0xf]
		nonce >>= 4
	}
	return string(buf[:])
}

// The static provider header values, rendered once and shared by every
// response. Sharing is safe: nothing modifies a header value in place,
// and Header.Add appends to these full slices by copying.
var (
	hdrHTML           = []string{"text/html; charset=utf-8"}
	hdrCloudflare     = []string{"cloudflare"}
	hdrCloudFrontMiss = []string{"Miss from cloudfront"}
	hdrIncapsula      = []string{"Incapsula"}
	hdrYes            = []string{"YES"}
	hdrBaidu          = []string{"yunjiasu-nginx"}
	hdrSoasta         = []string{"soasta-mpulse"}
	hdrNginx          = []string{"nginx/1.14.0"}
	hdrVarnish        = []string{"1.1 varnish"}
	hdrApache         = []string{"Apache/2.4.29 (Ubuntu)"}
)

// addProviderHeaders attaches each provider's identifying headers: the
// discovery signals of §5.1.1. Keys are canonical (CF-RAY travels as
// Cf-Ray, X-CDN as X-Cdn), and a later provider's header replaces an
// earlier one's, as Header.Set would.
func addProviderHeaders(h http.Header, p worldgen.Provider, req Request, ids string) {
	ray, nonce := ids[:16], ids[16:]
	switch p {
	case worldgen.Cloudflare:
		h["Server"] = hdrCloudflare
		h["Cf-Ray"] = []string{ray[:12] + "-SIM"}
	case worldgen.CloudFront:
		h["Via"] = []string{"1.1 " + nonce + ".cloudfront.net (CloudFront)"}
		h["X-Amz-Cf-Id"] = []string{ids} // the Ray ID followed by the nonce
		h["X-Cache"] = hdrCloudFrontMiss
	case worldgen.Incapsula:
		h["X-Iinfo"] = []string{"9-" + nonce + " 0NNN RT"}
		h["X-Cdn"] = hdrIncapsula
	case worldgen.Akamai:
		// Akamai identifies itself only when poked with the Pragma
		// debug header (§5.1.1).
		if wantsAkamaiDebug(req.Header) {
			h["X-Cache"] = []string{"TCP_MISS from a23-" + nonce[:4] + ".deploy.akamaitechnologies.com (AkamaiGHost/9.5.0)"}
			h["X-Check-Cacheable"] = hdrYes
			h["X-Cache-Key"] = []string{"/L/1234/567890/1d/origin." + req.Domain.Name + "/"}
		}
	case worldgen.Baidu:
		h["Server"] = hdrBaidu
	case worldgen.Soasta:
		h["X-1-Edge"] = hdrSoasta
	case worldgen.AppEngine:
		// No identifying header: App Engine customers are discovered by
		// netblock (§5.1.1).
	case worldgen.OriginNginx:
		h["Server"] = hdrNginx
	case worldgen.OriginVarnish:
		h["Via"] = hdrVarnish
		h["X-Varnish"] = []string{nonce}
	case worldgen.OriginApache:
		h["Server"] = hdrApache
	}
}

// wantsAkamaiDebug reports whether the client sent the Akamai Pragma
// debug directives.
func wantsAkamaiDebug(h http.Header) bool {
	if h == nil {
		return false
	}
	for _, v := range h["Pragma"] {
		if containsFold(v, "akamai-x-cache-on") || containsFold(v, "akamai-x-get-cache-key") {
			return true
		}
	}
	return false
}

func containsFold(s, sub string) bool {
	n := len(sub)
	if n == 0 {
		return true
	}
	for i := 0; i+n <= len(s); i++ {
		ok := true
		for j := 0; j < n; j++ {
			a, b := s[i+j], sub[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// maybeMisgeolocate perturbs the edge's view of the client location for
// the sticky fraction of addresses the GeoIP database has wrong, moving
// them to an adjacent country in the table.
func maybeMisgeolocate(w *worldgen.World, loc geo.Location, ip geo.IP) geo.Location {
	if loc.Country == "" {
		return loc
	}
	h := stats.Mix64(uint64(ip) ^ 0x6e0c817)
	if h%1000 >= edgeGeoIPErrorPermille {
		return loc
	}
	cs := w.Geo.Countries()
	for i, c := range cs {
		if c.Code == loc.Country {
			j := (i + 1 + int(h>>32)%5) % len(cs)
			return geo.Location{Country: cs[j].Code}
		}
	}
	return loc
}

// gaeBlocked mirrors Google's platform policy: Cuba, Iran, Syria,
// Sudan, North Korea, Crimea.
func gaeBlocked(loc geo.Location) bool {
	switch loc.Country {
	case "CU", "IR", "SY", "SD", "KP":
		return true
	}
	return loc.Region == geo.RegionCrimea
}

// airbnbBlocked mirrors Airbnb's stated policy: Crimea, Iran, Syria,
// North Korea.
func airbnbBlocked(loc geo.Location) bool {
	switch loc.Country {
	case "IR", "SY", "KP":
		return true
	}
	return loc.Region == geo.RegionCrimea
}
