// Package proxy models the measurement platform's vantage points: a
// Luminati-style residential proxy mesh (superproxies fronting end-user
// exit machines in each country) and the fleet of datacenter VPSes used
// for validation (§2.2).
//
// The mesh reproduces the error structure that motivated the paper's
// Lumscan tool: unreliable residential exits, local filtering by
// corporate firewalls, occasionally mislocated machines, domains the
// proxy operator refuses to fetch (X-Luminati-Error), and countries
// with no exits at all (North Korea). All stochastic behaviour is
// deterministic per (exit, domain, sample) so studies replay exactly.
package proxy

import (
	"fmt"
	"io"
	"net/http"

	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

// Exit is one residential proxy machine.
type Exit struct {
	// IP is the address the exit's traffic sources from.
	IP geo.IP
	// Claimed is the country the proxy platform advertises for the
	// exit. For mislocated exits the IP geolocates elsewhere.
	Claimed geo.CountryCode
	// Reliability is the per-request success probability.
	Reliability float64
	// CorporateFirewall marks exits behind local filtering that blocks
	// a slice of domains regardless of geography (§4.2).
	CorporateFirewall bool
	// Mislocated marks exits whose true location differs from Claimed.
	Mislocated bool
	// InCrimea marks Ukrainian exits inside the Crimea region.
	InCrimea bool
}

// FaultVerdict is a fault hook's decision for one request through an
// exit.
type FaultVerdict uint8

const (
	// FaultNone: the request proceeds normally.
	FaultNone FaultVerdict = iota
	// FaultExitDown: the exit connection fails at the superproxy.
	FaultExitDown
	// FaultStall: the connection stalls until the client times out
	// (slowloris-shaped failure).
	FaultStall
	// FaultTruncate: the response body is cut mid-transfer.
	FaultTruncate
	// FaultReset: the connection is reset before any response.
	FaultReset
)

// FaultHook is the mesh's fault-injection seam (internal/faults holds
// the standard implementation). Every method MUST be a pure function of
// its arguments plus the hook's own seed — never of call order, shared
// mutable state, or wall time — or scan output stops being reproducible
// across Concurrency values. Hooks are called concurrently.
type FaultHook interface {
	// Brownout reports whether the superproxy refuses to open a session
	// for cc at slot on the given (0-based) open attempt. Transient
	// brownouts clear after a profile-determined number of attempts.
	Brownout(cc geo.CountryCode, slot uint64, attempt int) bool
	// ExitDark reports whether exit is dark for the whole run: it fails
	// the connectivity pre-check and every request.
	ExitDark(cc geo.CountryCode, exit geo.IP) bool
	// Churned reports whether exit has died mid-session after serving
	// `served` requests on the current sticky stretch.
	Churned(cc geo.CountryCode, exit geo.IP, served int) bool
	// Request draws the per-request fault verdict. seed is the
	// deterministic per-sample seed.
	Request(cc geo.CountryCode, exit geo.IP, host string, seed uint64) FaultVerdict
}

// Network is the proxy mesh.
type Network struct {
	World  *worldgen.World
	exits  map[geo.CountryCode][]*Exit
	faults FaultHook
}

// SetFaults installs (or, with nil, removes) the fault-injection hook.
// Install before opening sessions; the hook is shared by every session
// the network hands out.
func (n *Network) SetFaults(h FaultHook) { n.faults = h }

// maxExitsPerCountry caps the materialized inventory; rotation cycles
// within it.
const maxExitsPerCountry = 240

// NewNetwork builds the mesh from the world's per-country exit
// inventories.
func NewNetwork(w *worldgen.World) *Network {
	rng := stats.NewRNG(w.Cfg.Seed).Fork("proxy")
	n := &Network{World: w, exits: make(map[geo.CountryCode][]*Exit)}
	countries := w.Geo.Countries()
	for _, c := range countries {
		if c.LuminatiExits == 0 {
			continue
		}
		crng := rng.Fork(string(c.Code))
		count := c.LuminatiExits
		if count > maxExitsPerCountry {
			count = maxExitsPerCountry
		}
		base := 0.975
		switch {
		case c.Flaky:
			base = 0.55
		case c.Code == "KM": // Comoros: the paper's 76.4% response-rate outlier
			base = 0.80
		case c.Sanctioned:
			// Sanctioned countries' residential connectivity is the
			// study's noisiest: throttled uplinks, intermittent power.
			base = 0.93
		case c.GDPTier == 5:
			base = 0.95
		}
		exits := make([]*Exit, count)
		for i := range exits {
			e := &Exit{
				Claimed:     c.Code,
				Reliability: clampProb(base - 0.15*crng.Float64()),
			}
			e.CorporateFirewall = crng.Bool(0.08)
			switch {
			case crng.Bool(0.015):
				// Mislocated: the machine's address geolocates to a
				// nearby (table-adjacent) country.
				e.Mislocated = true
				other := countries[(indexOf(countries, c.Code)+1+crng.Intn(4))%len(countries)]
				e.IP = mustExitIP(w, other.Code, crng.Uint64())
			case c.Code == "UA" && crng.Bool(0.06):
				e.InCrimea = true
				e.IP = w.Geo.CrimeaHostIP(crng.Uint64())
			default:
				e.IP = mustExitIP(w, c.Code, crng.Uint64())
			}
			exits[i] = e
		}
		n.exits[c.Code] = exits
	}
	return n
}

func indexOf(cs []geo.Country, code geo.CountryCode) int {
	for i, c := range cs {
		if c.Code == code {
			return i
		}
	}
	return 0
}

// mustExitIP mints a proxy-exit address: exit machines run the Hola
// client, and their addresses sit in the proxy-flagged slice that
// commercial blacklists cover (§3.2's bot-defense fate sharing).
func mustExitIP(w *worldgen.World, cc geo.CountryCode, n uint64) geo.IP {
	ip, err := w.Geo.ProxyExitIP(cc, n)
	if err != nil {
		panic(err)
	}
	return ip
}

func clampProb(p float64) float64 {
	if p < 0.3 {
		return 0.3
	}
	if p > 1 {
		return 1
	}
	return p
}

// Countries returns the codes with at least one exit, sorted.
func (n *Network) Countries() []geo.CountryCode {
	var out []geo.CountryCode
	for _, c := range n.World.Geo.Countries() {
		if len(n.exits[c.Code]) > 0 {
			out = append(out, c.Code)
		}
	}
	return out
}

// Exits exposes a country's inventory (for diagnostics and tests).
func (n *Network) Exits(cc geo.CountryCode) []*Exit { return n.exits[cc] }

// ErrNoExits is returned when a country has no residential exits.
type ErrNoExits struct{ Country geo.CountryCode }

func (e *ErrNoExits) Error() string {
	return fmt.Sprintf("proxy: no exits available in %s", e.Country)
}

// ErrBrownout is returned when the superproxy fronting a country is
// (transiently) refusing to open sessions. Unlike ErrNoExits it is
// worth retrying: brownouts clear.
type ErrBrownout struct {
	Country geo.CountryCode
	Attempt int
}

func (e *ErrBrownout) Error() string {
	return fmt.Sprintf("proxy: superproxy brownout in %s (open attempt %d)", e.Country, e.Attempt)
}

// Session is a sticky proxy session: requests flow through one exit
// until the caller rotates. Sessions are not safe for concurrent use;
// open one per worker, as the real superproxy protocol does.
type Session struct {
	net   *Network
	cc    geo.CountryCode
	exits []*Exit
	cur   int
	used  int
}

// NewSession opens a session exiting in cc, starting at a
// deterministic position derived from slot (workers pass distinct
// slots to spread over the inventory).
func (n *Network) NewSession(cc geo.CountryCode, slot uint64) (*Session, error) {
	return n.NewSessionAttempt(cc, slot, 0)
}

// NewSessionAttempt is NewSession with an explicit 0-based open-attempt
// index, which the fault hook consults for superproxy brownouts: a
// browned-out open fails with *ErrBrownout, and retrying with a higher
// attempt may succeed once the brownout clears.
func (n *Network) NewSessionAttempt(cc geo.CountryCode, slot uint64, attempt int) (*Session, error) {
	exits := n.exits[cc]
	if len(exits) == 0 {
		return nil, &ErrNoExits{Country: cc}
	}
	if n.faults != nil && n.faults.Brownout(cc, slot, attempt) {
		return nil, &ErrBrownout{Country: cc, Attempt: attempt}
	}
	return &Session{
		net:   n,
		cc:    cc,
		exits: exits,
		cur:   int(stats.Mix64(slot) % uint64(len(exits))),
	}, nil
}

// NewRegionSession opens a session restricted to cc's exits inside (or
// outside) the Crimea region — the sub-national vantage selection the
// paper's §4.2.2 observation calls for.
func (n *Network) NewRegionSession(cc geo.CountryCode, crimea bool, slot uint64) (*Session, error) {
	var filtered []*Exit
	for _, e := range n.exits[cc] {
		if e.InCrimea == crimea && !e.Mislocated {
			filtered = append(filtered, e)
		}
	}
	if len(filtered) == 0 {
		return nil, &ErrNoExits{Country: cc}
	}
	return &Session{
		net:   n,
		cc:    cc,
		exits: filtered,
		cur:   int(stats.Mix64(slot) % uint64(len(filtered))),
	}, nil
}

// Exit returns the session's current exit.
func (s *Session) Exit() *Exit { return s.exits[s.cur] }

// InventorySize is the number of exits the session rotates over — the
// upper bound on how many distinct machines a probe sweep can reach.
func (s *Session) InventorySize() int { return len(s.exits) }

// Rotate moves the session to the next exit machine.
func (s *Session) Rotate() {
	s.cur = (s.cur + 1) % len(s.exits)
	s.used = 0
}

// Used returns how many requests the current exit has served.
func (s *Session) Used() int { return s.used }

// Verify performs the connectivity pre-check Lumscan runs before
// scanning: a request to a platform-controlled page that echoes the
// exit's address and advertised geolocation. It fails when the exit is
// (transiently) broken.
func (s *Session) Verify(seed uint64) (geo.IP, geo.CountryCode, error) {
	e := s.Exit()
	if s.net.faults != nil && s.net.faults.ExitDark(s.cc, e.IP) {
		return 0, "", &vnet.OpError{Op: "proxy", Host: "lumtest.example", Msg: "exit dark"}
	}
	rng := stats.NewRNG(stats.Mix64(seed) ^ uint64(e.IP) ^ 0xc0ffee)
	if !rng.Bool(e.Reliability) {
		return 0, "", &vnet.OpError{Op: "proxy", Host: "lumtest.example", Msg: "exit unavailable"}
	}
	return e.IP, e.Claimed, nil
}

// RoundTrip sends req through the session's current exit. It applies,
// in order: the platform's own domain policy (X-Luminati-Error), the
// exit's reliability, the exit's local firewall, and then the real
// network path from the exit's address.
func (s *Session) RoundTrip(req *http.Request) (*http.Response, error) {
	e := s.Exit()
	served := s.used
	s.used++

	host := trimHost(req.URL.Hostname())
	seed, _ := vnet.SampleSeed(req.Context())
	rng := stats.NewRNG(stats.Mix64(seed) ^ uint64(e.IP) ^ stats.FNV1a(host))

	// Injected faults sit in front of the mesh's organic error
	// structure, so a chaos run layers on top of (never replaces) the
	// paper's baseline unreliability.
	truncate := false
	if f := s.net.faults; f != nil {
		if f.ExitDark(s.cc, e.IP) || f.Churned(s.cc, e.IP, served) {
			return nil, &vnet.OpError{Op: "proxy", Host: host, Msg: "superproxy: exit connection failed"}
		}
		switch f.Request(s.cc, e.IP, host, seed) {
		case FaultExitDown:
			return nil, &vnet.OpError{Op: "proxy", Host: host, Msg: "superproxy: exit connection failed"}
		case FaultStall:
			return nil, vnet.TimeoutError("read", host)
		case FaultReset:
			return nil, &vnet.OpError{Op: "read", Host: host, Msg: "connection reset by peer"}
		case FaultTruncate:
			truncate = true
		}
	}

	if d, ok := s.net.World.Lookup(host); ok && d.LuminatiRestricted {
		h := make(http.Header)
		h.Set("X-Luminati-Error", "403 Forbidden: target site requests to not be crawled")
		return &http.Response{
			Status: "502 Bad Gateway", StatusCode: 502,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: h, Body: http.NoBody, Request: req,
		}, nil
	}

	// Path-level unreachability: some (country, destination) pairs
	// never connect — broken transit, MTU black holes, filtered
	// upstreams. The verdict is stable per pair, so retries and exit
	// rotation cannot fix it: this is what keeps even well-connected
	// countries at the paper's 89–94% per-domain response rates, and
	// what buries Comoros at ~76% (§4.1.1).
	if pathUnreachable(s.cc, host, s.net.World.Geo) {
		return nil, vnet.TimeoutError("dial", host)
	}

	if !rng.Bool(e.Reliability) {
		return nil, &vnet.OpError{Op: "proxy", Host: host, Msg: "superproxy: exit connection failed"}
	}

	// Corporate firewalls block a stable slice of domains for the
	// machines behind them (the paper's suspected source of local
	// interference, §4.2).
	if e.CorporateFirewall && stats.Mix64(stats.FNV1a(host)^uint64(e.IP))%100 < 4 {
		return nil, &vnet.OpError{Op: "read", Host: host, Msg: "connection reset by local filter"}
	}

	stack := vnet.NewStack(s.net.World, e.IP)
	resp, err := stack.RoundTrip(req)
	if err == nil && truncate {
		truncateResponse(resp, seed)
	}
	return resp, err
}

// truncateResponse rewrites resp so the transfer dies mid-body: the
// advertised length disappears and reads fail after a seed-determined
// prefix, the way a dropped residential uplink looks to the client.
func truncateResponse(resp *http.Response, seed uint64) {
	keep := int(stats.Mix64(seed^0x7c1) % 512)
	resp.Header = resp.Header.Clone()
	if resp.Header != nil {
		resp.Header.Del("Content-Length")
	}
	resp.ContentLength = -1
	resp.Body = &truncatedBody{inner: resp.Body, remaining: keep}
}

// truncatedBody yields at most `remaining` bytes, then fails the read.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, &vnet.OpError{Op: "read", Host: "", Msg: "connection reset mid-transfer"}
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= n
	if err == io.EOF {
		// The origin finished first: the fault still eats the FIN.
		return n, &vnet.OpError{Op: "read", Host: "", Msg: "connection reset mid-transfer"}
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }

// pathUnreachable draws the stable per-(country, destination) transit
// verdict.
func pathUnreachable(cc geo.CountryCode, host string, db *geo.DB) bool {
	rate := uint64(50) // 5.0% baseline, in 1/1000
	if c, ok := db.Country(cc); ok {
		switch {
		case c.Flaky:
			rate = 300
		case cc == "KM":
			rate = 200
		case c.GDPTier == 5:
			rate = 80
		}
	}
	h := stats.Mix64(stats.FNV1a(string(cc)) ^ stats.FNV1a(host) ^ 0x9a7)
	return h%1000 < rate
}

func trimHost(h string) string {
	if len(h) > 4 && h[:4] == "www." {
		return h[4:]
	}
	return h
}
