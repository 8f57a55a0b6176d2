// Package vnet is the virtual network layer: it connects a client
// address to the simulated web through a standard http.RoundTripper.
// The scanner's fetcher drives that transport directly, one RoundTrip
// per redirect hop, and follows the chain itself the way http.Client
// does; Stack.Client wraps it in an ordinary *http.Client for the
// tooling that wants one.
//
// The stack performs DNS resolution against the world, applies national
// censorship in-path (resets, poisoned DNS, injected block pages,
// timeouts), and hands surviving requests to the CDN edge. Timeouts are
// simulated — the errors satisfy net.Error with Timeout() == true but
// return immediately, keeping million-request studies fast.
package vnet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"geoblock/internal/blockpage"
	"geoblock/internal/cdn"
	"geoblock/internal/censor"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// OpError is the network-level failure type. It satisfies net.Error.
type OpError struct {
	Op      string // "dial", "dns", "read"
	Host    string
	Msg     string
	timeout bool
}

// TimeoutError builds an OpError that reports Timeout() == true — for
// layers outside this package that simulate dropped connections.
func TimeoutError(op, host string) *OpError {
	return &OpError{Op: op, Host: host, Msg: "i/o timeout", timeout: true}
}

func (e *OpError) Error() string   { return fmt.Sprintf("%s %s: %s", e.Op, e.Host, e.Msg) }
func (e *OpError) Timeout() bool   { return e.timeout }
func (e *OpError) Temporary() bool { return true }

// Stack is one client's network stack: a source address plus the world
// it is plugged into. It implements http.RoundTripper and is safe for
// concurrent use.
type Stack struct {
	World *worldgen.World
	IP    geo.IP
}

// NewStack returns a stack sourcing traffic from ip.
func NewStack(w *worldgen.World, ip geo.IP) *Stack {
	return &Stack{World: w, IP: ip}
}

// Client returns an *http.Client that routes through the stack,
// following up to maxRedirects redirects (the paper's tooling used 10).
func (s *Stack) Client(maxRedirects int) *http.Client {
	return &http.Client{
		Transport: s,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= maxRedirects {
				return fmt.Errorf("stopped after %d redirects", maxRedirects)
			}
			return nil
		},
	}
}

type seedKey struct{}

// WithSampleSeed attaches the deterministic per-sample seed to ctx. The
// scanner sets it so that a (domain, vantage, sample-index) triple
// always reproduces the identical response — the property that lets
// the pipeline re-fetch a sample's body instead of storing terabytes.
func WithSampleSeed(ctx context.Context, seed uint64) context.Context {
	return context.WithValue(ctx, seedKey{}, seed)
}

// SampleSeed extracts the seed; absent seeds derive from the request
// itself (still deterministic per URL+IP, but shared across repeats).
func SampleSeed(ctx context.Context) (uint64, bool) {
	v, ok := ctx.Value(seedKey{}).(uint64)
	return v, ok
}

// RoundTrip implements http.RoundTripper over the simulated Internet.
func (s *Stack) RoundTrip(req *http.Request) (*http.Response, error) {
	host := strings.ToLower(req.URL.Hostname())
	lookupHost := strings.TrimPrefix(host, "www.")

	seed, ok := SampleSeed(req.Context())
	if !ok {
		seed = stats.Mix64(stats.FNV1a(host) ^ uint64(s.IP))
	}

	loc, _ := s.World.Geo.Locate(s.IP)

	d, found := s.World.Lookup(lookupHost)

	// National censorship sits between the client and everything else;
	// DNS poisoning fires even for domains that would not resolve.
	if found {
		switch censor.Check(d, loc) {
		case censor.RST:
			return nil, &OpError{Op: "read", Host: host, Msg: "connection reset by peer"}
		case censor.DNSPoison:
			return nil, &OpError{Op: "dns", Host: host, Msg: "poisoned answer: connection refused"}
		case censor.Timeout:
			return nil, &OpError{Op: "dial", Host: host, Msg: "i/o timeout", timeout: true}
		case censor.BlockPage:
			return s.censorPage(req, d, seed)
		}
	}

	if !found {
		return nil, &OpError{Op: "dns", Host: host, Msg: "no such host"}
	}
	if d.Unreachable {
		return nil, &OpError{Op: "dial", Host: host, Msg: "i/o timeout", timeout: true}
	}

	// Timeout geoblocking (§7.3): the origin silently drops connections
	// from blocked countries — indistinguishable on the wire from an
	// outage or censorship, which is exactly what makes it hard to
	// attribute.
	if d.TimeoutBlockedIn(loc) {
		return nil, &OpError{Op: "dial", Host: host, Msg: "i/o timeout", timeout: true}
	}

	resp := cdn.Serve(s.World, cdn.Request{
		Domain:     d,
		Host:       host,
		Path:       req.URL.Path,
		Method:     req.Method,
		Scheme:     req.URL.Scheme,
		ClientIP:   s.IP,
		Header:     req.Header,
		Clock:      s.World.Clock(),
		SampleSeed: seed,
	})
	return toHTTP(req, resp), nil
}

// censorPage injects the national filter's block page.
func (s *Stack) censorPage(req *http.Request, d *worldgen.Domain, seed uint64) (*http.Response, error) {
	rng := stats.NewRNG(seed)
	body := blockpage.Render(blockpage.Censorship, blockpage.Vars{
		Domain:   d.Name,
		ClientIP: s.IP.String(),
		Nonce:    fmt.Sprintf("%06x", uint32(rng.Uint64())),
	})
	h := http.Header{
		"Content-Type":   {"text/html; charset=windows-1256"},
		"Content-Length": {strconv.Itoa(len(body))},
	}
	return &http.Response{
		Status:        "403 Forbidden",
		StatusCode:    403,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		ContentLength: int64(len(body)),
		Body:          newLazyBody(func() string { return body }),
		Request:       req,
	}, nil
}

// toHTTP converts an edge response into a standard *http.Response with
// a lazily rendered body. HEAD responses carry no body, per HTTP
// semantics, but keep Content-Length.
func toHTTP(req *http.Request, r cdn.Response) *http.Response {
	resp := &http.Response{
		Status:        statusLine(r.Status),
		StatusCode:    r.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.Header,
		ContentLength: int64(r.BodyLen),
		Request:       req,
	}
	if req.Method == http.MethodHead {
		resp.Body = http.NoBody
		return resp
	}
	resp.Body = newLazyBody(r.Body)
	return resp
}

// statusLines holds the Status field ("200 OK", "403 Forbidden") of
// every code below 600, so no response formats its own.
var statusLines = func() (t [600]string) {
	for code := range t {
		t[code] = strconv.Itoa(code) + " " + http.StatusText(code)
	}
	return t
}()

// statusLine is the Status field of a response with the given code.
func statusLine(code int) string {
	if code >= 0 && code < len(statusLines) {
		return statusLines[code]
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// lazyBody renders the page on first Read; responses whose bodies are
// never read (length-only scans) cost nothing.
type lazyBody struct {
	render func() string
	r      *strings.Reader
}

func newLazyBody(render func() string) io.ReadCloser {
	return &lazyBody{render: render}
}

func (b *lazyBody) Read(p []byte) (int, error) {
	if b.r == nil {
		b.r = strings.NewReader(b.render())
	}
	return b.r.Read(p)
}

func (b *lazyBody) Close() error { return nil }
