// The fetcher layer: one HTTP attempt, its redirect chain, and its
// error classification.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"geoblock/internal/geo"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var errRedirectLimit = errors.New("scanner: redirect limit reached")

// fetcher performs single attempts through one transport, following
// redirects itself: each hop is one RoundTrip on the session, so the
// exit's request budget counts every hop. It carries the shard's
// context so every request is cancellable end to end.
type fetcher struct {
	ctx context.Context
	rt  http.RoundTripper
	// header is the canonical request header, built once and shared
	// read-only by every request of every attempt: the RoundTripper
	// contract forbids transports from modifying a request.
	header       http.Header
	maxRedirects int
	keepBody     func(status, bodyLen int) bool
	met          *fetchMetrics
}

// newFetcher builds a fetcher over rt with the config's header set,
// redirect bound, and body-retention policy.
func newFetcher(ctx context.Context, rt http.RoundTripper, cfg Config) *fetcher {
	if cfg.WrapTransport != nil {
		rt = cfg.WrapTransport(rt)
	}
	header := make(http.Header, len(cfg.Headers))
	for k, v := range cfg.Headers {
		header.Set(k, v)
	}
	return &fetcher{
		ctx:          ctx,
		rt:           rt,
		header:       header,
		maxRedirects: cfg.MaxRedirects,
		keepBody:     cfg.KeepBody,
		met:          newFetchMetrics(cfg.Metrics),
	}
}

// do sends req and follows its redirect chain the way http.Client
// does: 301, 302, 303, 307 and 308 answers that carry a Location are
// followed (a bodiless GET keeps its method on every one of them), the
// Location resolves against the hop's URL, each hop's request carries
// the response that caused it in Request.Response, and the chain stops
// with errRedirectLimit once maxRedirects requests have been answered
// with a redirect. A 3xx without a Location is the final response.
func (f *fetcher) do(req *http.Request) (*http.Response, error) {
	for hops := 1; ; hops++ {
		resp, err := f.rt.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		if resp.Body == nil {
			if resp.ContentLength > 0 {
				return nil, fmt.Errorf("scanner: %T returned a nil body for %d bytes", f.rt, resp.ContentLength)
			}
			resp.Body = http.NoBody
		}
		switch resp.StatusCode {
		case http.StatusMovedPermanently, http.StatusFound, http.StatusSeeOther,
			http.StatusTemporaryRedirect, http.StatusPermanentRedirect:
		default:
			return resp, nil
		}
		loc := resp.Header.Get("Location")
		if loc == "" {
			return resp, nil
		}
		u, err := req.URL.Parse(loc)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if hops >= f.maxRedirects {
			return nil, errRedirectLimit
		}
		next := new(http.Request)
		*next = *req // keeps the method, header and context
		next.URL, next.Host, next.Response = u, "", resp
		req = next
	}
}

// fetch performs one attempt and classifies the outcome. exit is the
// address serving the attempt (recorded even on failure, for the load
// accounting and for replay). The return value is named so the metrics
// defer observes the final sample whichever path produced it.
func (f *fetcher) fetch(domain string, seed uint64, t Task, attempt uint8, exit geo.IP) (s Sample) {
	if f.met != nil {
		start := f.met.reg.Now()
		defer func() { f.met.observe(&s, f.met.reg.Now().Sub(start)) }()
	}
	s = Sample{Domain: t.Domain, Country: t.Country, Attempt: attempt, Seed: seed, ExitIP: exit}

	req := (&http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Scheme: "http", Host: domain, Path: "/"},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     f.header,
		Host:       domain,
	}).WithContext(vnet.WithSampleSeed(f.ctx, seed))

	resp, err := f.do(req)
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

	// Content-Length is -1 when the header is absent; storing it
	// verbatim would poison the §4.1.2 page-length outlier math, so
	// such bodies are read and counted instead.
	var body []byte
	bodyLen := resp.ContentLength
	if bodyLen < 0 {
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			s.Err = ErrReset
			return s
		}
		bodyLen = int64(len(body))
	}
	s.BodyLen = int32(bodyLen)
	if f.keepBody(resp.StatusCode, int(bodyLen)) {
		if body == nil {
			body, err = io.ReadAll(resp.Body)
			if err != nil {
				s.Err = ErrReset
				return s
			}
		}
		s.Body = string(body)
		s.BodyLen = int32(len(body))
	}
	return s
}

// Replay re-fetches the exact body of a previously collected sample:
// the response is a pure function of (domain, exit address, seed), so
// the pipeline can cluster outlier bodies without having stored them.
// It is one fetcher attempt straight from the exit's stack, keeping
// the body whatever its status.
func Replay(ctx context.Context, w *worldgen.World, domain string, exit geo.IP, seed uint64, headers map[string]string, maxRedirects int) (string, int, error) {
	cfg := Config{Headers: headers, MaxRedirects: maxRedirects, KeepBody: BodyAll.keep()}
	s := newFetcher(ctx, vnet.NewStack(w, exit), cfg).fetch(domain, seed, Task{}, 0, exit)
	if s.Err != ErrNone {
		return "", 0, fmt.Errorf("scanner: replay %s: %s", domain, s.Err)
	}
	return s.Body, int(s.Status), nil
}

// classifyError maps transport errors onto the sample taxonomy. The
// fetcher returns the redirect-limit sentinel bare; errors.Is still
// unwraps it from any wrapping (an *url.Error, say, from a caller that
// follows redirects with an *http.Client).
func classifyError(err error) ErrCode {
	var op *vnet.OpError
	if errors.As(err, &op) {
		switch {
		case op.Timeout():
			return ErrTimeout
		case op.Op == "dns":
			return ErrDNS
		case op.Op == "proxy":
			return ErrProxy
		default:
			return ErrReset
		}
	}
	if errors.Is(err, errRedirectLimit) {
		return ErrRedirects
	}
	return ErrProxy
}
