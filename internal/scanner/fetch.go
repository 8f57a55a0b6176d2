// The fetcher layer: one HTTP attempt and its error classification.
package scanner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"geoblock/internal/geo"
	"geoblock/internal/vnet"
	"geoblock/internal/worldgen"
)

var errRedirectLimit = errors.New("scanner: redirect limit reached")

// redirectLimiter builds the http.Client redirect policy for the
// configured chain bound.
func redirectLimiter(maxRedirects int) func(*http.Request, []*http.Request) error {
	return func(req *http.Request, via []*http.Request) error {
		if len(via) >= maxRedirects {
			return errRedirectLimit
		}
		return nil
	}
}

// fetcher performs single attempts through one transport. It carries
// the shard's context so every request is cancellable end to end.
type fetcher struct {
	ctx      context.Context
	client   *http.Client
	headers  map[string]string
	keepBody func(status, bodyLen int) bool
	met      *fetchMetrics
}

// newFetcher builds a fetcher over rt with the config's header set,
// redirect bound, and body-retention policy.
func newFetcher(ctx context.Context, rt http.RoundTripper, cfg Config) *fetcher {
	if cfg.WrapTransport != nil {
		rt = cfg.WrapTransport(rt)
	}
	return &fetcher{
		ctx: ctx,
		client: &http.Client{
			Transport:     rt,
			CheckRedirect: redirectLimiter(cfg.MaxRedirects),
		},
		headers:  cfg.Headers,
		keepBody: cfg.KeepBody,
		met:      newFetchMetrics(cfg.Metrics),
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

	ctx := vnet.WithSampleSeed(f.ctx, seed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+domain+"/", nil)
	if err != nil {
		s.Err = ErrDNS
		return s
	}
	for k, v := range f.headers {
		req.Header.Set(k, v)
	}

	resp, err := f.client.Do(req)
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
// redirect-limit sentinel surfaces wrapped in the *url.Error that
// http.Client.Do returns, so errors.Is unwraps it.
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
