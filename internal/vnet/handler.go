package vnet

import (
	"net/http"
	"strings"

	"geoblock/internal/cdn"
	"geoblock/internal/geo"
	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// Handler exposes the simulated web over a real HTTP listener, so the
// block pages can be browsed with curl or a browser (cmd/worldd). The
// requested site is addressed with the Host header (or a `host` query
// parameter for convenience), and the simulated client location with
// the `from` query parameter (a country code, or `crimea`):
//
//	curl 'http://localhost:8403/?host=airbnb.fr&from=IR'
func Handler(w *worldgen.World) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		host := req.URL.Query().Get("host")
		if host == "" {
			host = req.Host
			if i := strings.IndexByte(host, ':'); i >= 0 {
				host = host[:i]
			}
		}
		host = strings.TrimPrefix(strings.ToLower(host), "www.")

		d, ok := w.Lookup(host)
		if !ok {
			http.Error(rw, "no such domain in the simulated world: "+host, http.StatusBadGateway)
			return
		}

		ip, err := clientIP(w, req.URL.Query().Get("from"))
		if err != "" {
			http.Error(rw, err, http.StatusBadRequest)
			return
		}

		resp := cdn.Serve(w, cdn.Request{
			Domain:     d,
			Host:       host,
			Path:       req.URL.Path,
			Method:     req.Method,
			Scheme:     "https",
			ClientIP:   ip,
			Header:     req.Header,
			Clock:      w.Clock(),
			SampleSeed: stats.Mix64(uint64(ip) ^ stats.FNV1a(host)),
		})
		for k, vs := range resp.Header {
			for _, v := range vs {
				rw.Header().Add(k, v)
			}
		}
		rw.WriteHeader(resp.Status)
		if req.Method != http.MethodHead {
			_, _ = rw.Write([]byte(resp.Body()))
		}
	})
}

// clientIP mints a simulated source address in the requested location,
// defaulting to the United States.
func clientIP(w *worldgen.World, from string) (geo.IP, string) {
	switch strings.ToLower(from) {
	case "":
		from = "US"
	case "crimea":
		return w.Geo.CrimeaHostIP(1), ""
	}
	ip, err := w.Geo.HostIP(geo.CountryCode(strings.ToUpper(from)), 1)
	if err != nil {
		return 0, "unknown country code: " + from
	}
	return ip, ""
}
