package cdn

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"geoblock/internal/stats"
	"geoblock/internal/worldgen"
)

// setFormHeaders builds a response's provider headers the way the edge
// once did, with Header.Set and fmt. The edge's assigned, pre-rendered
// form must store exactly this map.
func setFormHeaders(d *worldgen.Domain, req Request) http.Header {
	rng := stats.NewRNG(stats.Mix64(req.SampleSeed) ^ stats.FNV1a(d.Name))
	ray := fmt.Sprintf("%016x", rng.Uint64())
	nonce := fmt.Sprintf("%08x", uint32(rng.Uint64()))
	h := make(http.Header)
	for _, p := range d.Providers {
		switch p {
		case worldgen.Cloudflare:
			h.Set("Server", "cloudflare")
			h.Set("CF-RAY", ray[:12]+"-SIM")
		case worldgen.CloudFront:
			h.Set("Via", "1.1 "+nonce+".cloudfront.net (CloudFront)")
			h.Set("X-Amz-Cf-Id", ray+nonce)
			h.Set("X-Cache", "Miss from cloudfront")
		case worldgen.Incapsula:
			h.Set("X-Iinfo", fmt.Sprintf("9-%s 0NNN RT", nonce))
			h.Set("X-CDN", "Incapsula")
		case worldgen.Akamai:
			if wantsAkamaiDebug(req.Header) {
				h.Set("X-Cache", "TCP_MISS from a23-"+nonce[:4]+".deploy.akamaitechnologies.com (AkamaiGHost/9.5.0)")
				h.Set("X-Check-Cacheable", "YES")
				h.Set("X-Cache-Key", "/L/1234/567890/1d/origin."+d.Name+"/")
			}
		case worldgen.Baidu:
			h.Set("Server", "yunjiasu-nginx")
		case worldgen.Soasta:
			h.Set("X-1-Edge", "soasta-mpulse")
		case worldgen.OriginNginx:
			h.Set("Server", "nginx/1.14.0")
		case worldgen.OriginVarnish:
			h.Set("Via", "1.1 varnish")
			h.Set("X-Varnish", nonce)
		case worldgen.OriginApache:
			h.Set("Server", "Apache/2.4.29 (Ubuntu)")
		}
	}
	h.Set("Content-Type", "text/html; charset=utf-8")
	return h
}

// TestHeadersMatchSetForm pins the edge's response headers, every
// provider alone and the chains whose headers collide, to the map
// Header.Set and fmt would have built, with canonical keys throughout.
func TestHeadersMatchSetForm(t *testing.T) {
	chains := [][]worldgen.Provider{
		{worldgen.CloudFront, worldgen.Akamai},
		{worldgen.Cloudflare, worldgen.OriginNginx},
		{worldgen.CloudFront, worldgen.OriginVarnish},
		{worldgen.Incapsula, worldgen.Akamai, worldgen.OriginApache},
	}
	for _, p := range append(worldgen.CDNs(), worldgen.OriginNginx, worldgen.OriginVarnish, worldgen.OriginApache) {
		chains = append(chains, []worldgen.Provider{p})
	}
	for _, chain := range chains {
		d := synthetic(fmt.Sprintf("hdr%d.example", len(chain)), chain, nil)
		for seed := uint64(0); seed < 4; seed++ {
			for _, pragma := range []string{"", "akamai-x-cache-on"} {
				ip, err := testWorld.Geo.HostIP("CH", 42)
				if err != nil {
					t.Fatal(err)
				}
				req := Request{Domain: d, Host: d.Name, Path: "/", Method: "GET", Scheme: "https",
					ClientIP: ip, Header: browserHeaders(), SampleSeed: seed}
				if pragma != "" {
					req.Header.Set("Pragma", pragma)
				}
				r := Serve(testWorld, req)
				want := setFormHeaders(d, req)
				want.Set("Content-Length", fmt.Sprintf("%d", r.BodyLen))
				if !reflect.DeepEqual(r.Header, want) {
					t.Fatalf("chain %v seed %d pragma %q:\n got %v\nwant %v", chain, seed, pragma, r.Header, want)
				}
				for k := range r.Header {
					if k != http.CanonicalHeaderKey(k) {
						t.Fatalf("chain %v: header key %q is not canonical", chain, k)
					}
				}
			}
		}
	}
}

func TestRayAndNonceMatchFmt(t *testing.T) {
	rng := stats.NewRNG(9)
	cases := [][2]uint64{{0, 0}, {1, 1}, {^uint64(0), 0xffffffff}, {0xabc, 0x1234}}
	for i := 0; i < 200; i++ {
		cases = append(cases, [2]uint64{rng.Uint64(), uint64(uint32(rng.Uint64()))})
	}
	for _, c := range cases {
		want := fmt.Sprintf("%016x", c[0]) + fmt.Sprintf("%08x", uint32(c[1]))
		if got := rayAndNonce(c[0], uint32(c[1])); got != want {
			t.Fatalf("rayAndNonce(%#x, %#x) = %q, want %q", c[0], c[1], got, want)
		}
	}
}
