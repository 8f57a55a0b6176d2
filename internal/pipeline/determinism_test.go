package pipeline

import (
	"context"
	"testing"

	"geoblock/internal/proxy"
	"geoblock/internal/scanner"
	"geoblock/internal/worldgen"
)

// TestScanDeterminismAcrossSystems guards the property every recorded
// experiment depends on: two independently constructed worlds with the
// same seed produce bit-identical scans (map-iteration order must never
// leak into RNG draw sequences).
func TestScanDeterminismAcrossSystems(t *testing.T) {
	cfg := worldgen.TestConfig()
	cfg.Scale = 0.02
	cfg.Seed = 11
	run := func() *scanner.Result {
		w := worldgen.Generate(cfg)
		net := proxy.NewNetwork(w)
		var domains []string
		for _, d := range w.Top10K() {
			domains = append(domains, d.Name)
		}
		countries := w.Geo.Measurable()
		sc := scanner.DefaultConfig()
		sc.Phase = "det"
		res, err := scanner.Scan(context.Background(), net, domains, countries, scanner.CrossProduct(len(domains), len(countries)), sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("counts differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs:\n%+v\n%+v (domain=%s country=%s)",
				i, a.Samples[i], b.Samples[i], a.Domains[a.Samples[i].Domain], a.Countries[a.Samples[i].Country])
		}
	}
}
