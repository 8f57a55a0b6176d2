package blockpage

import (
	"testing"

	"geoblock/internal/stats"
)

// TestVariantLengthMatchesRender pins the arithmetic head length to the
// rendered page for every variant shape, including a price factor that
// pushes the price past the nine-byte field.
func TestVariantLengthMatchesRender(t *testing.T) {
	variants := []PageVariant{
		{},
		{Restricted: true},
		{PriceFactor: 1.6},
		{PriceFactor: 0.5, Restricted: true},
		{PriceFactor: 5000},
	}
	rng := stats.NewRNG(31)
	for i := 0; i < 40; i++ {
		site := NewOriginSite("variant.example.com", rng.Fork(string(rune('a'+i))))
		for _, v := range variants {
			for seed := uint64(0); seed < 3; seed++ {
				if got, want := site.VariantLength(seed, v), len(site.RenderVariant(seed, v)); got != want {
					t.Fatalf("site %d variant %+v seed %d: VariantLength %d, rendered %d", i, v, seed, got, want)
				}
			}
		}
	}
}

// TestVariantLengthAllocFree pins the edge's Content-Length path: the
// plain variant's length must not build the page head.
func TestVariantLengthAllocFree(t *testing.T) {
	site := NewOriginSite("alloc.example.com", stats.NewRNG(3))
	seed := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		_ = site.VariantLength(seed, PageVariant{})
	})
	if allocs != 0 {
		t.Fatalf("VariantLength(seed, PageVariant{}) allocates %.1f times per call, want 0", allocs)
	}
}
