package world

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/geo"
)

// BenchmarkNearestPoP times one lookup against a multi-PoP AS — the
// Tier-1 carriers and cloud WANs the simulator walks on every path —
// from a rotating set of country centroids.
func BenchmarkNearestPoP(b *testing.B) {
	w := MustBuild(Config{Seed: 1})
	var ases []asn.Number
	for _, t := range w.Tier1s() {
		ases = append(ases, t.Number)
	}
	for _, p := range w.Inventory.Providers() {
		ases = append(ases, p.ASN)
	}
	var pts []geo.Point
	for _, c := range geo.AllCountries() {
		pts = append(pts, c.Centroid)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.NearestPoP(ases[i%len(ases)], pts[i%len(pts)]); !ok {
			b.Fatal("no PoP")
		}
	}
}
