package world_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/asn"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/probes"
	"repro/internal/world"
)

// haversineNearest is the reference NearestPoP: a linear scan scoring
// every PoP with geo.DistanceKm, keeping the first on a tie.
func haversineNearest(pops []world.PoP, p geo.Point) (world.PoP, bool) {
	i := firstMin(len(pops), func(i int) float64 { return geo.DistanceKm(p, pops[i].Loc) })
	if i < 0 {
		return world.PoP{}, false
	}
	return pops[i], true
}

// firstMin is the reference scan itself: the index of the first
// strictly smallest of n distances, -1 when n is 0.
func firstMin(n int, dist func(i int) float64) int {
	if n == 0 {
		return -1
	}
	best, bestD := 0, dist(0)
	for i := 1; i < n; i++ {
		if d := dist(i); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// popQuery is one (AS, point) NearestPoP lookup.
type popQuery struct {
	as asn.Number
	at geo.Point
}

// TestNearestPoPMatchesHaversineScan checks the prefiltered NearestPoP
// returns the reference scan's PoP at every point the simulator asks
// about and at the points most likely to break a distance ordering:
// exact PoP locations, their antipodes, equidistant midpoints between
// two PoPs of one AS, the poles, the ±180° meridian, and NaN.
func TestNearestPoPMatchesHaversineScan(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 1})
	var withPoPs, multi []asn.Number
	for _, a := range w.Registry.All() {
		switch n := len(w.PoPs(a.Number)); {
		case n > 1:
			multi = append(multi, a.Number)
			fallthrough
		case n == 1:
			withPoPs = append(withPoPs, a.Number)
		}
	}
	if len(multi) == 0 {
		t.Fatal("no AS has more than one PoP")
	}
	lookups := 0
	check := func(n asn.Number, p geo.Point, want world.PoP, wok bool) {
		lookups++
		if got, gok := w.NearestPoP(n, p); got != want || gok != wok {
			t.Fatalf("NearestPoP(%v, %v) = %+v, %v; haversine scan = %+v, %v", n, p, got, gok, want, wok)
		}
	}

	// Points asked of every AS with PoPs.
	var pts []geo.Point
	for _, c := range geo.AllCountries() {
		pts = append(pts, c.Centroid)
	}
	for _, r := range w.Inventory.Regions() {
		pts = append(pts, r.Loc)
	}
	sc := probes.GenerateSpeedchecker(w, probes.Config{Seed: 1, Scale: 0.02})
	atlas := probes.GenerateAtlas(w, probes.Config{Seed: 1, Scale: 1})
	for _, fleet := range []*probes.Fleet{sc, atlas} {
		for _, p := range fleet.All() {
			pts = append(pts, p.Loc)
		}
	}
	for _, n := range withPoPs {
		for _, pop := range w.PoPs(n) {
			pts = append(pts, pop.Loc, antipode(pop.Loc))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		pts = append(pts, geo.Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})
	}
	for _, lon := range []float64{-180, -179.999, -90, 0, 45.5, 179.999, 180} {
		pts = append(pts, geo.Point{Lat: 90, Lon: lon}, geo.Point{Lat: -90, Lon: lon})
	}
	for i := 0; i < 100; i++ {
		lat := rng.Float64()*180 - 90
		pts = append(pts, geo.Point{Lat: lat, Lon: 180}, geo.Point{Lat: lat, Lon: -180})
	}
	pts = append(pts, geo.Point{Lat: math.NaN()})
	// PoPs share locations (carriers and WANs sit at country
	// centroids), so the sweep measures each distinct location once per
	// point and runs the reference scan over those same values.
	locIdx := map[geo.Point]int{}
	var locs []geo.Point
	popLocs := make([][]int, len(withPoPs))
	for k, n := range withPoPs {
		for _, pop := range w.PoPs(n) {
			i, ok := locIdx[pop.Loc]
			if !ok {
				i = len(locs)
				locIdx[pop.Loc] = i
				locs = append(locs, pop.Loc)
			}
			popLocs[k] = append(popLocs[k], i)
		}
	}
	km := make([]float64, len(locs))
	for _, p := range pts {
		for i, l := range locs {
			km[i] = geo.DistanceKm(p, l)
		}
		for k, n := range withPoPs {
			idx := popLocs[k]
			best := firstMin(len(idx), func(i int) float64 { return km[idx[i]] })
			check(n, p, w.PoPs(n)[best], true)
		}
	}

	// Near-ties: the great-circle midpoint of two PoPs of one AS is
	// equidistant from both.
	for _, n := range multi {
		pops := w.PoPs(n)
		for i := 1; i < len(pops); i++ {
			mid := geo.Midpoint(pops[i-1].Loc, pops[i].Loc)
			want, wok := haversineNearest(pops, mid)
			check(n, mid, want, wok)
		}
	}

	// The lookups path planning makes: the ingress midpoint of private
	// interconnects, the ingress itself, and the towards points each
	// transit AS is placed from. Each probe lays paths to a spread of
	// about eight regions, as many as it targets per campaign cycle.
	regions := w.Inventory.Regions()
	for i, p := range sc.All() {
		for j := i % 23; j < len(regions); j += 23 {
			for _, q := range planQueries(w, p, regions[j]) {
				want, wok := haversineNearest(w.PoPs(q.as), q.at)
				check(q.as, q.at, want, wok)
			}
		}
	}
	t.Logf("%d lookups over %d ASes (%d with several PoPs)", lookups, len(withPoPs), len(multi))
}

// planQueries lists the NearestPoP lookups laying out the path from p
// to r makes, walking the path with the reference scan.
func planQueries(w *world.World, p *probes.Probe, r *cloud.Region) []popQuery {
	path, kind, ok := w.CloudPath(p.ISP, r)
	if !ok || len(path) < 2 {
		return nil
	}
	prov := r.Provider.ASN
	qs := []popQuery{{p.ISP.Number, p.Loc}, {prov, p.Loc}, {prov, geo.Midpoint(p.Loc, r.Loc)}}
	ingress := w.CloudIngress(kind, p.Loc, r)
	qs = append(qs, popQuery{prov, ingress})
	cur, _ := haversineNearest(w.PoPs(p.ISP.Number), p.Loc)
	inter := path[1 : len(path)-1]
	for i, a := range inter {
		towards := geo.Interpolate(cur.Loc, ingress, float64(i+1)/float64(len(inter)+1))
		qs = append(qs, popQuery{a, towards})
		if pop, ok := haversineNearest(w.PoPs(a), towards); ok {
			cur = pop
		} else {
			cur = world.PoP{Loc: towards}
		}
	}
	return qs
}

func antipode(p geo.Point) geo.Point {
	lon := p.Lon + 180
	if lon > 180 {
		lon -= 360
	}
	return geo.Point{Lat: -p.Lat, Lon: lon}
}
