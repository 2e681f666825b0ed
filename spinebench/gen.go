package main

import (
	"math"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Shape of the generated stores behind both query workloads: every
// country × the nine figure providers × both platforms over a
// twelve-cycle campaign cut into four time partitions.
const (
	genCycles     = 12
	genPartitions = 4
	genShards     = 8
)

var genShape = storeShape{genCycles, genPartitions}

// genData is a generated store input: nearest-datacenter sample rows
// plus per-cycle interconnection tallies.
type genData struct {
	rows    []store.Sample
	peering []map[string]map[pipeline.Class]int // indexed by cycle
}

// continentBaseMs is the median nearest-datacenter RTT a generated
// country starts from, before its seeded jitter.
var continentBaseMs = map[geo.Continent]float64{
	geo.EU: 18, geo.NA: 22, geo.AS: 35, geo.OC: 30, geo.SA: 45, geo.AF: 70,
}

// generate draws about `rows` sample rows from the seed. Country sizes
// follow the country's Internet-user weight (damped, with a small
// seeded jitter), so the skew is the same shape for every seed and the
// per-request cost stays comparable across seeds; the seed moves the
// values, the provider mix and the cycle of every row.
func generate(seed int64, rows int) genData {
	rng := rand.New(rand.NewSource(seed))
	countries := geo.AllCountries()
	providers := cloud.FigureProviderCodes()
	weights := make([]float64, len(countries))
	var total float64
	for i, c := range countries {
		weights[i] = math.Pow(c.UserWeight, 0.75) * math.Exp(0.1*rng.NormFloat64())
		total += weights[i]
	}
	d := genData{rows: make([]store.Sample, 0, rows+len(countries))}
	provOffset := make([]float64, len(providers))
	for i, c := range countries {
		n := int(math.Round(float64(rows) * weights[i] / total))
		if n < 1 {
			n = 1
		}
		base := continentBaseMs[c.Continent] * (0.6 + 0.8*rng.Float64())
		for p := range provOffset {
			provOffset[p] = 25 * rng.Float64()
		}
		for k := 0; k < n; k++ {
			p := rng.Intn(len(providers))
			platform, rtt := "speedchecker", base+provOffset[p]
			if rng.Float64() < 0.25 {
				// Atlas probes sit on wired networks: a few ms closer.
				platform, rtt = "atlas", rtt-3
			}
			rtt *= math.Exp(0.35 * rng.NormFloat64())
			d.rows = append(d.rows, store.Sample{
				Platform: platform, Country: c.Code, Continent: c.Continent,
				Provider: providers[p], RTTms: math.Max(rtt, 0.5),
				Cycle: rng.Intn(genCycles),
			})
		}
	}
	classes := []pipeline.Class{pipeline.ClassDirect, pipeline.ClassDirectIXP, pipeline.ClassPrivate, pipeline.ClassPublic}
	d.peering = make([]map[string]map[pipeline.Class]int, genCycles)
	for c := range d.peering {
		d.peering[c] = map[string]map[pipeline.Class]int{}
		for _, prov := range providers {
			counts := map[pipeline.Class]int{}
			for _, cl := range classes {
				counts[cl] = 1 + rng.Intn(40)
			}
			d.peering[c][prov] = counts
		}
	}
	return d
}

// genOptions is the store layout both query workloads seal into.
func genOptions(reg *obs.Registry) store.Options {
	return store.Options{Shards: genShards, Partitions: genPartitions, Cycles: genCycles, Obs: reg}
}

// build feeds the generated rows through a store.Builder and seals it.
func (d genData) build(opts store.Options) *store.Store {
	b := store.NewBuilder(opts)
	for _, s := range d.rows {
		b.Add(s)
	}
	for cycle, counts := range d.peering {
		b.AddPeeringCountsAt(cycle, counts)
	}
	return b.Seal()
}
