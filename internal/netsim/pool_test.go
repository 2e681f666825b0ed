package netsim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/probes"
)

// drawMix pulls n values through every draw the simulator makes:
// uniform floats, normals and bounded ints.
func drawMix(rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, rng.Float64(), rng.NormFloat64(), float64(rng.Intn(4096+i)))
	}
	return out
}

// TestRNGPoolStreamIdentical pins the pooling contract: a generator
// that has been drawn from, returned and reseeded yields exactly the
// stream of a fresh source with the same seed.
func TestRNGPoolStreamIdentical(t *testing.T) {
	// The reseed itself, on one generator, independent of which object
	// the pool hands out.
	used := rand.New(rand.NewSource(99))
	for _, seed := range []int64{0, 1, -1, 1 << 40, 7919, -(1 << 62)} {
		drawMix(used, 37)
		used.Seed(seed)
		if got, want := drawMix(used, 200), drawMix(rand.New(rand.NewSource(seed)), 200); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reseeded stream diverges from a fresh source", seed)
		}
	}

	// Through rngFor and the pool, after a dirty generator went back.
	dirty := testSim.rngFor("dirty", "dirty", dataset.TCP, 0)
	drawMix(dirty, 50)
	rngPool.Put(dirty)
	fleet := scFleet.All()
	regions := testW.Inventory.Regions()
	for i := 0; i < 200; i++ {
		p, r := fleet[i%len(fleet)], regions[(i*13)%len(regions)]
		proto, cycle := dataset.Protocol(i%2), i%5
		rng := testSim.rngFor(p.ID, r.ID, proto, cycle)
		got := drawMix(rng, 40)
		rngPool.Put(rng)
		want := drawMix(rand.New(rand.NewSource(testSim.seedFor(p.ID, r.ID, proto, cycle))), 40)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s→%s proto %d cycle %d: pooled stream diverges from a fresh source", p.ID, r.ID, proto, cycle)
		}
	}
}

// measurement is one ping pair and traceroute for a (probe, region,
// cycle) key.
type measurement struct {
	tcp, icmp dataset.PingRecord
	trace     dataset.TracerouteRecord
}

func measureKey(p *probes.Probe, r *cloud.Region, cycle int) measurement {
	return measurement{
		tcp:   testSim.Ping(p, r, dataset.TCP, cycle),
		icmp:  testSim.Ping(p, r, dataset.ICMP, cycle),
		trace: testSim.Traceroute(p, r, cycle),
	}
}

// TestConcurrentMeasurementsMatchSerial runs the same (probe, region,
// cycle) keys from eight goroutines at once — each in its own order, so
// generators cross between keys through the pool — and requires every
// record to equal the serial one. Under -race it also proves no
// generator is shared while in use.
func TestConcurrentMeasurementsMatchSerial(t *testing.T) {
	type key struct {
		p     *probes.Probe
		r     *cloud.Region
		cycle int
	}
	fleet := scFleet.All()
	regions := testW.Inventory.Regions()
	// A prime key count makes every stride below a permutation.
	var keys []key
	for i := 0; i < 151; i++ {
		keys = append(keys, key{fleet[(i*37)%len(fleet)], regions[(i*11)%len(regions)], i % 3})
	}
	serial := make([]measurement, len(keys))
	for i, k := range keys {
		serial[i] = measureKey(k.p, k.r, k.cycle)
	}
	const workers = 8
	got := make([][]measurement, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([]measurement, len(keys))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range keys {
				i := (j*(2*g+1) + g) % len(keys)
				got[g][i] = measureKey(keys[i].p, keys[i].r, keys[i].cycle)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range keys {
			if !reflect.DeepEqual(got[g][i], serial[i]) {
				t.Fatalf("goroutine %d, key %d (%s→%s cycle %d): concurrent record differs from serial",
					g, i, keys[i].p.ID, keys[i].r.ID, keys[i].cycle)
			}
		}
	}
}
