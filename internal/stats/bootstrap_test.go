package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortPerResampleMedianCI is the textbook percentile bootstrap: copy
// each resample out, sort it, read its median. BootstrapMedianCI must
// return exactly what it returns.
func sortPerResampleMedianCI(xs []float64, resamples int, confidence float64, seed int64) (lo, hi float64) {
	rng := rand.New(rand.NewSource(seed))
	medians := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		sort.Float64s(buf)
		medians[r] = quantileSorted(buf, 0.5)
	}
	sort.Float64s(medians)
	alpha := (1 - confidence) / 2
	return quantileSorted(medians, alpha), quantileSorted(medians, 1-alpha)
}

// bootstrapSample draws n values of one of three shapes: continuous,
// heavily tied (a handful of distinct values) or tied on a coarse
// grid, optionally sorted. Adding +0 turns a −0 into +0, the one tie
// BootstrapMedianCI does not promise to break the same way.
func bootstrapSample(rng *rand.Rand, n int, sorted bool) []float64 {
	xs := make([]float64, n)
	distinct := 1 + rng.Intn(8)
	for i := range xs {
		switch rng.Intn(3) {
		case 0:
			xs[i] = 50 + 20*rng.NormFloat64()
		case 1:
			xs[i] = float64(rng.Intn(distinct)) - 2
		default:
			xs[i] = 0.25 * float64(rng.Intn(200))
		}
		xs[i] += 0
	}
	if sorted {
		sort.Float64s(xs)
	}
	return xs
}

// TestBootstrapMedianCIMatchesSortPerResample holds the rank-count
// bootstrap to the sort-per-resample one bit for bit, over sorted and
// unsorted input, heavy ties, odd and even n from 1 to 20k, and varied
// resample counts, confidence levels and seeds.
func TestBootstrapMedianCIMatchesSortPerResample(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 2, 3, 4, 5, 8, 99, 100, 20000, 19999}
	for len(sizes) < 600 {
		switch rng.Intn(10) {
		case 0:
			sizes = append(sizes, 1000+rng.Intn(19001))
		case 1, 2:
			sizes = append(sizes, 100+rng.Intn(900))
		default:
			sizes = append(sizes, 1+rng.Intn(100))
		}
	}
	for trial, n := range sizes {
		sorted := trial%2 == 0
		xs := bootstrapSample(rng, n, sorted)
		resamples := 1 + rng.Intn(250)
		if n > 1000 {
			resamples = 1 + rng.Intn(12)
		}
		confidence := []float64{0.5, 0.8, 0.9, 0.95, 0.99, 0.999}[rng.Intn(6)]
		seed := rng.Int63() - rng.Int63()
		wantLo, wantHi := sortPerResampleMedianCI(xs, resamples, confidence, seed)
		lo, hi, err := BootstrapMedianCI(xs, resamples, confidence, seed)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
			t.Fatalf("trial %d (n=%d sorted=%v resamples=%d confidence=%v seed=%d): got [%v, %v], sort per resample gives [%v, %v]",
				trial, n, sorted, resamples, confidence, seed, lo, hi, wantLo, wantHi)
		}
	}
}

// BenchmarkBootstrapMedianCI times the Figure 3 interval on its own:
// 200 resamples at 95% over a sorted group, as analysis.LatencyMapFrom
// calls it.
func BenchmarkBootstrapMedianCI(b *testing.B) {
	for _, n := range []int{50, 1000, 5000, 50000} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 40 + 15*rng.ExpFloat64()
		}
		sort.Float64s(xs)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := BootstrapMedianCI(xs, 200, 0.95, int64(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
