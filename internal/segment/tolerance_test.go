package segment

import (
	"math"
	"testing"

	"repro/internal/store"
)

// Pinned per-figure tolerances for the sketch path vs the exact path.
// The fixture RTTs span roughly 15..120 ms; group sizes run from a few
// hundred (country×provider×partition) to tens of thousands
// (continent), so the δ=200 digest holds rank error ~1% mid-quantile.
const (
	epsLatencyMedianRel = 0.01 // Figure 3 medians: ≤1% relative
	epsCDFFraction      = 0.02 // Figure 4 threshold fractions: ≤0.02 absolute
	epsCDFCurve         = 0.03 // Figure 4 curve, sampled: ≤0.03 absolute probability
	epsDiffMs           = 3.0  // Figure 5 per-centile diffs: ≤3 ms absolute
	epsChangepointRel   = 0.01 // changepoint medians: ≤1% relative
	epsShiftAbs         = 0.05 // changepoint Mann-Whitney AUC: ≤0.05 absolute
	epsCIHalfFactor     = 1.6  // Figure 3 CI half-width: sketch within ×/÷1.6 of the exact bootstrap (measured 0.68..1.38)
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSketchWithinToleranceOfExact compares every figure endpoint
// between the sketch reader and the exact reader across shard counts
// 1/4/16 × partition counts 1/4/16, on full-window and
// partition-aligned windowed queries (windows that cut a partition
// fall back to the exact path by construction, so there is nothing to
// compare there).
func TestSketchWithinToleranceOfExact(t *testing.T) {
	const cycles = 16
	for _, shards := range []int{1, 4, 16} {
		for _, parts := range []int{1, 4, 16} {
			st := buildStore(t, shards, parts, cycles, 8)
			dir := t.TempDir()
			if err := Write(dir, st); err != nil {
				t.Fatal(err)
			}
			exact, err := Open(dir, Options{Exact: true})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			windows := []store.Window{{}}
			if parts > 1 {
				span := cycles / parts
				windows = append(windows, store.Window{From: 0, To: span * (parts / 2)})
			}
			for _, w := range windows {
				compareFigures(t, shards, parts, w, exact, approx)
			}
			compareChangepoint(t, shards, parts, exact, approx)
			exact.Close()
			approx.Close()
		}
	}
}

func compareFigures(t *testing.T, shards, parts int, w store.Window, exact, approx *Reader) {
	t.Helper()
	// Figure 3: latency map.
	em := exact.LatencyMapWindow(5, w)
	am := approx.LatencyMapWindow(5, w)
	if len(em) != len(am) {
		t.Fatalf("shards=%d parts=%d w=%+v: latency map has %d sketch entries, %d exact", shards, parts, w, len(am), len(em))
	}
	for i := range em {
		if em[i].Country != am[i].Country || em[i].Samples != am[i].Samples {
			t.Fatalf("shards=%d parts=%d w=%+v: latency map row %d identity mismatch", shards, parts, w, i)
		}
		if r := relErr(am[i].MedianMs, em[i].MedianMs); r > epsLatencyMedianRel {
			t.Errorf("shards=%d parts=%d w=%+v: %s median rel err %.4f > %.4f",
				shards, parts, w, em[i].Country, r, epsLatencyMedianRel)
		}
		// The sketch CI (±1.57·IQR/√n around the digest median) must
		// bracket its own median and stay within a factor of the exact
		// bootstrap interval's half-width.
		if !(am[i].CILowMs <= am[i].MedianMs && am[i].MedianMs <= am[i].CIHighMs) {
			t.Errorf("shards=%d parts=%d w=%+v: %s sketch CI [%.3f, %.3f] does not bracket its median %.3f",
				shards, parts, w, em[i].Country, am[i].CILowMs, am[i].CIHighMs, am[i].MedianMs)
		}
		ah, eh := (am[i].CIHighMs-am[i].CILowMs)/2, (em[i].CIHighMs-em[i].CILowMs)/2
		if !(ah <= epsCIHalfFactor*eh && eh <= epsCIHalfFactor*ah) {
			t.Errorf("shards=%d parts=%d w=%+v: %s sketch CI half-width %.3fms vs exact %.3fms, beyond a factor of %.2f",
				shards, parts, w, em[i].Country, ah, eh, epsCIHalfFactor)
		}
	}
	// Figure 4: continent CDFs, both platforms.
	for _, platform := range []string{"speedchecker", "atlas"} {
		ec := exact.ContinentCDFsWindow(platform, w)
		ac := approx.ContinentCDFsWindow(platform, w)
		if len(ec) != len(ac) {
			t.Fatalf("shards=%d parts=%d w=%+v: %s CDF continent count %d vs %d", shards, parts, w, platform, len(ac), len(ec))
		}
		for i := range ec {
			if ec[i].Continent != ac[i].Continent || ec[i].N != ac[i].N {
				t.Fatalf("shards=%d parts=%d w=%+v: %s CDF row %d identity mismatch", shards, parts, w, platform, i)
			}
			for name, pair := range map[string][2]float64{
				"UnderMTP": {ac[i].UnderMTP, ec[i].UnderMTP},
				"UnderHPL": {ac[i].UnderHPL, ec[i].UnderHPL},
				"UnderHRT": {ac[i].UnderHRT, ec[i].UnderHRT},
			} {
				if d := math.Abs(pair[0] - pair[1]); d > epsCDFFraction {
					t.Errorf("shards=%d parts=%d w=%+v: %s %v %s abs err %.4f > %.4f",
						shards, parts, w, platform, ec[i].Continent, name, d, epsCDFFraction)
				}
			}
			// Sample the curve at the exact CDF's own quantiles.
			for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
				x := ec[i].CDF.InverseAt(q)
				if d := math.Abs(ac[i].CDF.At(x) - ec[i].CDF.At(x)); d > epsCDFCurve {
					t.Errorf("shards=%d parts=%d w=%+v: %s %v CDF(%.1fms) abs err %.4f > %.4f",
						shards, parts, w, platform, ec[i].Continent, x, d, epsCDFCurve)
				}
			}
		}
	}
	// Figure 5: platform diff centiles.
	ed := exact.PlatformDiffWindow(w)
	ad := approx.PlatformDiffWindow(w)
	if len(ed) != len(ad) {
		t.Fatalf("shards=%d parts=%d w=%+v: platform diff continent count %d vs %d", shards, parts, w, len(ad), len(ed))
	}
	for i := range ed {
		if ed[i].Continent != ad[i].Continent || ed[i].NSC != ad[i].NSC || ed[i].NAtlas != ad[i].NAtlas {
			t.Fatalf("shards=%d parts=%d w=%+v: platform diff row %d identity mismatch", shards, parts, w, i)
		}
		for c := range ed[i].Diffs {
			if d := math.Abs(ad[i].Diffs[c] - ed[i].Diffs[c]); d > epsDiffMs {
				t.Errorf("shards=%d parts=%d w=%+v: %v centile %d diff abs err %.2fms > %.1fms",
					shards, parts, w, ed[i].Continent, c+1, d, epsDiffMs)
			}
		}
	}
	// Figure 10: peering shares answer exactly in both modes.
	if got, want := approx.PeeringSharesWindow(w), exact.PeeringSharesWindow(w); len(got) != len(want) {
		t.Fatalf("shards=%d parts=%d w=%+v: peering shares differ", shards, parts, w)
	}
}

func compareChangepoint(t *testing.T, shards, parts int, exact, approx *Reader) {
	t.Helper()
	// at=8 splits the 16-cycle axis in half — partition-aligned for
	// every partition count that divides 16 evenly at that point, and
	// an exact-fallback (trivially equal) otherwise.
	ec := exact.Changepoint("speedchecker", 8, 0)
	ac := approx.Changepoint("speedchecker", 8, 0)
	if len(ec) != len(ac) {
		t.Fatalf("shards=%d parts=%d: changepoint entry count %d vs %d", shards, parts, len(ac), len(ec))
	}
	byPair := map[string]store.ChangepointEntry{}
	for _, e := range ec {
		byPair[e.Country+"|"+e.Provider] = e
	}
	for _, a := range ac {
		e, ok := byPair[a.Country+"|"+a.Provider]
		if !ok {
			t.Fatalf("shards=%d parts=%d: changepoint pair %s/%s missing from exact", shards, parts, a.Country, a.Provider)
		}
		if a.NBefore != e.NBefore || a.NAfter != e.NAfter || a.Status != e.Status {
			t.Fatalf("shards=%d parts=%d: changepoint %s/%s identity mismatch", shards, parts, a.Country, a.Provider)
		}
		if e.NBefore > 0 {
			if r := relErr(a.MedianBeforeMs, e.MedianBeforeMs); r > epsChangepointRel {
				t.Errorf("shards=%d parts=%d: %s/%s median-before rel err %.4f", shards, parts, a.Country, a.Provider, r)
			}
		}
		if e.NAfter > 0 {
			if r := relErr(a.MedianAfterMs, e.MedianAfterMs); r > epsChangepointRel {
				t.Errorf("shards=%d parts=%d: %s/%s median-after rel err %.4f", shards, parts, a.Country, a.Provider, r)
			}
		}
		if d := math.Abs(a.Shift - e.Shift); d > epsShiftAbs {
			t.Errorf("shards=%d parts=%d: %s/%s shift abs err %.4f > %.4f", shards, parts, a.Country, a.Provider, d, epsShiftAbs)
		}
	}
}

// TestGroupQuantilesSketch pins the single-group point query: counts
// are exact, quantiles within the digest tolerance of the exact merged
// vector, and unaligned windows refuse the sketch path.
func TestGroupQuantilesSketch(t *testing.T) {
	st := buildStore(t, 4, 4, 16, 8)
	dir := t.TempDir()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	qs, n, ok := r.GroupQuantiles(store.DimCountry, "speedchecker", "DE", store.Window{}, 0.5, 0.95)
	if !ok {
		t.Fatal("full-window group query refused the sketch path")
	}
	exactVals, exactN, err := st.CountryQuantiles("speedchecker", "DE", 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != exactN {
		t.Fatalf("sketch count %d, exact %d", n, exactN)
	}
	for i := range qs {
		if r := relErr(qs[i], exactVals[i]); r > 0.02 {
			t.Errorf("quantile %d rel err %.4f", i, r)
		}
	}
	if _, _, ok := r.GroupQuantiles(store.DimCountry, "speedchecker", "DE", store.Window{From: 1, To: 3}, 0.5); ok {
		t.Error("partition-cutting window did not refuse the sketch path")
	}
}
