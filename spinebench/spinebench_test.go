package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
)

// smallStudy is a campaign small enough for a unit test.
var smallStudy = core.Config{Scale: 0.01, TargetsPerProbe: 1, MinProbes: 60}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	a := generate(7, 2000).build(genOptions(nil)).Digest()
	b := generate(7, 2000).build(genOptions(nil)).Digest()
	c := generate(8, 2000).build(genOptions(nil)).Digest()
	if a != b {
		t.Fatalf("same seed, different digests: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave the same digest %s", a)
	}
}

// querierCalls covers every Querier method, windowed and not.
func querierCalls() []figureCall {
	calls := []figureCall{
		{"latency-map", func(q serve.Querier) any { return q.LatencyMap(5) }},
		{"cdf", func(q serve.Querier) any { return q.ContinentCDFs("atlas") }},
		{"platform-diff", func(q serve.Querier) any { return q.PlatformDiff() }},
		{"peering-shares", func(q serve.Querier) any { return q.PeeringShares() }},
		{"changepoint", func(q serve.Querier) any { return q.Changepoint("speedchecker", 5, 2) }},
		{"summary", func(q serve.Querier) any { return q.Summary() }},
	}
	for _, w := range []store.Window{{From: 3, To: 9}, {From: 2, To: 7}} {
		calls = append(calls, figureCalls(w)...)
	}
	return calls
}

func TestTimedQuerierIsTransparent(t *testing.T) {
	st := generate(3, 3000).build(genOptions(nil))
	dir := t.TempDir()
	if err := segment.Write(dir, st); err != nil {
		t.Fatal(err)
	}
	rd, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for _, bare := range []serve.Querier{st, rd} {
		rec := newDurations()
		timed := newTimedQuerier(bare, rec)
		for _, c := range querierCalls() {
			if !reflect.DeepEqual(c.call(timed), c.call(bare)) {
				t.Errorf("%T: decorated %s differs from the bare answer", bare, c.name)
			}
		}
		if len(rec.ms) == 0 || rec.inQuerier <= 0 {
			t.Errorf("%T: decorator recorded nothing", bare)
		}
	}
}

func TestTimedFeedIsTransparent(t *testing.T) {
	e := &env{seed: 5, nproc: 2, ingest: smallStudy}
	setup, err := core.Prepare(e.studyConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	opts := store.Options{Partitions: ingestCycles, Cycles: ingestCycles}
	bare := store.NewFeed(pipeline.NewProcessor(setup.World), opts)
	timed := &timedFeed{feed: store.NewFeed(pipeline.NewProcessor(setup.World), opts)}
	if _, _, _, err := setup.RunCampaigns(context.Background(), bare, timed); err != nil {
		t.Fatal(err)
	}
	if a, b := bare.Seal().Digest(), timed.feed.Seal().Digest(); a != b {
		t.Fatalf("timed feed sealed %s, bare feed %s", b, a)
	}
	if timed.pingBusy <= 0 || timed.traceBusy <= 0 {
		t.Fatalf("feed busy times not recorded: ping %v trace %v", timed.pingBusy, timed.traceBusy)
	}
}

func TestCheckCatchesWrongAnswers(t *testing.T) {
	a := generate(1, 2000).build(genOptions(nil))
	b := generate(2, 2000).build(genOptions(nil))
	srv := serve.New(a, serve.Options{Admit: noAdmission})
	ks := coldKeySpace()
	ph, err := drive(context.Background(), srv.Handler(), ks, driveSpec{clients: 2, duration: 300 * time.Millisecond, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.digests) == 0 || ph.anomalies != 0 {
		t.Fatalf("%d keys answered, %d anomalies", len(ph.digests), ph.anomalies)
	}
	if fails := ph.check(ks, a, 2); len(fails) != 0 {
		t.Fatalf("check rejected the served store's own answers: %v", fails[0])
	}
	if fails := ph.check(ks, b, 2); 2*len(fails) < len(ph.digests) {
		t.Fatalf("check accepted another store's answers: %d of %d keys failed", len(fails), len(ph.digests))
	}
}

// failingSink rejects every record, so the campaign it is attached to
// fails.
type failingSink struct{}

func (failingSink) Ping(sample.Sample) error       { return errors.New("sink down") }
func (failingSink) Trace(sample.TraceSample) error { return errors.New("sink down") }
func (failingSink) Close() error                   { return nil }

func TestFailedCampaignEndsTheRun(t *testing.T) {
	e := &env{seed: 5, workdir: t.TempDir(), nproc: 2, spans: newSpanLog(), ingest: smallStudy,
		sinks: []sample.Sink{failingSink{}}}
	out, err := runIngest(context.Background(), e, false, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed == 0 || out.attempted == 0 {
		t.Fatalf("failed campaign not reported: attempted %d failed %d checks %+v", out.attempted, out.failed, out.checks)
	}
}

func TestDashboardMixFollowsLoadDefaults(t *testing.T) {
	for _, s := range []storeShape{genShape, ingestShape} {
		ks := dashKeySpace(1, s)
		share := map[string]float64{}
		for i, q := range ks.queries {
			share[q.panel()] += ks.weights[i]
		}
		panels := dashboardPanels()
		if len(share) != len(panels) {
			t.Fatalf("%+v: %d panels have keys, want %d", s, len(share), len(panels))
		}
		for i := 1; i < len(panels); i++ {
			if share[panels[i]] >= share[panels[i-1]] {
				t.Errorf("%+v: panel %s share %.3f not below %s's %.3f", s, panels[i], share[panels[i]], panels[i-1], share[panels[i-1]])
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the catalogue must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.Name || got[i].Unit != m.Unit || got[i].Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the driver %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestShortRunsEmitEveryMetric runs every workload briefly in traced
// mode — an untraced half, then a traced half — and checks that the run
// is correct, that the untraced half measured every end-to-end metric,
// and that the result reports every per-layer metric, all under
// well-formed names.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
	}
	for i := range workloads {
		wl := &workloads[i]
		e := &env{seed: 11, workdir: t.TempDir(), nproc: 2, spans: newSpanLog(), ingest: smallStudy}
		rep, err := measureRun(context.Background(), e, wl, true, 800*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		res := rep.Result
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d checks=%+v",
				wl.name, res.Correct, res.Attempted, res.Failed, rep.Checks)
		}
		for _, m := range endToEnd {
			if v := rep.EndToEnd[m.Name]; v <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl.name, m.Name, v)
			}
		}
		if len(res.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d metrics, want %d", wl.name, len(res.Metrics), len(perLayer()))
		}
		for _, m := range perLayer() {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, m.Name)
			}
		}
	}
}
