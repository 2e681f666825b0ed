package main

import (
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/geo"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/store"
)

// The traced run wraps the spine's public entry points in the
// decorators below. They time calls into each layer from outside the
// program; spans inside the program are a later change.

// span is one timed stage of a run, recorded by the driver goroutine.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index of the span that caused it; -1 for a root
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// spanLog keeps a run's stage spans in memory; the report writes them
// out when the run ends. It is used from the driver goroutine only.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// start opens a span under parent and returns its index and a function
// that closes it and returns its duration.
func (l *spanLog) start(name string, parent int) (int, func() time.Duration) {
	t0 := time.Now()
	idx := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartMs: millis(t0.Sub(l.origin))})
	return idx, func() time.Duration {
		t1 := time.Now()
		l.spans[idx].EndMs = millis(t1.Sub(l.origin))
		return t1.Sub(t0)
	}
}

// durations collects per-call timings from concurrent request
// goroutines, keyed by metric name.
type durations struct {
	mu sync.Mutex
	ms map[string][]float64
	// inQuerier sums every Querier call, for serve self time.
	inQuerier time.Duration
}

func newDurations() *durations { return &durations{ms: map[string][]float64{}} }

func (d *durations) add(name string, dt time.Duration) {
	d.mu.Lock()
	d.ms[name] = append(d.ms[name], millis(dt))
	d.mu.Unlock()
}

func (d *durations) addQuerier(dt time.Duration) {
	d.mu.Lock()
	d.inQuerier += dt
	d.mu.Unlock()
}

// timedQuerier is a transparent serve.Querier decorator. Over a
// *store.Store it splits each figure query into the store's gather
// (CountrySamplesWindow, ContinentSamplesWindow, PairSamples) and the
// analysis compute (analysis.*From, store.ChangepointFrom), making the
// same calls the store's own methods make; over any other Querier —
// the segment reader — it times the whole call as segment.query_ms.
type timedQuerier struct {
	inner serve.Querier
	st    *store.Store // nil unless inner is the in-memory store
	rec   *durations
}

func newTimedQuerier(inner serve.Querier, rec *durations) *timedQuerier {
	st, _ := inner.(*store.Store)
	return &timedQuerier{inner: inner, st: st, rec: rec}
}

// whole times one undivided Querier call.
func (t *timedQuerier) whole(endpoint string, call func()) {
	t0 := time.Now()
	call()
	dt := time.Since(t0)
	t.rec.addQuerier(dt)
	layer := "segment.query_ms."
	if t.st != nil {
		layer = "store.gather_ms."
	}
	t.rec.add(layer+endpoint, dt)
}

// split times a gather followed by a compute over its result.
func split[G, R any](t *timedQuerier, endpoint string, gather func() G, compute func(G) R) R {
	t0 := time.Now()
	g := gather()
	t1 := time.Now()
	r := compute(g)
	t2 := time.Now()
	t.rec.add("store.gather_ms."+endpoint, t1.Sub(t0))
	t.rec.add("analysis.compute_ms."+endpoint, t2.Sub(t1))
	t.rec.addQuerier(t2.Sub(t0))
	return r
}

func (t *timedQuerier) LatencyMap(minSamples int) []analysis.CountryLatency {
	return t.LatencyMapWindow(minSamples, store.Window{})
}

func (t *timedQuerier) LatencyMapWindow(minSamples int, w store.Window) []analysis.CountryLatency {
	if t.st == nil {
		var out []analysis.CountryLatency
		t.whole(epLatencyMap, func() { out = t.inner.LatencyMapWindow(minSamples, w) })
		return out
	}
	return split(t, epLatencyMap,
		func() map[string][]float64 { return t.st.CountrySamplesWindow("speedchecker", w) },
		func(g map[string][]float64) []analysis.CountryLatency { return analysis.LatencyMapFrom(g, minSamples) })
}

func (t *timedQuerier) ContinentCDFs(platform string) []analysis.ContinentDistribution {
	return t.ContinentCDFsWindow(platform, store.Window{})
}

func (t *timedQuerier) ContinentCDFsWindow(platform string, w store.Window) []analysis.ContinentDistribution {
	if t.st == nil {
		var out []analysis.ContinentDistribution
		t.whole(epCDF, func() { out = t.inner.ContinentCDFsWindow(platform, w) })
		return out
	}
	return split(t, epCDF,
		func() map[geo.Continent][]float64 { return t.st.ContinentSamplesWindow(platform, w) },
		analysis.ContinentDistributionsFrom)
}

func (t *timedQuerier) PlatformDiff() []analysis.PlatformDiff {
	return t.PlatformDiffWindow(store.Window{})
}

func (t *timedQuerier) PlatformDiffWindow(w store.Window) []analysis.PlatformDiff {
	if t.st == nil {
		var out []analysis.PlatformDiff
		t.whole(epDiff, func() { out = t.inner.PlatformDiffWindow(w) })
		return out
	}
	type pair struct{ sc, at map[geo.Continent][]float64 }
	return split(t, epDiff,
		func() pair {
			return pair{t.st.ContinentSamplesWindow("speedchecker", w), t.st.ContinentSamplesWindow("atlas", w)}
		},
		func(p pair) []analysis.PlatformDiff { return analysis.PlatformComparisonFrom(p.sc, p.at) })
}

func (t *timedQuerier) PeeringShares() []analysis.InterconnectShare {
	return t.PeeringSharesWindow(store.Window{})
}

// PeeringSharesWindow is one call on both backends: the store sums its
// partition tallies and derives the shares inside one method.
func (t *timedQuerier) PeeringSharesWindow(w store.Window) []analysis.InterconnectShare {
	var out []analysis.InterconnectShare
	t.whole(epPeering, func() { out = t.inner.PeeringSharesWindow(w) })
	return out
}

func (t *timedQuerier) Changepoint(platform string, at, width int) []store.ChangepointEntry {
	if t.st == nil {
		var out []store.ChangepointEntry
		t.whole(epChange, func() { out = t.inner.Changepoint(platform, at, width) })
		return out
	}
	before, after := changepointWindows(at, width)
	type pair struct{ pre, post map[string][]float64 }
	return split(t, epChange,
		func() pair { return pair{t.st.PairSamples(platform, before), t.st.PairSamples(platform, after)} },
		func(p pair) []store.ChangepointEntry { return store.ChangepointFrom(p.pre, p.post) })
}

// changepointWindows mirrors store.Changepoint's split: [at-width, at)
// against [at, at+width), or everything before against everything
// after when width is 0.
func changepointWindows(at, width int) (before, after store.Window) {
	before, after = store.Window{To: at}, store.Window{From: at}
	if width > 0 {
		if f := at - width; f > 0 {
			before.From = f
		}
		after.To = at + width
	}
	return before, after
}

func (t *timedQuerier) Summary() store.Summary { return t.inner.Summary() }

// timedFeed is a transparent sample.Sink decorator over store.Feed that
// sums the time the feed spends in Ping and in Trace. A sink has a
// single writer (the bus delivery goroutine), and the bus's Close waits
// for it, so the totals are safe to read once the campaigns return.
type timedFeed struct {
	feed                *store.Feed
	pingBusy, traceBusy time.Duration
}

func (f *timedFeed) Ping(s sample.Sample) error {
	t0 := time.Now()
	err := f.feed.Ping(s)
	f.pingBusy += time.Since(t0)
	return err
}

func (f *timedFeed) Trace(s sample.TraceSample) error {
	t0 := time.Now()
	err := f.feed.Trace(s)
	f.traceBusy += time.Since(t0)
	return err
}

func (f *timedFeed) Close() error { return f.feed.Close() }
