package main

import (
	"math"
	"sort"
	"time"
)

// metricDef describes one reported metric. Target names the end-to-end
// metric (and the workload) a per-layer metric should move; the
// human-readable report prints it beside the value.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Target string
}

// endToEnd is what a user of the system sees; an untraced run reports
// every one of them on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "resident_mb", Unit: "MiB", Better: "lower"},
	{Name: "ingest_s", Unit: "s", Better: "lower"},
	{Name: "req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "req_p99_ms", Unit: "ms", Better: "lower"},
}

// perLayer is the traced run's catalogue. A layer a workload does not
// exercise reports 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"core.prepare_s", "s", "lower", "setup_s (ingest)"},
		{"measure.campaign_s", "s", "lower", "ingest_s (ingest); includes netsim"},
		{"measure.ns_per_sample", "ns", "lower", "ingest_s (ingest); includes netsim"},
		{"measure.pings", "count", "higher", "behaviour change only"},
		{"measure.traces", "count", "higher", "behaviour change only"},
		{"measure.attempts", "count", "lower", "behaviour change only"},
		{"measure.retries", "count", "lower", "behaviour change only"},
		{"measure.lost", "count", "lower", "behaviour change only"},
		{"sample.bus_stalls", "count", "lower", "ingest_s (ingest)"},
		{"sample.bus_high_water", "count", "lower", "ingest_s (ingest)"},
		{"store.feed_ping_busy_s", "s", "lower", "ingest_s (ingest)"},
		{"store.feed_trace_busy_s", "s", "lower", "ingest_s (ingest); mostly pipeline.Processor.Process"},
		{"store.seal_s", "s", "lower", "ingest_s, resident_mb"},
		{"store.rows", "count", "higher", "ingest_s, resident_mb"},
		{"segment.write_s", "s", "lower", "ingest_s (ingest, query-dashboard)"},
		{"segment.bytes_per_row", "B/row", "lower", "ingest_s (ingest, query-dashboard)"},
		{"segment.open_s", "s", "lower", "ingest_s; setup_s (query-dashboard)"},
		{"segment.build_to_open_ratio", "ratio", "higher", "setup_s (query-dashboard); store.seal_s over segment.open_s"},
	}
	for _, ep := range figureEndpoints {
		for _, q := range []string{"p50", "p99"} {
			defs = append(defs, metricDef{"store.gather_ms." + ep + "." + q, "ms", "lower", "req_per_s (query-cold)"})
		}
	}
	for _, ep := range figureEndpoints {
		if ep == epPeering {
			continue // the tally merge and its shares are one store call
		}
		for _, q := range []string{"p50", "p99"} {
			defs = append(defs, metricDef{"analysis.compute_ms." + ep + "." + q, "ms", "lower", "req_p99_ms (query-cold)"})
		}
	}
	for _, ep := range figureEndpoints {
		for _, q := range []string{"p50", "p99"} {
			defs = append(defs, metricDef{"segment.query_ms." + ep + "." + q, "ms", "lower", "req_p99_ms (query-dashboard)"})
		}
	}
	defs = append(defs,
		metricDef{"serve.self_ms", "ms", "lower", "req_p50_ms; mean request time outside the Querier"},
		metricDef{"serve.requests", "count", "higher", "base of the serve ratios"},
		metricDef{"serve.cache_hits", "count", "higher", "req_p50_ms (query-dashboard)"},
		metricDef{"serve.not_modified", "count", "higher", "req_p50_ms (query-dashboard)"},
		metricDef{"serve.misses", "count", "lower", "req_p99_ms"},
		metricDef{"serve.cache_hit_ratio", "ratio", "higher", "req_p50_ms (query-dashboard); serve.cache_hits over serve.requests"},
		metricDef{"serve.not_modified_ratio", "ratio", "higher", "req_p50_ms (query-dashboard); serve.not_modified over serve.requests"},
		metricDef{"segment.blocks_read", "count", "lower", "req_p99_ms (query-dashboard)"},
		metricDef{"segment.blocks_pruned", "count", "higher", "req_p99_ms (query-dashboard)"},
		metricDef{"segment.sketch_merges", "count", "lower", "req_p99_ms (query-dashboard)"},
		metricDef{"segment.blocks_read_per_miss", "ratio", "lower", "req_p99_ms (query-dashboard); segment.blocks_read over serve.misses"},
		metricDef{"segment.prune_ratio", "ratio", "higher", "req_p99_ms (query-dashboard); pruned over read+pruned"},
		metricDef{"segment.sketch_merges_per_miss", "ratio", "lower", "req_p99_ms (query-dashboard); segment.sketch_merges over serve.misses"},
	)
	for _, m := range endToEnd {
		// Tracing pushes each metric the worse way, so the difference
		// is better in the same direction as the metric itself.
		defs = append(defs, metricDef{"trace_overhead." + m.Name, m.Unit, m.Better, m.Name + " traced minus untraced"})
	}
	return defs
}

// quantile is the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of xs (sorted in place); the mean of the middle pair for an
// even count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
