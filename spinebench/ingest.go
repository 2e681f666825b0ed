package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
)

// The ingest workload is `cloudy segment -scale 0.02 -cycles 2`,
// fault-free: about 148k pings and as many traceroutes per campaign.
// The store is cut into one time partition per cycle so the exact
// segment check can compare a partition window too.
var ingestStudy = core.Config{Scale: 0.02}

var ingestShape = storeShape{ingestCycles, ingestCycles}

const (
	ingestCycles = 2
	// After each campaign a short dashboard burst reads the freshly
	// opened segments through serve, so the request metrics exist on
	// this workload too; ingest_s does not include it.
	burstDuration = 3 * time.Second
	// A run sets up at least minPrepares times and for at least
	// prepareTime, so setup_s is a median over more than a moment of
	// host noise even when one campaign fills the run.
	minPrepares = 5
	prepareTime = time.Second
)

// ingestRun is what one campaign iteration measured.
type ingestRun struct {
	prepare, campaign, seal, write, open time.Duration
	residentMB                           float64
	pings, traces                        uint64
	feedPing, feedTrace                  time.Duration
}

func runIngest(ctx context.Context, e *env, traced bool, budget time.Duration) (*outcome, error) {
	out := newOutcome()
	rec := newDurations()
	var runs []ingestRun
	var burst phase
	burstKS := dashKeySpace(e.seed, ingestShape)
	var lastReg *obs.Registry
	var segDelta segCounters
	var rows, bytes float64
	var prepares []float64
	for i, start := 0, time.Now(); i < minPrepares-1 || time.Since(start) < prepareTime; i++ {
		runtime.GC() // each set-up starts from a clean heap
		_, end := e.spans.start("core.prepare", -1)
		_, err := core.Prepare(e.studyConfig(nil))
		prepares = append(prepares, seconds(end()))
		if err != nil {
			return nil, err
		}
	}
	// At least one campaign runs, even past the budget; a failed one is
	// counted and the loop still ends with the budget.
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		runtime.GC()
		root, end := e.spans.start("ingest.iteration", -1)
		reg := obs.NewRegistry()
		r, st, rd, stats, err := ingestOnce(ctx, e, reg, traced, root)
		if err != nil {
			end()
			return nil, err
		}
		out.attempted++ // the campaign itself
		if stats.err != nil {
			out.failed++
			out.checks = append(out.checks, check{Name: "campaign", Detail: stats.err.Error()})
			end()
			continue
		}
		r.residentMB = liveHeapMB() // the sealed store and the reader are the serving state
		runs = append(runs, r)
		prepares = append(prepares, seconds(r.prepare))
		rows = float64(st.Summary().Rows)
		bytes = stats.bytes

		_, endCheck := e.spans.start("ingest.check", root)
		checkIngest(out, stats, st)
		endCheck()

		_, endBurst := e.spans.start("serve.burst", root)
		var q serve.Querier = rd
		if traced {
			q = newTimedQuerier(rd, rec)
		}
		srv := serve.New(q, serve.Options{Obs: reg, StoreMode: "segments", Admit: noAdmission})
		before := readSegCounters(reg)
		ph, err := drive(ctx, srv.Handler(), burstKS, driveSpec{
			clients: e.nproc, duration: burstDuration, revalidate: true, seed: e.seed + int64(i),
		})
		endBurst()
		if err != nil {
			rd.Close()
			end()
			return nil, err
		}
		segDelta = segDelta.plus(readSegCounters(reg).minus(before))
		addPhaseChecks(out, ph, burstKS, rd, e.nproc)
		burst.recs = append(burst.recs, ph.recs...)
		burst.wall += ph.wall
		lastReg = reg
		if err := rd.Close(); err != nil {
			return nil, fmt.Errorf("closing segment reader: %w", err)
		}
		end()
	}
	if len(runs) == 0 {
		return out, nil // every campaign failed: the checks say why
	}

	pick := func(f func(ingestRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	out.e2e["setup_s"] = median(prepares)
	out.e2e["ingest_s"] = pick(func(r ingestRun) float64 { return seconds(r.campaign + r.seal + r.write + r.open) })
	out.e2e["resident_mb"] = pick(func(r ingestRun) float64 { return r.residentMB })
	requestMetrics(out, burst)
	out.sizes["campaigns"] = float64(len(runs))
	out.sizes["scale"] = e.ingest.Scale
	out.sizes["cycles"] = ingestCycles
	out.sizes["pings"] = float64(runs[0].pings)
	out.sizes["traces"] = float64(runs[0].traces)
	out.sizes["store_rows"] = rows
	out.sizes["burst_keys"] = float64(len(burstKS.queries))
	out.sizes["burst_requests"] = float64(len(burst.recs))
	out.sizes["measure_workers"] = float64(e.nproc)
	out.placements = burst.placements(burstKS, true, 0.5, 0.99)
	out.pops = burst.populations(burstKS, true)

	l := out.layer
	l["core.prepare_s"] = out.e2e["setup_s"]
	l["measure.campaign_s"] = pick(func(r ingestRun) float64 { return seconds(r.campaign) })
	l["measure.ns_per_sample"] = pick(func(r ingestRun) float64 { return float64(r.campaign) / float64(r.pings+r.traces) })
	l["measure.pings"] = float64(lastReg.Counter("measure_pings_total").Load())
	l["measure.traces"] = float64(lastReg.Counter("measure_traceroutes_total").Load())
	l["measure.attempts"] = float64(lastReg.Counter("measure_attempts_total").Load())
	l["measure.retries"] = float64(lastReg.Counter("measure_retries_total").Load())
	l["measure.lost"] = float64(lastReg.Counter("measure_lost_total").Load())
	l["sample.bus_stalls"] = float64(lastReg.Counter("bus_backpressure_stalls_total").Load())
	l["sample.bus_high_water"] = float64(lastReg.Gauge("bus_queue_high_water").Load())
	l["store.feed_ping_busy_s"] = pick(func(r ingestRun) float64 { return seconds(r.feedPing) })
	l["store.feed_trace_busy_s"] = pick(func(r ingestRun) float64 { return seconds(r.feedTrace) })
	l["store.seal_s"] = pick(func(r ingestRun) float64 { return seconds(r.seal) })
	l["store.rows"] = rows
	l["segment.write_s"] = pick(func(r ingestRun) float64 { return seconds(r.write) })
	l["segment.open_s"] = pick(func(r ingestRun) float64 { return seconds(r.open) })
	out.addRatio("segment.bytes_per_row", bytes, rows)
	out.addRatio("segment.build_to_open_ratio", l["store.seal_s"], l["segment.open_s"])
	serveLayers(out, burst, burstKS, rec)
	segmentLayers(out, burst, segDelta)
	return out, nil
}

// studyConfig is the ingest study for this run: fault-free, measure
// workers = nproc.
func (e *env) studyConfig(reg *obs.Registry) core.Config {
	cfg := e.ingest
	cfg.Seed, cfg.Cycles, cfg.Workers, cfg.Obs = e.seed, ingestCycles, e.nproc, reg
	return cfg
}

// ingestStats carries what the checks need from one iteration.
type ingestStats struct {
	sc, atlas measure.Stats
	dir       string
	bytes     float64
	err       error // campaign failure
}

// ingestOnce runs one campaign through the cloudy segment path and
// returns the sealed store and the sketch-mode reader over its segments.
// A campaign that fails returns its error in stats.err and no store.
func ingestOnce(ctx context.Context, e *env, reg *obs.Registry, traced bool, root int) (ingestRun, *store.Store, *segment.Reader, ingestStats, error) {
	var r ingestRun
	var stats ingestStats
	_, end := e.spans.start("core.prepare", root)
	setup, err := core.Prepare(e.studyConfig(reg))
	r.prepare = end()
	if err != nil {
		return r, nil, nil, stats, err
	}
	feed := store.NewFeed(pipeline.NewProcessor(setup.World),
		store.Options{Partitions: ingestCycles, Cycles: ingestCycles, Obs: reg})
	var sink sample.Sink = feed
	var tf *timedFeed
	if traced {
		tf = &timedFeed{feed: feed}
		sink = tf
	}
	_, end = e.spans.start("measure.campaigns", root)
	sinks := append([]sample.Sink{sink, sample.NewCounterSink(reg)}, e.sinks...)
	_, sc, at, err := setup.RunCampaigns(ctx, sinks...)
	r.campaign = end()
	stats.sc, stats.atlas, stats.err = sc, at, err
	if err != nil {
		return r, nil, nil, stats, nil // a failed campaign, not a failed run
	}
	r.pings, r.traces = uint64(sc.Pings+at.Pings), uint64(sc.Traceroutes+at.Traceroutes)
	if tf != nil {
		r.feedPing, r.feedTrace = tf.pingBusy, tf.traceBusy
	}

	_, end = e.spans.start("store.seal", root)
	st := feed.SealContext(ctx)
	r.seal = end()

	stats.dir = filepath.Join(e.workdir, "segments")
	if err := os.RemoveAll(stats.dir); err != nil {
		return r, nil, nil, stats, err
	}
	_, end = e.spans.start("segment.write", root)
	err = segment.Write(stats.dir, st)
	r.write = end()
	if err != nil {
		return r, nil, nil, stats, fmt.Errorf("writing segments: %w", err)
	}
	_, end = e.spans.start("segment.open", root)
	rd, err := segment.Open(stats.dir, segment.Options{Obs: reg})
	r.open = end()
	if err != nil {
		return r, nil, nil, stats, fmt.Errorf("opening segments: %w", err)
	}
	for _, name := range segmentFiles(stats.dir, st.Summary().Shards) {
		fi, err := os.Stat(name)
		if err != nil {
			rd.Close()
			return r, nil, nil, stats, err
		}
		stats.bytes += float64(fi.Size())
	}
	return r, st, rd, stats, nil
}

// checkIngest runs the ingest correctness checks: the loss ledger on
// both platforms, every segment file's frames, checksums and zone maps,
// and an exact-mode reader answering every figure query DeepEqual to
// the sealed store over the full window and one partition window.
func checkIngest(out *outcome, stats ingestStats, st *store.Store) {
	for _, p := range []struct {
		name string
		s    measure.Stats
	}{{"speedchecker", stats.sc}, {"atlas", stats.atlas}} {
		var err error
		if p.s.Attempts != p.s.Pings+p.s.Retries+p.s.Lost || p.s.Pings == 0 {
			err = fmt.Errorf("attempts %d != pings %d + retries %d + lost %d", p.s.Attempts, p.s.Pings, p.s.Retries, p.s.Lost)
		}
		out.addCheck("ledger "+p.name, err)
	}
	for _, name := range segmentFiles(stats.dir, st.Summary().Shards) {
		raw, err := os.ReadFile(name)
		if err == nil {
			if filepath.Base(name) == segment.MetaFile {
				err = segment.CheckMeta(raw)
			} else {
				err = segment.CheckShard(raw)
			}
		}
		out.addCheck("segment file "+filepath.Base(name), err)
	}
	exact, err := segment.Open(stats.dir, segment.Options{Exact: true})
	if err != nil {
		out.addCheck("exact segment open", err)
		return
	}
	defer exact.Close()
	for _, w := range []store.Window{{}, {From: 1}} {
		for _, c := range figureCalls(w) {
			var err error
			if !reflect.DeepEqual(c.call(exact), c.call(st)) {
				err = fmt.Errorf("exact segment answer differs from the sealed store")
			}
			out.addCheck(fmt.Sprintf("exact %s from=%d", c.name, w.From), err)
		}
	}
}

// figureCall is one figure query against a Querier.
type figureCall struct {
	name string
	call func(q serve.Querier) any
}

func figureCalls(w store.Window) []figureCall {
	return []figureCall{
		{"latency-map", func(q serve.Querier) any { return q.LatencyMapWindow(1, w) }},
		{"cdf speedchecker", func(q serve.Querier) any { return q.ContinentCDFsWindow("speedchecker", w) }},
		{"cdf atlas", func(q serve.Querier) any { return q.ContinentCDFsWindow("atlas", w) }},
		{"platform-diff", func(q serve.Querier) any { return q.PlatformDiffWindow(w) }},
		{"peering-shares", func(q serve.Querier) any { return q.PeeringSharesWindow(w) }},
		{"changepoint speedchecker", func(q serve.Querier) any { return q.Changepoint("speedchecker", 1, w.From) }},
		{"changepoint atlas", func(q serve.Querier) any { return q.Changepoint("atlas", 1, w.From) }},
	}
}

// segmentFiles lists a segment directory's meta file and shard files.
func segmentFiles(dir string, shards int) []string {
	names := []string{filepath.Join(dir, segment.MetaFile)}
	for i := 0; i < shards; i++ {
		names = append(names, filepath.Join(dir, segment.ShardFile(i)))
	}
	return names
}

// liveHeapMB is the live heap after a forced collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
