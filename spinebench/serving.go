package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	// coldRows sizes query-cold's in-memory store so a full-window
	// latency map — the bootstrap CI over every country — answers in
	// about 0.1 s.
	coldRows = 10000
	// Each query workload builds its serving state repeatedly, for at
	// least setupTime, so setup_s and ingest_s are medians over more
	// than a moment of host noise.
	coldSamples = 5
	coldBatch   = 10
	dashSetups  = 5
	setupTime   = 3 * time.Second

	// dashRows makes query-dashboard's segment store 15x query-cold's.
	dashRows = 15 * coldRows
)

// Admission control stays off: one closed-loop client sends far more
// than the default per-client quota, and the benchmark measures the
// query path, not the 429s.
var noAdmission = admit.Options{RatePerSec: -1, MaxInFlight: -1}

func runQueryCold(ctx context.Context, e *env, traced bool, budget time.Duration) (*outcome, error) {
	out := newOutcome()
	var setups, builds []float64
	var st *store.Store
	var srv *serve.Server
	rec := newDurations()
	// The generated rows are the benchmark's input, not the program's
	// work: they are drawn once, outside the timed set-up. One set-up
	// takes milliseconds, too short to time alone on a noisy host: a
	// sample is the mean of coldBatch back-to-back set-ups.
	data := generate(e.seed, coldRows)
	for i, start := 0, time.Now(); i < coldSamples || time.Since(start) < setupTime; i++ {
		runtime.GC() // each sample starts from a clean heap
		var setup, build time.Duration
		for k := 0; k < coldBatch; k++ {
			root, end := e.spans.start("setup", -1)
			_, endBuild := e.spans.start("store.build", root)
			st = data.build(genOptions(obs.NewRegistry()))
			build += endBuild()
			var q serve.Querier = st
			if traced {
				q = newTimedQuerier(st, rec)
			}
			srv = serve.New(q, serve.Options{Obs: obs.NewRegistry(), StoreMode: "memory", Admit: noAdmission})
			setup += end()
		}
		setups = append(setups, seconds(setup)/coldBatch)
		builds = append(builds, seconds(build)/coldBatch)
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ingest_s"] = median(builds)
	out.e2e["resident_mb"] = liveHeapMB()
	out.layer["store.seal_s"] = out.e2e["ingest_s"]
	out.layer["store.rows"] = float64(st.Summary().Rows)

	ks := coldKeySpace()
	_, end := e.spans.start("serve.requests", -1)
	ph, err := drive(ctx, srv.Handler(), ks, driveSpec{clients: e.nproc, duration: budget, seed: e.seed})
	end()
	if err != nil {
		return nil, err
	}
	_, end = e.spans.start("check", -1)
	addPhaseChecks(out, ph, ks, st, e.nproc)
	end()
	requestMetrics(out, ph)
	serveLayers(out, ph, ks, rec)
	out.placements = ph.placements(ks, false, 0.5, 0.99)
	out.pops = ph.populations(ks, false)
	out.sizes["store_rows"] = float64(st.Summary().Rows)
	out.sizes["keys"] = float64(len(ks.queries))
	out.sizes["clients"] = float64(e.nproc)
	out.sizes["requests"] = float64(len(ph.recs))
	out.sizes["distinct_keys_requested"] = float64(len(ph.digests))
	return out, nil
}

func runQueryDashboard(ctx context.Context, e *env, traced bool, budget time.Duration) (*outcome, error) {
	out := newOutcome()
	dir := filepath.Join(e.workdir, "segments")
	var setups, ingests, seals, writes, opens []float64
	var rd *segment.Reader
	var srv *serve.Server
	var reg *obs.Registry
	var rows, bytes float64
	rec := newDurations()
	data := generate(e.seed, dashRows) // input, drawn once outside the timed set-up
	for i, start := 0, time.Now(); i < dashSetups || time.Since(start) < setupTime; i++ {
		if rd != nil {
			if err := rd.Close(); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		runtime.GC() // each set-up starts from a clean heap
		root, end := e.spans.start("setup", -1)
		_, endBuild := e.spans.start("store.build", root)
		st := data.build(genOptions(obs.NewRegistry()))
		seal := endBuild()
		_, endWrite := e.spans.start("segment.write", root)
		err := segment.Write(dir, st)
		write := endWrite()
		if err != nil {
			return nil, fmt.Errorf("writing segments: %w", err)
		}
		rows = float64(st.Summary().Rows)
		reg = obs.NewRegistry()
		_, endOpen := e.spans.start("segment.open", root)
		rd, err = segment.Open(dir, segment.Options{Obs: reg})
		open := endOpen()
		if err != nil {
			return nil, fmt.Errorf("opening segments: %w", err)
		}
		var q serve.Querier = rd
		if traced {
			q = newTimedQuerier(rd, rec)
		}
		srv = serve.New(q, serve.Options{Obs: reg, StoreMode: "segments", Admit: noAdmission})
		setups = append(setups, seconds(end()))
		ingests = append(ingests, seconds(seal+write+open))
		seals, writes, opens = append(seals, seconds(seal)), append(writes, seconds(write)), append(opens, seconds(open))
		bytes = 0
		for _, name := range segmentFiles(dir, rd.Summary().Shards) {
			fi, err := os.Stat(name)
			if err != nil {
				return nil, err
			}
			bytes += float64(fi.Size())
		}
	}
	defer rd.Close()
	out.e2e["setup_s"] = median(setups)
	out.e2e["ingest_s"] = median(ingests)
	out.e2e["resident_mb"] = liveHeapMB()
	l := out.layer
	l["store.seal_s"] = median(seals)
	l["store.rows"] = rows
	l["segment.write_s"] = median(writes)
	l["segment.open_s"] = median(opens)
	out.addRatio("segment.bytes_per_row", bytes, rows)
	out.addRatio("segment.build_to_open_ratio", l["store.seal_s"], l["segment.open_s"])

	ks := dashKeySpace(e.seed, genShape)
	before := readSegCounters(reg)
	_, end := e.spans.start("serve.requests", -1)
	ph, err := drive(ctx, srv.Handler(), ks, driveSpec{clients: e.nproc, duration: budget, revalidate: true, seed: e.seed})
	end()
	if err != nil {
		return nil, err
	}
	delta := readSegCounters(reg).minus(before)
	_, end = e.spans.start("check", -1)
	addPhaseChecks(out, ph, ks, rd, e.nproc)
	end()
	requestMetrics(out, ph)
	serveLayers(out, ph, ks, rec)
	segmentLayers(out, ph, delta)
	out.placements = ph.placements(ks, true, 0.5, 0.99)
	out.pops = ph.populations(ks, true)
	out.sizes["store_rows"] = rows
	out.sizes["segment_bytes"] = bytes
	out.sizes["keys"] = float64(len(ks.queries))
	out.sizes["clients"] = float64(e.nproc)
	out.sizes["requests"] = float64(len(ph.recs))
	out.sizes["distinct_keys_requested"] = float64(len(ph.digests))
	return out, nil
}

// addPhaseChecks counts a phase's requests as operations, its load
// anomalies as failures, and checks every distinct key's body against
// the undecorated Querier.
func addPhaseChecks(out *outcome, ph phase, ks *keySpace, bare serve.Querier, workers int) {
	out.attempted += len(ph.recs)
	out.failed += ph.anomalies
	a := check{Name: "load anomalies", OK: ph.anomalies == 0}
	if ph.anomalies > 0 {
		a.Detail = fmt.Sprintf("%d anomalies, first: %s", ph.anomalies, strings.Join(ph.firstErrs, "; "))
	}
	fails := ph.check(ks, bare, workers)
	out.attempted += len(ph.digests)
	out.failed += len(fails)
	b := check{Name: fmt.Sprintf("bodies of %d distinct keys equal the Querier's answers", len(ph.digests)), OK: len(fails) == 0}
	if len(fails) > 0 {
		b.Detail = fmt.Sprintf("%d differ, first: %v", len(fails), fails[0])
	}
	out.checks = append(out.checks, a, b)
}

// requestMetrics sets the end-to-end request metrics of a phase.
func requestMetrics(out *outcome, ph phase) {
	lat := latencies(ph.recs)
	out.e2e["req_per_s"] = ratio(float64(len(ph.recs)), ph.wall.Seconds())
	out.e2e["req_p50_ms"] = quantile(lat, 0.50)
	out.e2e["req_p99_ms"] = quantile(lat, 0.99)
}

// serveLayers sets the serve and per-endpoint Querier metrics.
func serveLayers(out *outcome, ph phase, ks *keySpace, rec *durations) {
	c := ph.counts()
	l := out.layer
	total := 0.0
	for _, r := range ph.recs {
		total += r.ms
	}
	l["serve.self_ms"] = ratio(total-millis(rec.inQuerier), float64(c.requests))
	l["serve.requests"] = float64(c.requests)
	l["serve.cache_hits"] = float64(c.hits)
	l["serve.not_modified"] = float64(c.notModified)
	l["serve.misses"] = float64(c.misses)
	out.addRatio("serve.cache_hit_ratio", float64(c.hits), float64(c.requests))
	out.addRatio("serve.not_modified_ratio", float64(c.notModified), float64(c.requests))
	for name, ms := range rec.ms {
		l[name+".p50"] = quantile(ms, 0.50)
		l[name+".p99"] = quantile(ms, 0.99)
	}
}

// segCounters are the segment reader's existing obs counters.
type segCounters struct{ read, pruned, merges float64 }

func readSegCounters(reg *obs.Registry) segCounters {
	return segCounters{
		read:   float64(reg.Counter("segment_blocks_read_total").Load()),
		pruned: float64(reg.Counter("segment_blocks_pruned_total").Load()),
		merges: float64(reg.Counter("segment_sketch_merges_total").Load()),
	}
}

func (a segCounters) minus(b segCounters) segCounters {
	return segCounters{a.read - b.read, a.pruned - b.pruned, a.merges - b.merges}
}

func (a segCounters) plus(b segCounters) segCounters {
	return segCounters{a.read + b.read, a.pruned + b.pruned, a.merges + b.merges}
}

// segmentLayers sets the segment read/prune/merge metrics of a phase.
func segmentLayers(out *outcome, ph phase, d segCounters) {
	misses := float64(ph.counts().misses)
	out.layer["segment.blocks_read"] = d.read
	out.layer["segment.blocks_pruned"] = d.pruned
	out.layer["segment.sketch_merges"] = d.merges
	out.addRatio("segment.blocks_read_per_miss", d.read, misses)
	out.addRatio("segment.prune_ratio", d.pruned, d.read+d.pruned)
	out.addRatio("segment.sketch_merges_per_miss", d.merges, misses)
}
