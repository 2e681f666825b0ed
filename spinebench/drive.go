package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/serve"
)

// reqRecord is one request as the timing Doer saw it.
type reqRecord struct {
	ms     float64
	key    int32 // index into the key space
	status int16
	hit    bool
}

// errRunOver ends a timed run: the Doer returns it, after cancelling
// the run's context, once the deadline has passed, and load.Run treats
// the cancellation as the end of the run rather than an anomaly.
var errRunOver = errors.New("spinebench: run time is over")

// timingDoer is a load.Doer that times every request exactly around
// the in-process handler and keeps a digest of the first 200 body of
// each key for the correctness check. Digests, not bodies: a run sees
// thousands of distinct keys, some with bodies of hundreds of KB.
type timingDoer struct {
	inner    load.Doer
	keys     *keySpace
	deadline time.Time
	stop     context.CancelFunc

	mu      sync.Mutex
	recs    []reqRecord
	digests map[int32]uint64
}

func (d *timingDoer) Do(req *http.Request) (*http.Response, error) {
	if !time.Now().Before(d.deadline) {
		d.stop()
		return nil, errRunOver
	}
	// The run's context ends the run between requests, never inside
	// one: a request in flight at the deadline completes normally.
	plain := req.WithContext(context.WithoutCancel(req.Context()))
	t0 := time.Now()
	resp, err := d.inner.Do(plain)
	dt := time.Since(t0)
	if err != nil {
		return nil, err
	}
	key, ok := d.keys.byPath[req.URL.RequestURI()]
	if !ok {
		return nil, fmt.Errorf("spinebench: request for unknown key %s", req.URL.RequestURI())
	}
	rec := reqRecord{ms: millis(dt), key: int32(key), status: int16(resp.StatusCode), hit: resp.Header.Get("X-Cache") == "hit"}
	d.mu.Lock()
	d.recs = append(d.recs, rec)
	_, seen := d.digests[rec.key]
	d.mu.Unlock()
	if resp.StatusCode == http.StatusOK && !seen {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		sum := maphash.Bytes(bodySeed, body)
		d.mu.Lock()
		if _, seen := d.digests[rec.key]; !seen {
			d.digests[rec.key] = sum
		}
		d.mu.Unlock()
	}
	return resp, nil
}

// phase is one closed-loop request run against a server.
type phase struct {
	recs      []reqRecord
	wall      time.Duration
	anomalies int
	firstErrs []string
	digests   map[int32]uint64 // first 200 body of each key
}

// driveSpec configures a phase.
type driveSpec struct {
	clients    int
	duration   time.Duration // clients stop issuing after this long
	revalidate bool          // replay remembered ETags, as load does by default
	seed       int64
}

// drive runs load.Run's closed loop — spec.clients clients, each
// sending its next request once the previous answer is in — through
// the timing Doer against h.
func drive(ctx context.Context, h http.Handler, ks *keySpace, spec driveSpec) (phase, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &timingDoer{inner: load.HandlerClient{Handler: h}, keys: ks, stop: cancel, digests: map[int32]uint64{}}
	opts := load.Options{
		// The deadline, not a request count, ends the run.
		Clients: spec.clients, RequestsPerClient: 1 << 30,
		Endpoints: ks.endpoints(), Seed: spec.seed,
		AllowedStatus: []int{http.StatusOK, http.StatusNotModified},
	}
	if !spec.revalidate {
		opts.RevalidateFraction = -1
	}
	t0 := time.Now()
	d.deadline = t0.Add(spec.duration)
	res, err := load.Run(runCtx, "http://spinebench", d, opts)
	wall := time.Since(t0)
	if err != nil {
		return phase{}, err
	}
	return phase{recs: d.recs, wall: wall, anomalies: res.AnomalyCount, firstErrs: res.Anomalies, digests: d.digests}, nil
}

// check compares every distinct key's body with the undecorated
// Querier's answer, on workers goroutines, and returns the failures.
func (p phase) check(ks *keySpace, bare serve.Querier, workers int) []error {
	keys := make([]int32, 0, len(p.digests))
	for k := range p.digests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = ks.queries[keys[i]].check(p.digests[keys[i]], bare)
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return failed
}

// population names the population a request belongs to: cache hits
// form one, and misses one per endpoint. On the segment reader a miss
// whose window cuts a partition takes the exact column-decode fallback
// instead of the sketch path, and forms its own population.
func population(r reqRecord, ks *keySpace, segments bool) string {
	if r.hit {
		return "hit"
	}
	q := ks.queries[r.key]
	if segments && !q.aligned(ks.shape) {
		return q.endpoint + "/exact"
	}
	return q.endpoint
}

// serveCounts tallies the served requests by cache outcome.
type serveCounts struct {
	requests, hits, notModified, misses int
}

func (p phase) counts() serveCounts {
	var c serveCounts
	for _, r := range p.recs {
		c.requests++
		if r.hit {
			c.hits++
		} else {
			c.misses++
		}
		if r.status == http.StatusNotModified {
			c.notModified++
		}
	}
	return c
}

// latencies returns every request's time in ms.
func latencies(recs []reqRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.ms
	}
	return out
}

// placement describes where a percentile falls: the population of the
// request at that rank, that population's share of all requests, and
// the share of requests within ±0.5% of the rank that belong to it.
type placement struct {
	Quantile   float64 `json:"quantile"`
	Population string  `json:"population"`
	Share      float64 `json:"share"`
	Purity     float64 `json:"purity"`
	Beyond     int     `json:"samples_beyond"`
}

func (p phase) placements(ks *keySpace, segments bool, qs ...float64) []placement {
	n := len(p.recs)
	if n == 0 {
		return nil
	}
	sorted := append([]reqRecord(nil), p.recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ms < sorted[j].ms })
	share := map[string]int{}
	for _, r := range sorted {
		share[population(r, ks, segments)]++
	}
	var out []placement
	for _, q := range qs {
		rank := int(math.Ceil(q*float64(n))) - 1
		if rank < 0 {
			rank = 0
		}
		pop := population(sorted[rank], ks, segments)
		band := n / 200
		lo, hi := rank-band, rank+band
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		same := 0
		for i := lo; i <= hi; i++ {
			if population(sorted[i], ks, segments) == pop {
				same++
			}
		}
		out = append(out, placement{
			Quantile: q, Population: pop,
			Share:  float64(share[pop]) / float64(n),
			Purity: float64(same) / float64(hi-lo+1),
			Beyond: n - 1 - rank,
		})
	}
	return out
}

// popStat summarizes one request population.
type popStat struct {
	Population string  `json:"population"`
	Requests   int     `json:"requests"`
	Share      float64 `json:"share"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// populations summarizes every population of the phase, most frequent
// first.
func (p phase) populations(ks *keySpace, segments bool) []popStat {
	byPop := map[string][]float64{}
	for _, r := range p.recs {
		pop := population(r, ks, segments)
		byPop[pop] = append(byPop[pop], r.ms)
	}
	out := make([]popStat, 0, len(byPop))
	for pop, ms := range byPop {
		out = append(out, popStat{Population: pop, Requests: len(ms),
			Share: float64(len(ms)) / float64(len(p.recs)), P50Ms: quantile(ms, 0.5), P99Ms: quantile(ms, 0.99)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Population < out[j].Population
	})
	return out
}
