package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/store"
)

// Figure endpoints, in the order the per-layer metrics list them.
const (
	epLatencyMap = "latency-map"
	epCDF        = "cdf"
	epDiff       = "platform-diff"
	epPeering    = "peering-shares"
	epChange     = "changepoint"
)

var figureEndpoints = []string{epLatencyMap, epCDF, epDiff, epPeering, epChange}

// query is one fully-specified figure request. Every parameter the
// server would default is set explicitly, so the request path alone
// determines the expected answer.
type query struct {
	endpoint string
	min      int          // latency-map
	points   int          // cdf
	platform string       // cdf, changepoint
	win      store.Window // latency-map, cdf, platform-diff, peering-shares
	at       int          // changepoint
	width    int          // changepoint; 0 compares everything before/after
}

// path renders the request path the server parses back into q.
func (q query) path() string {
	v := url.Values{}
	switch q.endpoint {
	case epLatencyMap:
		v.Set("min", strconv.Itoa(q.min))
	case epCDF:
		v.Set("platform", q.platform)
		v.Set("points", strconv.Itoa(q.points))
	case epChange:
		v.Set("platform", q.platform)
		v.Set("at", strconv.Itoa(q.at))
		if q.width > 0 {
			v.Set("width", strconv.Itoa(q.width))
		}
	}
	if q.endpoint != epChange {
		if q.win.From > 0 {
			v.Set("from", strconv.Itoa(q.win.From))
		}
		if q.win.To > 0 {
			v.Set("to", strconv.Itoa(q.win.To))
		}
	}
	if len(v) == 0 {
		return "/v1/" + q.endpoint
	}
	return "/v1/" + q.endpoint + "?" + v.Encode()
}

// aligned reports whether every window the query reads starts and ends
// on partition boundaries of a store of shape s — the segment reader's
// sketch path. Others take its exact column-decode fallback.
func (q query) aligned(s storeShape) bool {
	if q.endpoint == epChange {
		return s.edge(q.at) && s.edge(q.width)
	}
	return s.edge(q.win.From) && s.edge(q.win.To)
}

// panel names the dashboard panel a query belongs to: its endpoint,
// and for CDFs the platform too, as load.DefaultEndpoints lists them.
func (q query) panel() string {
	if q.endpoint == epCDF {
		return epCDF + "?platform=" + q.platform
	}
	return q.endpoint
}

// expect is the wire-form answer the server must return for q: the
// serve DTO of the Querier's answer, computed exactly as the handler
// does.
func (q query) expect(qr serve.Querier) any {
	all := q.win.All()
	switch q.endpoint {
	case epLatencyMap:
		if all {
			return serve.LatencyMapDTO(qr.LatencyMap(q.min))
		}
		return serve.LatencyMapDTO(qr.LatencyMapWindow(q.min, q.win))
	case epCDF:
		if all {
			return serve.CDFDTO(qr.ContinentCDFs(q.platform), q.points)
		}
		return serve.CDFDTO(qr.ContinentCDFsWindow(q.platform, q.win), q.points)
	case epDiff:
		if all {
			return serve.PlatformDiffDTO(qr.PlatformDiff())
		}
		return serve.PlatformDiffDTO(qr.PlatformDiffWindow(q.win))
	case epPeering:
		if all {
			return serve.PeeringSharesDTO(qr.PeeringShares())
		}
		return serve.PeeringSharesDTO(qr.PeeringSharesWindow(q.win))
	case epChange:
		return qr.Changepoint(q.platform, q.at, q.width)
	}
	panic("spinebench: unknown endpoint " + q.endpoint)
}

// bodySeed keys the body digests of one process.
var bodySeed = maphash.MakeSeed()

// check compares the digest of a 200 body with the answer of the
// undecorated Querier: the body must be the server's JSON encoding of
// that answer's DTO (one document and a newline). Byte equality with
// the encoding implies that the decoded body equals the DTO.
func (q query) check(digest uint64, bare serve.Querier) error {
	want, err := json.Marshal(q.expect(bare))
	if err != nil {
		return fmt.Errorf("%s: encoding the Querier's answer: %v", q.path(), err)
	}
	if maphash.Bytes(bodySeed, append(want, '\n')) != digest {
		return fmt.Errorf("%s: body differs from the Querier's answer", q.path())
	}
	return nil
}

// storeShape is the time layout of a store: cycles cut into equal
// partitions.
type storeShape struct{ cycles, partitions int }

// edge reports whether cycle c is a partition boundary. An open bound
// (0) is one.
func (s storeShape) edge(c int) bool { return c%(s.cycles/s.partitions) == 0 }

// windows lists every cycle window of the campaign once. A window that
// ends with the campaign is left open-ended, as a dashboard sends it,
// so no two windows read the same rows under different keys.
func (s storeShape) windows() []store.Window {
	var out []store.Window
	for from := 0; from < s.cycles; from++ {
		for to := from + 1; to <= s.cycles; to++ {
			w := store.Window{From: from, To: to}
			if to == s.cycles {
				w.To = 0
			}
			out = append(out, w)
		}
	}
	return out
}

// Ranges of the parameters a dashboard user sets.
const (
	maxMinSamples = 50 // latency-map min, from 1
	minCDFPoints  = 16
	maxCDFPoints  = 128
)

// panelKeys lists every distinct request of each panel over a store of
// shape s. With alignedMaps, latency maps only read partition-aligned
// windows, so none of them takes the segment reader's exact fallback
// and its bootstrap CI.
func panelKeys(s storeShape, alignedMaps bool) map[string][]query {
	keys := map[string][]query{}
	add := func(q query) { keys[q.panel()] = append(keys[q.panel()], q) }
	platforms := []string{"speedchecker", "atlas"}
	for _, w := range s.windows() {
		if !alignedMaps || s.edge(w.From) && s.edge(w.To) {
			for m := 1; m <= maxMinSamples; m++ {
				add(query{endpoint: epLatencyMap, min: m, win: w})
			}
		}
		for _, p := range platforms {
			for points := minCDFPoints; points <= maxCDFPoints; points++ {
				add(query{endpoint: epCDF, platform: p, points: points, win: w})
			}
		}
		add(query{endpoint: epDiff, win: w})
		add(query{endpoint: epPeering, win: w})
	}
	for _, p := range platforms {
		for at := 1; at < s.cycles; at++ {
			for width := 0; width <= s.cycles/2; width++ {
				add(query{endpoint: epChange, platform: p, at: at, width: width})
			}
		}
	}
	return keys
}

// keySpace is a request mix: distinct queries with their load weights
// and an index from request path back to query.
type keySpace struct {
	queries []query
	weights []float64
	byPath  map[string]int
	shape   storeShape // of the store it targets
}

func newKeySpace(s storeShape) *keySpace { return &keySpace{byPath: map[string]int{}, shape: s} }

// add appends q with weight w. Keys are distinct by construction; a
// repeated path is a bug in the key space.
func (k *keySpace) add(q query, w float64) {
	if _, dup := k.byPath[q.path()]; dup {
		panic("spinebench: duplicate key " + q.path())
	}
	k.byPath[q.path()] = len(k.queries)
	k.queries = append(k.queries, q)
	k.weights = append(k.weights, w)
}

// endpoints renders the mix for load.Run.
func (k *keySpace) endpoints() []load.Endpoint {
	eps := make([]load.Endpoint, len(k.queries))
	for i, q := range k.queries {
		eps[i] = load.Endpoint{Path: q.path(), Weight: k.weights[i]}
	}
	return eps
}

// coldKeySpace is query-cold's mix: every distinct request over the
// generated store, each as likely as any other — a sweep over every
// parameter (min, points, from/to, at/width), so the response cache
// holds a negligible share of the keys and nearly every request
// misses. No ETag is replayed.
func coldKeySpace() *keySpace {
	ks := newKeySpace(genShape)
	keys := panelKeys(genShape, false)
	for _, panel := range sortedPanels(keys) {
		for _, q := range keys[panel] {
			ks.add(q, 1)
		}
	}
	return ks
}

// loadZipfExponent is load's positional zipf exponent (zipfExponent in
// internal/load, which does not export it).
const loadZipfExponent = 1.2

// dashboardPanels are the figure panels in the order of the repo's
// dashboard mix, load.DefaultEndpoints, with changepoint — newer than
// that mix — as one more position.
func dashboardPanels() []string {
	var panels []string
	for _, ep := range load.DefaultEndpoints() {
		panels = append(panels, strings.TrimPrefix(ep.Path, "/v1/"))
	}
	return append(panels, epChange)
}

// dashKeySpace is a dashboard's mix over a store of shape s. Panel i of
// dashboardPanels gets the request share load gives position i,
// 1/(i+1)^s normalized; within a panel the same law spreads the share
// over the panel's keys by rank. The ranks are drawn from the seed,
// partition-aligned windows — the presets — all ahead of the windows
// that cut a partition, which a user types in and which take the
// segment reader's exact fallback. Latency maps stay aligned.
func dashKeySpace(seed int64, s storeShape) *keySpace {
	rng := rand.New(rand.NewSource(seed))
	ks := newKeySpace(s)
	keys := panelKeys(s, true)
	panels := dashboardPanels()
	var norm float64
	for i := range panels {
		norm += zipf(i)
	}
	type weighted struct {
		q query
		w float64
	}
	var all []weighted
	for i, panel := range panels {
		var presets, custom []query
		for _, q := range keys[panel] {
			if q.aligned(s) {
				presets = append(presets, q)
			} else {
				custom = append(custom, q)
			}
		}
		rng.Shuffle(len(presets), func(a, b int) { presets[a], presets[b] = presets[b], presets[a] })
		rng.Shuffle(len(custom), func(a, b int) { custom[a], custom[b] = custom[b], custom[a] })
		ranked := append(presets, custom...)
		var inPanel float64
		for r := range ranked {
			inPanel += zipf(r)
		}
		for r, q := range ranked {
			all = append(all, weighted{q, zipf(i) / norm * zipf(r) / inPanel})
		}
	}
	// Heaviest first: load.Run finds a drawn key by a linear scan.
	sort.SliceStable(all, func(a, b int) bool { return all[a].w > all[b].w })
	for _, x := range all {
		ks.add(x.q, x.w)
	}
	return ks
}

// zipf is load's positional weight of rank r (from 0).
func zipf(r int) float64 { return math.Pow(float64(r+1), -loadZipfExponent) }

func sortedPanels(keys map[string][]query) []string {
	panels := make([]string, 0, len(keys))
	for p := range keys {
		panels = append(panels, p)
	}
	sort.Strings(panels)
	return panels
}
