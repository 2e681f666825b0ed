// Command spinebench is the repository's benchmark: one driver that
// runs the real spine — campaign → store feed → seal → segment
// write/open, and sealed store or segment reader → serve → closed-loop
// clients — through public APIs, checks every answer, and reports the
// end-to-end metrics a user sees and, from a separate traced run, the
// time and work of each layer.
//
// Usage (from the repository root, through spinebench/run.sh, which
// builds it first):
//
//	spinebench --workload ingest|query-cold|query-dashboard --seed N \
//	    --seconds S --trace 0|1 [-cpuprofile FILE] [-report FILE] [-workdir DIR]
//
// Standard output carries a human-readable report; its last line is
// one JSON object {correct, attempted, failed, metrics}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run is split
// in an untraced and a traced half, and the metrics are the per-layer
// ones, including the tracing overhead. -report writes everything —
// host, sizes, ratios with their bases, checks, spans — as one JSON
// document.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sample"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, env *env, traced bool, budget time.Duration) (*outcome, error)
}

var workloads = []workload{
	{"ingest", "cloudy segment at CLI smoke size: campaign, feed, seal, segment write and open; almost all time is in measure/netsim", runIngest},
	{"query-cold", "cloudy serve over a generated in-memory store; every request misses the cache, so store gather, analysis compute and the bootstrap CI carry the time", runQueryCold},
	{"query-dashboard", "cloudy serve -segments over a 15x larger store, zipf mix with ETag revalidation: the cache/304 path carries p50, segment read, prune and sketch merge carry p99", runQueryDashboard},
}

// env is what every workload run shares.
type env struct {
	seed    int64
	workdir string
	nproc   int
	spans   *spanLog
	// ingest sizes the ingest campaign; seed, cycles, workers and
	// registry are filled in per run. The benchmark always runs
	// ingestStudy, tests a smaller study.
	ingest core.Config
	// sinks are extra campaign sinks beside the feed; tests add one that
	// fails.
	sinks []sample.Sink
}

// check is one correctness check; a failed check is a failed operation.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ratioRec is a ratio together with its base counts.
type ratioRec struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Den   float64 `json:"den"`
}

// outcome is what one (untraced or traced) workload run measured.
type outcome struct {
	e2e        map[string]float64
	layer      map[string]float64
	sizes      map[string]float64
	ratios     []ratioRec
	checks     []check
	attempted  int
	failed     int
	placements []placement
	pops       []popStat
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, sizes: map[string]float64{}}
}

func (o *outcome) addCheck(name string, err error) {
	o.attempted++
	c := check{Name: name, OK: err == nil}
	if err != nil {
		o.failed++
		c.Detail = err.Error()
	}
	o.checks = append(o.checks, c)
}

func (o *outcome) addRatio(name string, num, den float64) {
	r := ratioRec{Name: name, Value: ratio(num, den), Num: num, Den: den}
	o.ratios = append(o.ratios, r)
	o.layer[name] = r.Value
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo records where the numbers were taken.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu"`
}

// report is the full -report document.
type report struct {
	Workload      string             `json:"workload"`
	Why           string             `json:"why"`
	Seed          int64              `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Trace         bool               `json:"trace"`
	Host          hostInfo           `json:"host"`
	Sizes         map[string]float64 `json:"sizes"`
	EndToEnd      map[string]float64 `json:"end_to_end"`
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	Ratios        []ratioRec         `json:"ratios"`
	Placements    []placement        `json:"placements"`
	Populations   []popStat          `json:"populations"`
	Checks        []check            `json:"checks"`
	Spans         []span             `json:"spans"`
	Result        result             `json:"result"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spinebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest, query-cold or query-dashboard")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 15, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced half")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	reportPath := fs.String("report", "", "write the full report as JSON to this file")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the segment files the workloads write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "spinebench: need --workload {ingest,query-cold,query-dashboard}, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "spinebench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "spinebench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	e := &env{seed: *seed, workdir: filepath.Join(*workdir, wl.name), nproc: runtime.NumCPU(), spans: newSpanLog(), ingest: ingestStudy}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "spinebench:", err)
		return 1
	}
	defer os.RemoveAll(e.workdir)

	rep, err := measureRun(ctx, e, wl, *trace == 1, time.Duration(*secs*float64(time.Second)))
	if err != nil {
		fmt.Fprintf(stderr, "spinebench: %s: %v\n", wl.name, err)
		return 1
	}
	rep.Seconds = *secs
	printReport(stdout, rep)
	if *reportPath != "" {
		body, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*reportPath, append(body, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "spinebench: writing report:", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "spinebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measureRun runs the workload once untraced or, when traced, as an
// untraced and a traced half of the budget, and assembles the report.
func measureRun(ctx context.Context, e *env, wl *workload, traced bool, budget time.Duration) (*report, error) {
	rep := &report{Workload: wl.name, Why: wl.why, Seed: e.seed, Trace: traced, Host: host()}
	var out *outcome
	if !traced {
		o, err := wl.run(ctx, e, false, budget)
		if err != nil {
			return nil, err
		}
		out = o
		rep.EndToEnd = o.e2e
	} else {
		plain, err := wl.run(ctx, e, false, budget/2)
		if err != nil {
			return nil, fmt.Errorf("untraced half: %w", err)
		}
		out, err = wl.run(ctx, e, true, budget/2)
		if err != nil {
			return nil, fmt.Errorf("traced half: %w", err)
		}
		out.attempted += plain.attempted
		out.failed += plain.failed
		out.checks = append(plain.checks, out.checks...)
		rep.EndToEnd = plain.e2e
		rep.PerLayer = out.layer
		rep.TraceOverhead = map[string]float64{}
		for _, m := range endToEnd {
			d := out.e2e[m.Name] - plain.e2e[m.Name]
			rep.TraceOverhead[m.Name] = d
			out.layer["trace_overhead."+m.Name] = d
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Sizes, rep.Ratios, rep.Placements, rep.Populations, rep.Checks, rep.Spans = out.sizes, out.ratios, out.placements, out.pops, out.checks, e.spans.spans
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, out.e2e
	if traced {
		defs, values = perLayer(), out.layer
	}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	rep.Result = res
	return rep, nil
}

func host() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printReport writes the human-readable report.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "spinebench  workload=%s seed=%d seconds=%g trace=%t\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "host        nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.OS, r.Host.Arch, r.Host.CPU)
	fmt.Fprintf(w, "why         %s\n", r.Why)
	fmt.Fprintf(w, "sizes      ")
	for _, k := range sortedKeys(r.Sizes) {
		fmt.Fprintf(w, " %s=%g", k, r.Sizes[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "end-to-end (untraced)")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %14.6f %s\n", m.Name, r.EndToEnd[m.Name], m.Unit)
	}
	for _, p := range r.Placements {
		fmt.Fprintf(w, "  p%-4g falls in %-20s (%.1f%% of requests, %.0f%% of its ±0.5%% rank band, %d samples beyond)\n",
			100*p.Quantile, p.Population, 100*p.Share, 100*p.Purity, p.Beyond)
	}
	for _, p := range r.Populations {
		fmt.Fprintf(w, "  population %-20s %6.2f%% of requests (%d)  p50 %10.4f ms  p99 %10.4f ms\n",
			p.Population, 100*p.Share, p.Requests, p.P50Ms, p.P99Ms)
	}
	if r.Trace {
		fmt.Fprintln(w, "tracing overhead (traced minus untraced)")
		for _, m := range endToEnd {
			base := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-16s %+14.6f %s (%+.1f%%)\n", m.Name, r.TraceOverhead[m.Name], m.Unit, 100*ratio(r.TraceOverhead[m.Name], base))
		}
		fmt.Fprintln(w, "per-layer (traced)                              value  unit   moves")
		for _, m := range perLayer() {
			if strings.HasPrefix(m.Name, "trace_overhead.") {
				continue
			}
			fmt.Fprintf(w, "  %-40s %14.6f  %-6s %s\n", m.Name, r.PerLayer[m.Name], m.Unit, m.Target)
		}
	}
	fmt.Fprintln(w, "ratios")
	for _, x := range r.Ratios {
		fmt.Fprintf(w, "  %-32s %.6f = %g / %g\n", x.Name, x.Value, x.Num, x.Den)
	}
	failed := 0
	for _, c := range r.Checks {
		if !c.OK {
			failed++
			fmt.Fprintf(w, "check FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "checks      %d run, %d failed\n", len(r.Checks), failed)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
