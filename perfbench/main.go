// Command perfbench is the repository's release-engine benchmark. It runs
// one workload against an in-process server handler — design once, then
// release many — checks every output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as the last line of standard
// output. See README.md for the workloads, metrics and method.
//
//	go run . --workload census-3d --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"restart_s", "s"},
	{"releases_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"rmse", "value"},
}

// perLayer are the metrics of single layers; every traced run reports all
// of them.
var perLayer = []metricDef{
	{"server.request_ms", "ms"},
	{"server.self_us", "us"},
	{"server.serialize_us", "us"},
	{"server.bytes_per_release", "B"},
	{"server.allocs_per_release", "count"},
	{"accountant.settle_ns", "ns"},
	{"mm.answer_us", "us"},
	{"mm.noise_us", "us"},
	{"mm.infer_us", "us"},
	{"mm.release_us", "us"},
	{"mm.allocs_per_release", "count"},
	{"linalg.matvec_us", "us"},
	{"linalg.matvec_t_us", "us"},
	{"linalg.bytes_per_product", "B"},
	{"linalg.products_per_solve", "count"},
	{"planner.design_s", "s"},
	{"planner.select_us", "us"},
	{"planner.modeled_cost", "count"},
	{"planstore.entry_bytes", "B"},
	{"planstore.encode_ms", "ms"},
	{"planstore.decode_ms", "ms"},
	{"planstore.loadall_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_releases_pct", "%"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	quick    bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envInfo records what a result was measured under.
type envInfo struct {
	Seed        int64          `json:"seed"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	GoVersion   string         `json:"go_version"`
	Commit      string         `json:"commit"`
	Batch       int            `json:"batch"`
	Parallelism int            `json:"parallelism"`
	RunSeconds  float64        `json:"run_seconds"`
	Transport   string         `json:"transport"`
	Samples     map[string]int `json:"samples"`
}

// report is the results file written next to the span dump.
type report struct {
	Workload string      `json:"workload"`
	Spec     string      `json:"spec"`
	Why      string      `json:"why"`
	Traced   bool        `json:"traced"`
	Env      envInfo     `json:"env"`
	Result   result      `json:"result"`
	Notes    []string    `json:"notes,omitempty"`
	Problems []string    `json:"problems,omitempty"`
	Layers   []layerTime `json:"layers,omitempty"`
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: range1d-batch, census-3d or census-rangemarg")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 35, "seconds the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the results file, span dump and scratch plan stores")
	fs.BoolVar(&o.quick, "quick", false, "smoke mode: one repeat of everything; numbers are not comparable")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, prints its report and final JSON line to
// stdout, and writes the results file. A run whose output checks fail
// returns a result with Correct false; err is reserved for runs that could
// not measure at all.
func run(o options, stdout io.Writer) (result, error) {
	wd, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(batchParallelism)
	workDir := filepath.Join(o.out, fmt.Sprintf("work-%s-%d", wd.name, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(workDir)

	b, err := newBench(wd, o.seed, time.Duration(o.seconds*float64(time.Second)), o.quick, workDir)
	if err != nil {
		return result{}, err
	}
	rmseReleases, minReq := wd.rmseReleases, minSamplesFor(90)
	if o.quick {
		b.wd.setups, b.wd.restarts, rmseReleases, minReq = 1, 1, wd.batch, 1
	}
	if o.trace {
		b.tr = newTracer()
	}

	fmt.Fprintf(stdout, "perfbench %s (%s): seed %d, %gs, trace %t\n", wd.name, wd.spec, o.seed, o.seconds, o.trace)
	var lv *live
	var setupSecs, restartSecs []float64
	var p phase
	if o.trace {
		// The traced run reports no set-up metric and no tail percentile:
		// one set-up and one restart bring up its server.
		lv, _, _, err = b.bringUp()
	} else {
		lv, setupSecs, restartSecs, p, err = b.endToEnd(minReq)
	}
	if err != nil {
		return result{}, err
	}

	rep := report{Workload: wd.name, Spec: wd.spec, Why: wd.why, Traced: o.trace}
	rep.Env = envInfo{
		Seed: o.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: commit(), Batch: wd.batch, Parallelism: batchParallelism, RunSeconds: o.seconds,
		Transport: "in-process ServeHTTP", Samples: map[string]int{},
	}
	metrics := map[string]float64{}
	notes := &rep.Notes
	notef := func(format string, args ...any) {
		*notes = append(*notes, fmt.Sprintf(format, args...))
	}
	notef("plan: generator %s, inference %s, form %s, modeled cost %g", b.design.Planner.Generator, b.design.Planner.Inference, b.design.Form, b.design.Planner.ModeledCost)

	if !o.trace {
		notef("set-ups (s): %.4f", setupSecs)
		notef("restarts (s): %.4f", restartSecs)
		rep.Env.Samples["setup"], rep.Env.Samples["restart"] = len(setupSecs), len(restartSecs)
		metrics["setup_s"] = median(setupSecs)
		metrics["restart_s"] = median(restartSecs)
		metrics["releases_per_s"] = p.releasesPerSec()
		metrics["latency_p50_ms"] = median(p.lat) * 1e3
		metrics["latency_p90_ms"] = percentile(p.lat, 90) * 1e3
		metrics["heap_peak_mb"] = median(p.heapWindows) / (1 << 20)
		metrics["rmse"] = b.accuracy(lv, rmseReleases)
		rep.Env.Samples["latency"] = len(p.lat)
		rep.Env.Samples["beyond_p90"] = samplesBeyond(len(p.lat), 90)
		rep.Env.Samples["rmse_releases"] = rmseReleases
		notef("timed phase: %d requests, %d releases in %.3fs; p50 over %d samples, p90 with %d samples beyond it; heap peak %.2f MB at most",
			p.requests, p.releases, p.wall, len(p.lat), samplesBeyond(len(p.lat), 90), float64(p.heapMax)/(1<<20))
		if !o.quick && samplesBeyond(len(p.lat), 90) < minTail {
			b.fail("p90 rests on %d samples beyond it, fewer than %d", samplesBeyond(len(p.lat), 90), minTail)
		}
	} else {
		pu, pt := b.tracedPhases(lv)
		b.accuracy(lv, wd.batch)
		lr, err := b.measureLayers()
		if err != nil {
			lv.close(b)
			return result{}, err
		}
		for k, v := range lr.metrics {
			metrics[k] = v
		}
		*notes = append(*notes, lr.notes...)
		spanMetrics(b.tr, pt.releases, metrics)
		metrics["server.bytes_per_release"] = float64(pu.bytes) / float64(pu.releases)
		metrics["server.allocs_per_release"] = float64(pu.mallocs) / float64(pu.releases)
		metrics["trace.overhead_p50_ms"] = (median(pt.lat) - median(pu.lat)) * 1e3
		metrics["trace.overhead_releases_pct"] = (pu.releasesPerSec() - pt.releasesPerSec()) / pu.releasesPerSec() * 100
		rep.Env.Samples["latency_untraced"] = len(pu.lat)
		rep.Env.Samples["latency_traced"] = len(pt.lat)
		notef("untraced: %d requests, %.2f releases/s, p50 %.4f ms; traced: %d requests, %.2f releases/s, p50 %.4f ms",
			pu.requests, pu.releasesPerSec(), median(pu.lat)*1e3, pt.requests, pt.releasesPerSec(), median(pt.lat)*1e3)
		rep.Layers = b.tr.layers()
		dump := filepath.Join(o.out, "spans-"+wd.name+".jsonl")
		if err := b.tr.dump(dump); err != nil {
			lv.close(b)
			return result{}, err
		}
		notef("span dump: %s (%d spans)", dump, len(b.tr.spans))
	}
	notef("exactness: max|W·x̂ − W·x| / max|W·x| = %.3g at ε=%g (tolerance %.0e)", b.checkExact(lv), exactEpsilon, exactTol)
	b.checkLedger(lv)
	lv.close(b)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Attempted: b.ops, Failed: b.opsFailed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s was not measured", d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = len(b.problems) == 0 && res.Failed == 0
	rep.Result, rep.Problems = res, b.problems

	printReport(stdout, rep, defs)
	path := filepath.Join(o.out, fmt.Sprintf("result-%s-trace%d.json", wd.name, boolInt(o.trace)))
	if err := writeJSON(path, rep); err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "results: %s\n%s\n", path, line)
	return res, nil
}

// spanMetrics derives the per-layer metrics that come from the traced
// run's spans: request time, server self time (request time no release
// stage covers), and the mean release-stage times.
func spanMetrics(t *tracer, releases int, out map[string]float64) {
	self := t.selfTimes()
	var reqMS []float64
	var selfNS int64
	stage := map[string][]float64{}
	for i, s := range t.spans {
		d := float64(s.End - s.Start)
		switch s.Name {
		case "server.request":
			reqMS = append(reqMS, d/1e6)
			selfNS += self[i]
		case "server.serialize", "mm.answer", "mm.noise", "mm.infer":
			stage[s.Name] = append(stage[s.Name], d/1e3)
		}
	}
	out["server.request_ms"] = median(reqMS)
	out["server.self_us"] = float64(selfNS) / 1e3 / float64(releases)
	out["server.serialize_us"] = trimmedMean(stage["server.serialize"])
	out["mm.answer_us"] = trimmedMean(stage["mm.answer"])
	out["mm.noise_us"] = trimmedMean(stage["mm.noise"])
	out["mm.infer_us"] = trimmedMean(stage["mm.infer"])
}

func printReport(w io.Writer, rep report, defs []metricDef) {
	e := rep.Env
	fmt.Fprintf(w, "env: seed %d, GOMAXPROCS %d, nproc %d, %s, commit %s, batch %d, parallelism %d, transport %s\n",
		e.Seed, e.GOMAXPROCS, e.NumCPU, e.GoVersion, e.Commit, e.Batch, e.Parallelism, e.Transport)
	fmt.Fprintf(w, "samples: %v\n", e.Samples)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, n)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "%-28s %8s %10s %12s %12s\n", "span", "spans", "calls", "total_s", "self_s")
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "%-28s %8d %10d %12.6f %12.6f\n", l.Name, l.Spans, l.Calls, l.TotalS, l.SelfS)
		}
	}
	for _, d := range defs {
		if m, ok := rep.Result.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-28s %16.6g %s\n", d.name, m.Value, d.unit)
		}
	}
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "check failed:", p)
	}
}

// commit names the source revision: the run script passes it in, and a
// checkout that is not a git repository has none.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
