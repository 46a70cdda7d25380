// Command fleetbench is the end-to-end solve benchmark of the PBQP
// allocation service. In one process it starts a pbqp-serve backend
// (server.New) behind a pbqp-router front (router.New) on loopback
// listeners, drives one workload through the router in a closed loop
// with one client per CPU, verifies every answer against the
// benchmark's own copy of the graph, and prints the metrics.
//
// Usage, from the repository root:
//
//	bash fleetbench/run.sh --workload ate-rl|llvm-spill|big-sparse \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it runs the same request list twice, untraced and traced, replays the
// bodies through the layers' public functions, and reports the
// per-layer breakdown plus the tracing overhead. The last line of
// standard output is always one JSON object:
//
//	{"correct":true,"attempted":100,"failed":0,"metrics":{...}}
//
// A failed or unverifiable answer makes the command exit 1 after
// printing that line with "correct":false. See README.md for the
// workloads, the metrics and how the per-layer numbers are derived.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	outDir   string
	// requests overrides the list length derived from seconds; tests
	// use it for short runs.
	requests int
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same requests")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal measurement length; sizes the request list")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&o.commit, "commit", "unknown", "git commit of the code under test, stamped on the run record")
	fs.StringVar(&o.outDir, "out", ".bench_build/fleetbench-out", "directory for run records and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fs.Usage()
		return 2
	}
	o.trace = *traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "fleetbench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}

	rep, err := execute(context.Background(), w, o)
	if err != nil {
		fmt.Fprintf(stderr, "fleetbench: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	if err := writeRecord(o, rep); err != nil {
		fmt.Fprintf(stderr, "fleetbench: %v\n", err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "fleetbench: %s\n", f)
	}
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.driverMetrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "fleetbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed != 0 {
		return 1
	}
	return 0
}

// report is everything one run measured.
type report struct {
	workload  string
	requests  int
	attempted int
	failed    int
	failures  []string // first few verification failures, for stderr
	// driverMetrics are the metrics of the JSON result line: the
	// end-to-end set untraced, the per-layer set traced.
	driverMetrics map[string]metric
	// extra are reported on the human table and the run record only.
	extra map[string]metric
	// samples is the latency sample count behind the percentiles.
	samples int
	spans   string // span dump path, traced runs only
}

func execute(ctx context.Context, w *workload, o options) (*report, error) {
	n := o.requests
	if n == 0 {
		n = w.requestCount(o.seconds)
	}
	reqs, err := w.build(o.seed, n)
	if err != nil {
		return nil, err
	}
	check := newChecker(w, reqs)
	if !o.trace {
		setup, err := measureSetup(ctx, setupRepeats)
		if err != nil {
			return nil, err
		}
		p, err := runPass(ctx, w, reqs, nil)
		if err != nil {
			return nil, err
		}
		e2e := endToEnd(w, reqs, p, check)
		e2e.metrics["setup_s"] = metric{setup.Seconds(), "s"}
		return &report{
			workload:      w.name,
			requests:      len(reqs),
			attempted:     e2e.attempted,
			failed:        e2e.failed,
			failures:      e2e.failures,
			driverMetrics: e2e.metrics,
			extra:         e2e.extra,
			samples:       e2e.samples,
		}, nil
	}

	// Traced run: the untraced pass is the overhead baseline, the
	// traced pass on a fresh stack (empty router cache) answers the
	// same list, and the replays run once both stacks are down.
	base, err := runPass(ctx, w, reqs, nil)
	if err != nil {
		return nil, err
	}
	baseE2E := endToEnd(w, reqs, base, check)
	tr := newTracer()
	traced, err := runPass(ctx, w, reqs, tr)
	if err != nil {
		return nil, err
	}
	tracedE2E := endToEnd(w, reqs, traced, check)
	layers := perLayer(w, reqs, traced, tr, baseE2E, tracedE2E)
	if err := replayLayers(ctx, w, reqs, tr, layers); err != nil {
		return nil, err
	}
	spans, err := tr.dump(o.outDir, w.name)
	if err != nil {
		return nil, err
	}
	extra := map[string]metric{}
	for k, v := range tracedE2E.metrics {
		extra["traced."+k] = v
	}
	for k, v := range baseE2E.metrics {
		extra["untraced."+k] = v
	}
	return &report{
		workload:      w.name,
		requests:      len(reqs),
		attempted:     baseE2E.attempted + tracedE2E.attempted,
		failed:        baseE2E.failed + tracedE2E.failed,
		failures:      append(baseE2E.failures, tracedE2E.failures...),
		driverMetrics: layers,
		extra:         extra,
		samples:       tracedE2E.samples,
		spans:         spans,
	}, nil
}

// printReport writes the human-readable table: every metric by name
// with its value and unit.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s: %d requests, %d attempted, %d failed; latency percentiles over %d samples\n",
		rep.workload, rep.requests, rep.attempted, rep.failed, rep.samples)
	for _, m := range []map[string]metric{rep.driverMetrics, rep.extra} {
		for _, name := range sortedKeys(m) {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	if rep.spans != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rep.spans)
	}
}

// record is the stamped run record written next to the span dumps.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	Requests   int               `json:"requests"`
	Samples    int               `json:"samples"`
	Percentile []string          `json:"percentiles_reported"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Extra      map[string]metric `json:"extra"`
}

func writeRecord(o options, rep *report) error {
	rec := record{
		Workload:   rep.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Requests:   rep.requests,
		Samples:    rep.samples,
		Percentile: []string{"p50", "p90"},
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     o.commit,
		Attempted:  rep.attempted,
		Failed:     rep.failed,
		Metrics:    rep.driverMetrics,
		Extra:      rep.extra,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", o.outDir, err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.workload, o.seed, boolInt(o.trace))
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing run record: %w", err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
