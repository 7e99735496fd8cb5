// Command fdperf is the repository's benchmark: it drives the failure
// detector layers only through their public constructors, checks that the
// outputs are correct, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"detect_ms": {"value": 351.2, "unit": "ms"}, ...}}
//
// Usage (from the repository root; fdperf/run.sh builds and runs it):
//
//	fdperf --workload qr-mesh|qr-manet|hb-manet|live-ingest --seed N --seconds S --trace 0|1
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics, including the tracing overhead. A full report (host
// fingerprint, seed, every metric, the sampled spans) is written under
// --report. A run whose correctness checks fail prints its result with
// "correct": false and exits 1. See README.md for the workloads and for
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options is one run's configuration.
type options struct {
	seed      int64
	budget    time.Duration
	trace     bool
	minCycles int
	tiny      bool // smoke-test sizes
}

var workloadNames = []string{"qr-mesh", "qr-manet", "hb-manet", "live-ingest"}

// report is the file a run leaves under --report.
type report struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  float64      `json:"seconds"`
	Trace    bool         `json:"trace"`
	Host     fingerprint  `json:"host"`
	Passes   int          `json:"passes"`
	PassRuns []float64    `json:"pass_run_s"`
	PassCPU  []float64    `json:"pass_cpu_s"`
	Checks   []string     `json:"failed_checks"`
	Result   result       `json:"result"`
	Spans    []spanRecord `json:"spans,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: qr-mesh, qr-manet, hb-manet or live-ingest")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from traced passes")
	reportDir := fs.String("report", filepath.Join(".bench_build", "reports"), "directory for the full JSON report (empty = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "fdperf: --trace must be 0 or 1")
		return 2
	}
	o := options{
		seed:      *seed,
		budget:    time.Duration(*seconds * float64(time.Second)),
		trace:     *traceFlag == 1,
		minCycles: 3,
	}
	if o.trace {
		o.minCycles = 1
	}
	rep, err := measure(*workload, o)
	if err != nil {
		fmt.Fprintln(stderr, "fdperf:", err)
		return 1
	}
	rep.Seconds = *seconds
	if *reportDir != "" {
		if err := writeReport(*reportDir, rep); err != nil {
			fmt.Fprintln(stderr, "fdperf:", err)
			return 1
		}
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "fdperf:", err)
		return 1
	}
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and shapes its outcome into the metric set of
// the run's mode.
func measure(workload string, o options) (*report, error) {
	var out *outcome
	var err error
	if workload == "live-ingest" {
		out, err = runLive(liveSizeFor(o.tiny), o)
	} else if w, ok := simWorkloads(o.tiny)[workload]; ok {
		out, err = runSim(w, o)
	} else {
		return nil, fmt.Errorf("unknown --workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	ms, err := metricsFor(defs, out.values)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !o.trace {
		for _, d := range defs {
			if ms[d.name].Value == 0 {
				out.fail("end-to-end metric %s measured 0", d.name)
			}
		}
	}
	if out.attempted < 1 {
		out.fail("no operation attempted")
	}
	if out.failed > 0 {
		out.fail("%d of %d operations failed", out.failed, out.attempted)
	}
	return &report{
		Workload: workload,
		Seed:     o.seed,
		Trace:    o.trace,
		Host:     hostFingerprint(),
		Passes:   out.passes,
		PassRuns: out.passRuns,
		PassCPU:  out.passCPU,
		Checks:   out.checks,
		Result: result{
			Correct:   len(out.checks) == 0,
			Attempted: out.attempted,
			Failed:    out.failed,
			Metrics:   ms,
		},
		Spans: out.spans,
	}, nil
}

// printReport prints the run for people (fingerprint, every metric with its
// unit, failed checks) and then, as the last line, the result as JSON.
func printReport(w io.Writer, rep *report) error {
	h := rep.Host
	fmt.Fprintf(w, "fdperf %s seed=%d trace=%v passes=%d\n", rep.Workload, rep.Seed, rep.Trace, rep.Passes)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s commit=%s\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.Commit)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", c)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	mode := 0
	if rep.Trace {
		mode = 1
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, mode))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}
