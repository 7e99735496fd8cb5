package main

import (
	"fmt"
	"time"
)

// metricDef is one reported metric. The lists below are the benchmark's
// single source of metric names and units; BENCHMARK.json at the repository
// root declares the same names (the smoke test holds the two together).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the detector sees, reported by untraced runs
// of every workload and gated by BENCHMARK.json. Wall-clock run time,
// throughput, heap and delivery latency are per-layer figures instead: on
// a shared host they swing by more than any bound a gate may use (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median time to build the deployment
	{"cpu_us_per_msg", "us"}, // process CPU per delivered message / ingested heartbeat
	{"detect_ms", "ms"},      // mean crash-detection latency (virtual in sims, wall in live-ingest)
}

// perLayer attributes the cost to the layers, reported by traced runs.
// Counts come from an untraced pass (or, for calls only a wrapper can see,
// from the traced pass, whose layer counts must equal the untraced ones);
// times and self times come from the traced pass. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"des.events", "count"},
	{"des.events_per_s", "1/s"},
	{"des.self_s", "s"},
	{"des.schedule_calls", "count"},
	{"des.schedule_ns", "ns"},
	{"des.pending_max", "count"},
	{"sim.allocs_per_event", "count"},
	{"sim.alloc_bytes_per_event", "B"},
	{"runtime.gc_cpu_s", "s"},
	{"netsim.sent", "count"},
	{"netsim.delivered", "count"},
	{"netsim.dropped", "count"},
	{"netsim.bytes", "B"},
	{"netsim.broadcasts", "count"},
	{"netsim.sends", "count"},
	{"netsim.fanout", "count"},
	{"netsim.delivery_ratio", "ratio"},
	{"netsim.self_s", "s"},
	{"netsim.ns_per_msg", "ns"},
	{"wire.size_calls", "count"},
	{"wire.size_s", "s"},
	{"core.deliveries", "count"},
	{"core.timer_fires", "count"},
	{"core.rounds", "count"},
	{"core.self_s", "s"},
	{"core.ns_per_delivery", "ns"},
	{"core.transitions", "count"},
	{"heartbeat.deliveries", "count"},
	{"heartbeat.timer_fires", "count"},
	{"heartbeat.self_s", "s"},
	{"heartbeat.ns_per_delivery", "ns"},
	{"trace.events", "count"},
	{"trace.append_s", "s"},
	{"qos.ingest_s", "s"},
	{"qos.finalize_s", "s"},
	{"qos.mistakes", "count"},
	{"topology.build_s", "s"},
	{"setup.nodes_s", "s"},
	{"run.wall_s", "s"},
	{"msgs.per_s", "1/s"},
	{"heap.live_mb", "MB"},
	{"deliver.p50_ms", "ms"},
	{"deliver.p99_ms", "ms"},
	{"deliver.samples", "count"},
	{"loadgen.offered", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"tcpnet.send_ns", "ns"},
	{"tcpnet.send_max_ms", "ms"},
	{"tcpnet.frames_sent", "count"},
	{"tcpnet.frames_dropped", "count"},
	{"tcpnet.writes", "count"},
	{"tcpnet.coalesce", "count"},
	{"liveshard.deliver_ns", "ns"},
	{"liveshard.processed", "count"},
	{"liveshard.dropped", "count"},
	{"liveshard.useful_ratio", "ratio"},
	{"liveshard.queue_max", "count"},
	{"liveshard.ingest_p50_us", "us"},
	{"liveshard.ingest_p99_us", "us"},
	{"tracing.untraced_run_s", "s"},
	{"tracing.run_s", "s"},
	{"tracing.overhead_s", "s"},
	{"tracing.overhead_cpu_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run measured, before it is shaped into the
// metric set of its mode.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []string // failed correctness checks
	passes    int
	passRuns  []float64 // host seconds of every pass, in order
	passCPU   []float64 // process CPU seconds of every pass
	spans     []spanRecord
}

func (o *outcome) fail(format string, a ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, a...))
}

// pass records one pass's host wall and CPU time.
func (o *outcome) pass(wall, cpu time.Duration) {
	o.passes++
	o.passRuns = append(o.passRuns, wall.Seconds())
	o.passCPU = append(o.passCPU, cpu.Seconds())
}

// metricsFor shapes values into exactly the given metric set: every defined
// name is present (0 where the workload has no such layer) and nothing else.
func metricsFor(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
		known[d.name] = true
	}
	for name := range values {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not defined for this mode", name)
		}
	}
	return out, nil
}
