package main

// runSim measures one sim workload. Untraced runs repeat build-run-judge
// passes of the seed's inputs until the time budget is spent; traced runs
// alternate an untraced and a traced pass. Every pass must reproduce the
// first pass's signature exactly.
func runSim(w *simWorkload, o options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var want string
	plain, traced, err := cycles(o, func(tr bool) (*simPass, error) {
		p, err := runSimPass(w, o.seed, tr)
		if err != nil {
			return nil, err
		}
		if want == "" {
			want = p.signature()
		} else if got := p.signature(); got != want {
			out.fail("pass %d (traced=%v) diverged from pass 0: %s, want %s", out.passes, tr, got, want)
		}
		if p.detected != p.expected {
			out.fail("pass %d: %d of %d crash detections missing", out.passes, p.expected-p.detected, p.expected)
		}
		out.attempted += int64(p.expected)
		out.failed += int64(p.expected - p.detected)
		out.pass(p.run, p.cpu)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	med := medOf[*simPass]
	p0 := plain[0]
	delivered := float64(p0.net.Delivered)
	if !o.trace {
		setups := make([]float64, len(plain))
		for i, p := range plain {
			setups[i] = p.setup.Seconds()
		}
		setups, err := setupSamples(setups, func() error {
			_, err := buildSim(w, o.seed, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = median(setups)
		out.values["cpu_us_per_msg"] = med(plain, func(p *simPass) float64 { return p.cpu.Seconds() * 1e6 / delivered })
		out.values["detect_ms"] = p0.detectMS()
		return out, nil
	}

	v := out.values
	runU := med(plain, func(p *simPass) float64 { return p.run.Seconds() })
	runT := med(traced, func(p *simPass) float64 { return p.run.Seconds() })
	cpuU := med(plain, func(p *simPass) float64 { return p.cpu.Seconds() })
	cpuT := med(traced, func(p *simPass) float64 { return p.cpu.Seconds() })
	events := float64(p0.events)
	v["des.events"] = events
	v["des.events_per_s"] = events / runU
	v["des.pending_max"] = float64(p0.pendingMax)
	v["sim.allocs_per_event"] = med(plain, func(p *simPass) float64 { return p.allocs / events })
	v["sim.alloc_bytes_per_event"] = med(plain, func(p *simPass) float64 { return p.allocBytes / events })
	v["runtime.gc_cpu_s"] = med(plain, func(p *simPass) float64 { return p.gcCPU })
	v["netsim.sent"] = float64(p0.net.Sent)
	v["netsim.delivered"] = delivered
	v["netsim.dropped"] = float64(p0.net.Dropped)
	v["netsim.bytes"] = float64(p0.net.Bytes)
	if p0.net.Sent > 0 {
		v["netsim.delivery_ratio"] = delivered / float64(p0.net.Sent)
	}
	v["core.rounds"] = float64(p0.rounds)
	if p0.rounds > 0 {
		v["core.transitions"] = float64(p0.traceEvents)
	}
	v["trace.events"] = float64(p0.traceEvents)
	v["qos.mistakes"] = float64(p0.mistakes)
	v["topology.build_s"] = med(plain, func(p *simPass) float64 { return p.topo.Seconds() })
	v["setup.nodes_s"] = med(plain, func(p *simPass) float64 { return p.nodes.Seconds() })
	v["run.wall_s"] = runU
	v["msgs.per_s"] = delivered / runU
	v["heap.live_mb"] = med(plain, func(p *simPass) float64 { return p.heapMB })
	v["deliver.p50_ms"] = p0.deliverP50
	v["deliver.p99_ms"] = p0.deliverP99
	v["deliver.samples"] = float64(p0.delaySamples)
	v["tracing.untraced_run_s"] = runU
	v["tracing.run_s"] = runT
	v["tracing.overhead_s"] = runT - runU
	v["tracing.overhead_cpu_s"] = cpuT - cpuU

	// Calls only a wrapper sees are counted on the first traced pass;
	// times are medians over traced passes.
	t0 := traced[0].tr
	cnt := func(k spanKind) float64 { return float64(t0.count[k]) }
	tmed := func(f func(t *tracer) float64) float64 {
		return med(traced, func(p *simPass) float64 { return f(p.tr) })
	}
	v["des.self_s"] = tmed(func(t *tracer) float64 { return t.selfSeconds(spanRun) })
	v["des.schedule_calls"] = cnt(spanSchedule)
	v["des.schedule_ns"] = tmed(func(t *tracer) float64 { return t.meanNS(spanSchedule) })
	v["netsim.broadcasts"] = cnt(spanBroadcast)
	v["netsim.sends"] = cnt(spanSend)
	if b := cnt(spanBroadcast); b > 0 {
		v["netsim.fanout"] = float64(t0.fanout) / b
	}
	netSelf := func(t *tracer) float64 { return t.selfSeconds(spanSend) + t.selfSeconds(spanBroadcast) }
	v["netsim.self_s"] = tmed(netSelf)
	if p0.net.Sent > 0 {
		v["netsim.ns_per_msg"] = tmed(netSelf) * 1e9 / float64(p0.net.Sent)
	}
	v["wire.size_calls"] = cnt(spanWireSize)
	v["wire.size_s"] = tmed(func(t *tracer) float64 { return float64(t.total[spanWireSize]) / 1e9 })
	layer := func(prefix string, deliver, timer spanKind) {
		v[prefix+".deliveries"] = cnt(deliver)
		v[prefix+".timer_fires"] = cnt(timer)
		v[prefix+".self_s"] = tmed(func(t *tracer) float64 { return t.selfSeconds(deliver) + t.selfSeconds(timer) })
		if n := cnt(deliver); n > 0 {
			v[prefix+".ns_per_delivery"] = tmed(func(t *tracer) float64 { return float64(t.self[deliver]) }) / n
		}
	}
	layer("core", spanCoreDeliver, spanCoreTimer)
	layer("heartbeat", spanHBDeliver, spanHBTimer)
	v["trace.append_s"] = tmed(func(t *tracer) float64 { return float64(t.total[spanTraceAppend]) / 1e9 })
	v["qos.ingest_s"] = tmed(func(t *tracer) float64 { return float64(t.total[spanQosIngest]) / 1e9 })
	v["qos.finalize_s"] = tmed(func(t *tracer) float64 { return float64(t.total[spanQosFinalize]) / 1e9 })
	out.spans = t0.samples
	if got := cnt(spanWireSize); got != float64(p0.net.Sent) {
		out.fail("traced pass saw %v wire.Size calls for %d sent messages", got, p0.net.Sent)
	}
	return out, nil
}
