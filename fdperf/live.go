package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncfd/internal/des"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/liveshard"
	"asyncfd/internal/node"
	"asyncfd/internal/qos"
	"asyncfd/internal/tcpnet"
	"asyncfd/internal/trace"
)

// liveSize fixes the live-ingest scale.
type liveSize struct {
	peers    int           // logical monitored peers
	interval time.Duration // heartbeat period per peer
	shards   int           // liveshard workers K
	warmup   time.Duration // dials complete and estimators settle
	window   time.Duration // measured window; the kill lands in its middle
	kill     int           // peers silenced mid-window
}

func liveSizeFor(tiny bool) liveSize {
	if tiny {
		return liveSize{peers: 200, interval: 100 * time.Millisecond, shards: 2,
			warmup: 300 * time.Millisecond, window: time.Second, kill: 2}
	}
	return liveSize{peers: 20000, interval: 100 * time.Millisecond, shards: 2,
		warmup: 500 * time.Millisecond, window: 3 * time.Second, kill: 16}
}

// senderCount is the number of sender transports: at most two, and no
// more than the host's CPUs.
func senderCount() int { return max(1, min(2, runtime.NumCPU())) }

// livePass is the outcome of one live session.
type livePass struct {
	setup, run          time.Duration
	cpu, windowCPU      time.Duration
	heapMB              float64 // mean live heap in the window, less the live heap before set-up
	offered, processed  uint64
	windowProcessed     uint64
	window              time.Duration
	detectSum           time.Duration
	detected, killed    int
	mistakes            int
	traceEvents         int
	deliver, lag        hist
	shard               liveshard.Stats
	queueMax            int
	framesSent, dropped uint64
	writes              uint64
	tr                  *tracer // merged, traced sessions only
}

// ingestSlot is the monitor-side state of one sender connection: latency
// samples and, when traced, that reader goroutine's tracer.
type ingestSlot struct {
	mu      sync.Mutex
	deliver hist
	tr      *tracer
}

// ingestHandler sits between the tcpnet monitor and the liveshard service.
// It times each heartbeat from its due instant (recomputed from the
// schedule: peer phase + (Seq-1)·interval) to its arrival here.
type ingestHandler struct {
	svc        *liveshard.Service
	senderBase ident.ID
	slots      []*ingestSlot
	phase      []time.Duration
	interval   time.Duration
	from, to   time.Duration // due instants whose latency is recorded
}

func (h *ingestHandler) Deliver(from ident.ID, payload any) {
	i := int(from - h.senderBase)
	if i < 0 || i >= len(h.slots) {
		h.svc.Deliver(from, payload)
		return
	}
	s := h.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tr != nil {
		s.tr.begin(spanTCPDeliver)
		defer s.tr.end()
	}
	if m, ok := payload.(heartbeat.Message); ok {
		due := h.phase[m.From] + time.Duration(m.Seq-1)*h.interval
		if due >= h.from && due < h.to {
			s.deliver.add(int64(h.svc.Now() - due))
		}
	}
	if s.tr != nil {
		s.tr.begin(spanShardDeliver)
		h.svc.Deliver(from, payload)
		s.tr.end()
		return
	}
	h.svc.Deliver(from, payload)
}

// liveDeploy is one live-ingest deployment: the sharded service behind a
// tcpnet monitor, and the sender transports that feed it.
type liveDeploy struct {
	sz        liveSize
	monitorID ident.ID
	ids       []ident.ID
	phase     []time.Duration // due instant of each peer's first heartbeat
	killed    ident.Set
	log       *trace.Log
	svc       *liveshard.Service
	h         *ingestHandler
	monitor   *tcpnet.Transport
	senders   []*tcpnet.Transport
}

// newLiveDeploy derives the schedule from seed and sets up the service and
// the transports. Traced deployments give every sender connection's
// reader a tracer.
func newLiveDeploy(sz liveSize, seed int64, traced bool, epoch time.Time) (*liveDeploy, error) {
	nSend := senderCount()
	d := &liveDeploy{sz: sz, monitorID: ident.ID(sz.peers), log: &trace.Log{}}
	senderBase := d.monitorID + 1
	timeout := 4 * sz.interval

	// Inputs: every peer's phase in the period and the kill cohort.
	gen := des.New(seed ^ 0x11fe).Rand()
	d.phase = make([]time.Duration, sz.peers)
	for i := range d.phase {
		d.phase[i] = time.Duration(gen.Int63n(int64(sz.interval)))
	}
	for d.killed.Len() < sz.kill {
		d.killed.Add(ident.ID(gen.Intn(sz.peers)))
	}

	// Queues on both sides hold a few heartbeat periods of traffic, so a
	// stall of the host shows as latency and backlog rather than as drops;
	// with the 4096-slot ingest queue cmd/fdload uses, one session in thirty
	// dropped heartbeats on a 2-vCPU VM whose hypervisor withheld the CPU.
	svc, err := liveshard.New(liveshard.Config{
		Self:         d.monitorID,
		Shards:       sz.shards,
		QueueLen:     3 * sz.peers / sz.shards, // three periods of one shard's arrivals
		ScanInterval: 10 * time.Millisecond,
		NewEstimator: func(_ ident.ID, now time.Duration) liveshard.PeerEstimator {
			return heartbeat.NewEstimator(timeout, now)
		},
		Sink: d.log,
	})
	if err != nil {
		return nil, err
	}
	d.svc = svc
	d.ids = make([]ident.ID, sz.peers)
	for i := range d.ids {
		d.ids[i] = ident.ID(i)
	}
	svc.AddPeers(d.ids...)
	svc.Start()

	// The schedule starts a little after set-up so the first due instants
	// are not already late; due instants are offsets on the service clock.
	begin := svc.Now() + 20*time.Millisecond
	for i := range d.phase {
		d.phase[i] += begin
	}
	d.h = &ingestHandler{
		svc: svc, senderBase: senderBase, phase: d.phase, interval: sz.interval,
		from: begin + sz.warmup, to: begin + sz.warmup + sz.window,
	}
	for i := 0; i < nSend; i++ {
		s := &ingestSlot{}
		if traced {
			s.tr = newTracer(epoch)
			s.tr.nextID = uint64(i+1) << 40
		}
		d.h.slots = append(d.h.slots, s)
	}
	d.monitor, err = tcpnet.New(tcpnet.Config{
		Self: d.monitorID, ListenAddr: "127.0.0.1:0", Handler: d.h, ConcurrentDeliver: true,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	chunk := (sz.peers + nSend - 1) / nSend
	for i := 0; i < nSend; i++ {
		tr, err := tcpnet.New(tcpnet.Config{
			Self: senderBase + ident.ID(i), ListenAddr: "127.0.0.1:0",
			Handler:   node.HandlerFunc(func(ident.ID, any) {}), // senders receive nothing
			SendQueue: 4 * chunk,                                // four periods of this sender's frames
		})
		if err != nil {
			d.close()
			return nil, err
		}
		tr.AddPeer(d.monitorID, d.monitor.Addr())
		d.senders = append(d.senders, tr)
	}
	return d, nil
}

// close stops every transport and the service, joining their goroutines.
func (d *liveDeploy) close() {
	for _, s := range d.senders {
		s.Close()
	}
	if d.monitor != nil {
		d.monitor.Close()
	}
	d.svc.Close()
}

// runLivePass runs one live session: set up the service and transports,
// drive the paced open-loop generator, kill a cohort mid-window, drain,
// and judge the trace.
func runLivePass(sz liveSize, seed int64, traced bool) (*livePass, error) {
	runtime.GC()
	base := readRuntime().heapLive
	p := &livePass{killed: sz.kill}
	nSend := senderCount()
	timeout := 4 * sz.interval
	t0 := time.Now()
	d, err := newLiveDeploy(sz, seed, traced, t0)
	if err != nil {
		return nil, err
	}
	defer d.close()
	p.setup = time.Since(t0)
	svc, h := d.svc, d.h
	chunk := (sz.peers + nSend - 1) / nSend
	runStart, runCPU := time.Now(), cpuTime()

	killAt := h.from + sz.window/2
	stopAt := h.to + timeout + 250*time.Millisecond
	var offered atomic.Uint64
	lags := make([]hist, nSend)
	genTr := make([]*tracer, nSend)
	var wg sync.WaitGroup
	for i := range d.senders {
		lo, hi := i*chunk, min((i+1)*chunk, sz.peers)
		if traced {
			genTr[i] = newTracer(t0)
			genTr[i].nextID = uint64(nSend+i+1) << 40
		}
		wg.Add(1)
		go func(i int, own []ident.ID) {
			defer wg.Done()
			d.generate(d.senders[i], own, killAt, stopAt, &lags[i], genTr[i], &offered)
		}(i, sortByPhase(d.ids[lo:hi], d.phase))
	}

	// Measured window: processed heartbeats and CPU between its edges; the
	// ingest backlog and the live heap are sampled every 10 ms.
	sleepUntil(svc, h.from)
	st0, cpu0, w0 := svc.Stats(), cpuTime(), time.Now()
	var heapSum, heapN float64
	for svc.Now() < h.to {
		time.Sleep(10 * time.Millisecond)
		p.queueMax = max(p.queueMax, svc.Stats().QueueLen)
		heapSum += readRuntime().heapLive
		heapN++
	}
	p.heapMB = (heapSum/heapN - base) / (1 << 20)
	st1, cpu1, w1 := svc.Stats(), cpuTime(), time.Now()
	p.windowProcessed = st1.Processed - st0.Processed
	p.windowCPU = cpu1 - cpu0
	p.window = w1.Sub(w0)

	wg.Wait()
	p.offered = offered.Load()
	// Drain: everything offered should reach the estimators; stop waiting
	// once ingestion makes no progress for 200 ms.
	last, idle := svc.Stats().Processed, time.Now()
	for last < p.offered && time.Since(idle) < 200*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if cur := svc.Stats().Processed; cur != last {
			last, idle = cur, time.Now()
		}
	}
	horizon := svc.Now()
	d.close()
	for _, s := range d.senders {
		st := s.Stats()
		p.framesSent += st.FramesSent
		p.dropped += st.FramesDropped
		p.writes += st.Writes
	}
	p.shard = svc.Stats()
	p.processed = p.shard.Processed

	truth := &qos.GroundTruth{}
	d.killed.ForEach(func(id ident.ID) bool {
		truth.Crash(id, killAt)
		return true
	})
	p.traceEvents = d.log.Len()
	judge := qos.JudgeFrom(d.log)
	observers := ident.SetOf(d.monitorID)
	d.killed.ForEach(func(id ident.ID) bool {
		ds := judge.DetectionTimes(truth, id, observers)
		p.detectSum += ds.Avg * time.Duration(ds.Count)
		p.detected += ds.Count
		return true
	})
	// Only the monitor observes, so a mistake can only sit on a (monitor,
	// subject) pair with a subject in the trace. Judging those pairs one at
	// a time counts the same episodes as one call over every peer, without
	// its O(peers²) pair scan.
	var subjects ident.Set
	for _, e := range d.log.Events() {
		subjects.Add(e.Subject)
	}
	pair := ident.SetOf(d.monitorID)
	subjects.ForEach(func(id ident.ID) bool {
		pair.Add(id)
		ms := judge.Mistakes(truth, pair, horizon)
		p.mistakes += ms.Count + ms.Unresolved
		pair.Remove(id)
		return true
	})
	p.run = time.Since(runStart)
	p.cpu = cpuTime() - runCPU

	for i := range lags {
		p.lag.merge(&lags[i])
	}
	for _, s := range h.slots {
		p.deliver.merge(&s.deliver)
	}
	if traced {
		p.tr = newTracer(t0)
		for i := range genTr {
			p.tr.merge(genTr[i])
			p.tr.merge(h.slots[i].tr)
		}
	}
	return p, nil
}

// sendTick is the shortest sleep of the generator: after it wakes it sends
// every heartbeat that has come due, so the schedule is kept to within a
// tick and a stall of the host changes how many heartbeats share a socket
// write far less than it would at microsecond sleeps.
const sendTick = time.Millisecond

// generate is one sender's open loop: each owned peer heartbeats at
// phase + k·interval regardless of how earlier sends went, so a stall
// delays every later heartbeat and shows as lag (send instant − due
// instant) and as latency measured from the due instant.
func (d *liveDeploy) generate(tr *tcpnet.Transport, own []ident.ID, killAt, stopAt time.Duration,
	lag *hist, tcr *tracer, offered *atomic.Uint64) {
	var sent uint64
	defer func() { offered.Add(sent) }()
	for k := 0; ; k++ {
		for _, id := range own {
			due := d.phase[id] + time.Duration(k)*d.sz.interval
			if due >= stopAt {
				return
			}
			if due >= killAt && d.killed.Has(id) {
				continue
			}
			now := d.svc.Now()
			if due > now {
				time.Sleep(max(due-now, sendTick))
				now = d.svc.Now()
			}
			lag.add(int64(now - due))
			msg := heartbeat.Message{From: id, Seq: uint64(k + 1)}
			if tcr != nil {
				tcr.begin(spanTCPSend)
				tr.Send(d.monitorID, msg)
				tcr.end()
			} else {
				tr.Send(d.monitorID, msg)
			}
			sent++
		}
	}
}

func sortByPhase(ids []ident.ID, phase []time.Duration) []ident.ID {
	out := append([]ident.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return phase[a] < phase[b] || (phase[a] == phase[b] && a < b)
	})
	return out
}

func sleepUntil(svc *liveshard.Service, at time.Duration) {
	if d := at - svc.Now(); d > 0 {
		time.Sleep(d)
	}
}

// runLive measures live-ingest: sessions repeat (untraced, or alternating
// untraced and traced) while another fits in the budget.
func runLive(sz liveSize, o options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	plain, traced, err := cycles(o, func(tr bool) (*livePass, error) {
		p, err := runLivePass(sz, o.seed, tr)
		if err != nil {
			return nil, err
		}
		if p.detected != p.killed {
			out.fail("session %d: %d of %d killed peers undetected", out.passes, p.killed-p.detected, p.killed)
		}
		if p.processed != p.offered {
			out.fail("session %d: %d of %d offered heartbeats not ingested", out.passes, p.offered-p.processed, p.offered)
		}
		out.attempted += int64(p.offered) + int64(p.killed)
		out.failed += int64(p.offered) - int64(min(p.processed, p.offered)) + int64(p.killed-p.detected)
		out.pass(p.run, p.cpu)
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	med := medOf[*livePass]
	v := out.values
	if !o.trace {
		setups := make([]float64, len(plain))
		for i, p := range plain {
			setups[i] = p.setup.Seconds()
		}
		setups, err := setupSamples(setups, func() error {
			d, err := newLiveDeploy(sz, o.seed, false, time.Now())
			if err == nil {
				d.close()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		v["setup_s"] = median(setups)
		v["detect_ms"] = med(plain, func(p *livePass) float64 {
			return float64(p.detectSum) / float64(max(p.detected, 1)) / 1e6
		})
		v["cpu_us_per_msg"] = med(plain, func(p *livePass) float64 {
			return p.windowCPU.Seconds() * 1e6 / float64(max(p.windowProcessed, 1))
		})
		return out, nil
	}

	v["run.wall_s"] = med(plain, func(p *livePass) float64 { return p.run.Seconds() })
	v["msgs.per_s"] = med(plain, func(p *livePass) float64 { return float64(p.windowProcessed) / p.window.Seconds() })
	v["heap.live_mb"] = med(plain, func(p *livePass) float64 { return p.heapMB })
	v["deliver.p50_ms"] = med(plain, func(p *livePass) float64 { return p.deliver.quantile(0.5) / 1e6 })
	v["deliver.p99_ms"] = med(plain, func(p *livePass) float64 { return p.deliver.quantile(0.99) / 1e6 })
	v["deliver.samples"] = med(plain, func(p *livePass) float64 { return float64(p.deliver.n) })
	v["loadgen.offered"] = med(plain, func(p *livePass) float64 { return float64(p.offered) })
	v["loadgen.lag_p99_ms"] = med(plain, func(p *livePass) float64 { return p.lag.quantile(0.99) / 1e6 })
	v["tcpnet.frames_sent"] = med(plain, func(p *livePass) float64 { return float64(p.framesSent) })
	v["tcpnet.frames_dropped"] = med(plain, func(p *livePass) float64 { return float64(p.dropped) })
	v["tcpnet.writes"] = med(plain, func(p *livePass) float64 { return float64(p.writes) })
	v["tcpnet.coalesce"] = med(plain, func(p *livePass) float64 { return float64(p.framesSent) / float64(max(p.writes, 1)) })
	v["liveshard.processed"] = med(plain, func(p *livePass) float64 { return float64(p.processed) })
	v["liveshard.dropped"] = med(plain, func(p *livePass) float64 { return float64(p.shard.Dropped()) })
	v["liveshard.useful_ratio"] = med(plain, func(p *livePass) float64 {
		return float64(p.processed) / float64(max(p.processed+p.shard.Dropped(), 1))
	})
	v["liveshard.queue_max"] = med(plain, func(p *livePass) float64 { return float64(p.queueMax) })
	v["liveshard.ingest_p50_us"] = med(plain, func(p *livePass) float64 { return float64(p.shard.IngestP50.Microseconds()) })
	v["liveshard.ingest_p99_us"] = med(plain, func(p *livePass) float64 { return float64(p.shard.IngestP99.Microseconds()) })
	v["trace.events"] = med(plain, func(p *livePass) float64 { return float64(p.traceEvents) })
	v["qos.mistakes"] = med(plain, func(p *livePass) float64 { return float64(p.mistakes) })
	v["tcpnet.send_ns"] = med(traced, func(p *livePass) float64 { return p.tr.meanNS(spanTCPSend) })
	v["tcpnet.send_max_ms"] = med(traced, func(p *livePass) float64 { return float64(p.tr.maxNS[spanTCPSend]) / 1e6 })
	v["liveshard.deliver_ns"] = med(traced, func(p *livePass) float64 { return p.tr.meanNS(spanShardDeliver) })
	runU := med(plain, func(p *livePass) float64 { return p.run.Seconds() })
	runT := med(traced, func(p *livePass) float64 { return p.run.Seconds() })
	v["tracing.untraced_run_s"] = runU
	v["tracing.run_s"] = runT
	v["tracing.overhead_s"] = runT - runU
	v["tracing.overhead_cpu_s"] = med(traced, func(p *livePass) float64 { return p.cpu.Seconds() }) -
		med(plain, func(p *livePass) float64 { return p.cpu.Seconds() })
	out.spans = traced[0].tr.samples
	return out, nil
}
