package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"asyncfd/internal/core"
	"asyncfd/internal/des"
	"asyncfd/internal/fd"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/ident"
	"asyncfd/internal/netsim"
	"asyncfd/internal/node"
	"asyncfd/internal/qos"
	"asyncfd/internal/topology"
	"asyncfd/internal/trace"
	"asyncfd/internal/wire"
)

// linkDelay is every simulated link: 1 ms + Exp(5 ms), capped at 100 ms so
// virtual runs stay finite.
var linkDelay = netsim.Exponential{Min: time.Millisecond, Mean: 5 * time.Millisecond, Cap: 100 * time.Millisecond}

// pendingSlice is the virtual-time step between RunUntil calls; the kernel's
// pending-event count is sampled between slices, never from inside an event.
const pendingSlice = time.Second

// simSize fixes one sim workload's scale. The benchmark runs the full size;
// the smoke test runs a tiny one through the same code.
type simSize struct {
	n       int
	horizon time.Duration
	movers  int // qr-manet relocations
	crashes int
}

// simWorkload builds one simulated deployment from a seed.
type simWorkload struct {
	name  string
	size  simSize
	build func(c *simCluster, gen *rand.Rand) error
}

func simWorkloads(tiny bool) map[string]*simWorkload {
	pick := func(full, small simSize) simSize {
		if tiny {
			return small
		}
		return full
	}
	return map[string]*simWorkload{
		"qr-mesh": {name: "qr-mesh", build: buildQRMesh,
			size: pick(simSize{n: 64, horizon: 300 * time.Second, crashes: 4}, simSize{n: 8, horizon: 20 * time.Second, crashes: 1})},
		"qr-manet": {name: "qr-manet", build: buildQRManet,
			size: pick(simSize{n: 256, horizon: 120 * time.Second, movers: 8, crashes: 4}, simSize{n: 64, horizon: 60 * time.Second, movers: 2, crashes: 1})},
		"hb-manet": {name: "hb-manet", build: buildHBManet,
			size: pick(simSize{n: 4096, horizon: 60 * time.Second, crashes: 64}, simSize{n: 128, horizon: 30 * time.Second, crashes: 2})},
	}
}

// crashPlan is one crash and the correct processes that must detect it.
type crashPlan struct {
	id        ident.ID
	at        time.Duration
	observers ident.Set
}

// simCluster is one pass's deployment. With a non-nil tracer every call
// into a layer goes through a timing wrapper; without one the layers are
// wired exactly as a user would wire them.
type simCluster struct {
	size    simSize
	sim     *des.Simulator
	net     *netsim.Network
	log     *trace.Log
	sink    fd.SuspicionSink
	tr      *tracer
	delays  *hist
	members ident.Set
	truth   *qos.GroundTruth
	crashes []crashPlan
	cores   []*core.Node
	topo    time.Duration // topology.* construction time
}

func newSimCluster(size simSize, seed int64, tr *tracer) *simCluster {
	c := &simCluster{
		size:    size,
		sim:     des.New(seed),
		log:     &trace.Log{},
		tr:      tr,
		delays:  &hist{},
		members: ident.FullSet(size.n),
		truth:   &qos.GroundTruth{},
	}
	cfg := netsim.Config{Delay: delayRecorder{linkDelay, c.delays}, SizeOf: wire.Size}
	c.sink = c.log
	if tr != nil {
		cfg.SizeOf = func(p any) int {
			tr.begin(spanWireSize)
			n := wire.Size(p)
			tr.end()
			return n
		}
		c.sink = tracedSink{c.log, tr}
	}
	c.net = netsim.New(c.sim, cfg)
	return c
}

// delayRecorder records every link delay netsim draws: the virtual
// send-to-handler latency of each admitted message.
type delayRecorder struct {
	netsim.DelayModel
	h *hist
}

func (d delayRecorder) Delay(r *rand.Rand, from, to ident.ID, now time.Duration) time.Duration {
	v := d.DelayModel.Delay(r, from, to, now)
	d.h.add(int64(v))
	return v
}

// handlerCell breaks the env↔node construction cycle.
type handlerCell struct{ h node.Handler }

func (c *handlerCell) Deliver(from ident.ID, payload any) { c.h.Deliver(from, payload) }

// runner is what both detector runtimes offer the harness.
type runner interface {
	node.Handler
	Start()
}

// addNode registers id, builds its detector on the (possibly traced) env and
// schedules its start at a uniformly random phase in [0, jitter).
func (c *simCluster) addNode(id ident.ID, deliverSpan, timerSpan spanKind, jitter time.Duration,
	mk func(env node.Env) (runner, error)) (runner, error) {
	cell := &handlerCell{}
	var env node.Env = c.net.AddNode(id, cell)
	if c.tr != nil {
		env = &tracedEnv{Env: env, tr: c.tr, timer: timerSpan, net: c.net}
	}
	r, err := mk(env)
	if err != nil {
		return nil, err
	}
	cell.h = r
	start := r.Start
	if c.tr != nil {
		cell.h = tracedHandler{r, c.tr, deliverSpan}
		start = func() { c.tr.begin(timerSpan); r.Start(); c.tr.end() }
	}
	c.sim.At(time.Duration(c.sim.Rand().Int63n(int64(jitter))), start)
	return r, nil
}

func (c *simCluster) crashAt(id ident.ID, at time.Duration, observers ident.Set) {
	c.truth.Crash(id, at)
	c.crashes = append(c.crashes, crashPlan{id: id, at: at, observers: observers})
	c.sim.At(at, func() { c.net.Crash(id) })
}

// buildQRMesh: the DSN 2003 detector, known membership, full mesh;
// size.crashes processes crash from mid-horizon on, observed by every
// correct process.
func buildQRMesh(c *simCluster, gen *rand.Rand) error {
	n := c.size.n
	f := (n - 1) / 2
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		r, err := c.addNode(id, spanCoreDeliver, spanCoreTimer, time.Second, func(env node.Env) (runner, error) {
			return core.NewNode(env, core.NodeConfig{
				Detector: core.Config{Self: id, Membership: core.KnownMembership, N: n, F: f},
				Window:   100 * time.Millisecond,
				Interval: 400 * time.Millisecond,
				Sink:     c.sink,
			})
		})
		if err != nil {
			return err
		}
		c.cores = append(c.cores, r.(*core.Node))
	}
	var victims ident.Set
	for victims.Len() < c.size.crashes {
		victims.Add(ident.ID(gen.Intn(n)))
	}
	c.crashAll(victims)
	return nil
}

// crashAll crashes victims one after another from mid-horizon, spaced a
// quarter-horizon apart in total; every process that stays correct must
// detect every one of them.
func (c *simCluster) crashAll(victims ident.Set) {
	if victims.Empty() {
		return
	}
	obs := c.members.Clone()
	obs.Subtract(victims)
	step := c.size.horizon / time.Duration(4*victims.Len())
	at := c.size.horizon / 2
	victims.ForEach(func(v ident.ID) bool {
		c.crashAt(v, at, obs)
		at += step
		return true
	})
}

// buildQRManet: the same detector with unknown membership and mobility on
// a circulant C_n(1..3) (range density 7). size.movers nodes relocate across
// the ring in staggered windows; size.crashes nodes crash from mid-horizon
// on and every correct process, however many hops away, must detect them.
func buildQRManet(c *simCluster, gen *rand.Rand) error {
	const k, f = 3, 2
	n := c.size.n
	t0 := time.Now()
	g := topology.Circulant(n, k)
	c.topo = time.Since(t0)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		r, err := c.addNode(id, spanCoreDeliver, spanCoreTimer, time.Second, func(env node.Env) (runner, error) {
			return core.NewNode(env, core.NodeConfig{
				Detector:    core.Config{Self: id, Membership: core.UnknownMembership, F: f, D: 2*k + 1, Mobility: true},
				Window:      250 * time.Millisecond,
				Interval:    250 * time.Millisecond,
				Rebroadcast: time.Second,
				Sink:        c.sink,
			})
		})
		if err != nil {
			return err
		}
		c.net.SetNeighbors(id, g.Neighbors(id))
		c.cores = append(c.cores, r.(*core.Node))
	}
	// Movers sit `spacing` apart from a random offset; each reattaches to
	// 2k consecutive nodes across the ring, halfway between two other
	// movers, so no neighborhood loses more than one member. Victims sit a
	// quarter-spacing past every other mover, clear of every moved range.
	spacing := n / c.size.movers
	at := func(x int) ident.ID { return ident.ID(((x % n) + n) % n) }
	origin := gen.Intn(n)
	for j := 0; j < c.size.movers; j++ {
		mover := at(origin + j*spacing)
		center := origin + j*spacing + n/2 + spacing/2
		var dest ident.Set
		for x := center - k; x < center+k; x++ {
			dest.Add(at(x))
		}
		away := 10*time.Second + time.Duration(j)*4*time.Second + time.Duration(gen.Int63n(int64(time.Second)))
		c.sim.At(away, func() { c.relink(mover, ident.Set{}) })
		c.sim.At(away+5*time.Second, func() { c.relink(mover, dest) })
	}
	var victims ident.Set
	for m := 0; m < c.size.crashes; m++ {
		victims.Add(at(origin + spacing/4 + 2*m*spacing))
	}
	c.crashAll(victims)
	return nil
}

// relink moves id to a new neighborhood (both directions) through
// netsim.SetNeighbors; an empty set detaches it.
func (c *simCluster) relink(id ident.ID, to ident.Set) {
	c.net.Neighbors(id).ForEach(func(o ident.ID) bool {
		nb := c.net.Neighbors(o)
		nb.Remove(id)
		c.net.SetNeighbors(o, nb)
		return true
	})
	to.ForEach(func(o ident.ID) bool {
		nb := c.net.Neighbors(o)
		nb.Add(id)
		c.net.SetNeighbors(o, nb)
		return true
	})
	c.net.SetNeighbors(id, to)
}

// buildHBManet: neighbor-local heartbeat (Δ=1s, Θ=2s) on a random
// geometric graph in the unit square with expected degree 8. size.crashes
// processes crash at random instants around mid-horizon; each must be
// detected by its correct graph neighbors.
func buildHBManet(c *simCluster, gen *rand.Rand) error {
	n := c.size.n
	radius := math.Sqrt(8 / (math.Pi * float64(n)))
	t0 := time.Now()
	g := topology.RandomGeometric(gen, n, 1, 1, radius)
	c.topo = time.Since(t0)
	for i := 0; i < n; i++ {
		id := ident.ID(i)
		peers := g.Neighbors(id)
		if _, err := c.addNode(id, spanHBDeliver, spanHBTimer, time.Second, func(env node.Env) (runner, error) {
			return heartbeat.NewNode(env, heartbeat.Config{
				Self: id, Peers: peers, Interval: time.Second, Timeout: 2 * time.Second, Sink: c.sink,
			})
		}); err != nil {
			return err
		}
		c.net.SetNeighbors(id, peers)
	}
	var victims ident.Set
	for victims.Len() < c.size.crashes {
		if v := ident.ID(gen.Intn(n)); g.Degree(v) > 0 {
			victims.Add(v)
		}
	}
	mid := c.size.horizon / 2
	victims.ForEach(func(v ident.ID) bool {
		obs := g.Neighbors(v)
		obs.Subtract(victims)
		at := mid - 5*time.Second + time.Duration(gen.Int63n(int64(10*time.Second)))
		c.crashAt(v, at, obs)
		return true
	})
	return nil
}

// simPass is the outcome of one build-run-judge cycle.
type simPass struct {
	setup, topo, nodes, run time.Duration
	cpu                     time.Duration
	heapMB                  float64 // mean live heap during the run, less the live heap before set-up
	allocs, allocBytes      float64
	gcCPU                   float64
	pendingMax              int
	events                  uint64
	net                     netsim.Stats
	detectSum               time.Duration
	detected, expected      int
	mistakes                int
	traceEvents             int
	rounds                  uint64
	deliverP50, deliverP99  float64 // virtual ms
	delaySamples            uint64
	tr                      *tracer
}

// signature is everything about a pass that must repeat exactly for one
// seed: the benchmark's determinism check.
func (p *simPass) signature() string {
	return fmt.Sprintf("events=%d sent=%d delivered=%d dropped=%d bytes=%d detect=%d/%d/%v mistakes=%d transitions=%d rounds=%d",
		p.events, p.net.Sent, p.net.Delivered, p.net.Dropped, p.net.Bytes,
		p.detected, p.expected, p.detectSum, p.mistakes, p.traceEvents, p.rounds)
}

func (p *simPass) detectMS() float64 {
	if p.detected == 0 {
		return 0
	}
	return float64(p.detectSum) / float64(p.detected) / 1e6
}

// buildSim builds the workload's deployment from seed. The input
// generator and the kernel draw from separate streams, both derived from
// seed.
func buildSim(w *simWorkload, seed int64, tr *tracer) (*simCluster, error) {
	c := newSimCluster(w.size, seed, tr)
	if err := w.build(c, des.New(seed^0x5eed).Rand()); err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	return c, nil
}

// runSimPass builds the workload from seed, runs it to the horizon and
// judges the trace.
func runSimPass(w *simWorkload, seed int64, traced bool) (*simPass, error) {
	runtime.GC()
	base := readRuntime().heapLive
	p := &simPass{}
	if traced {
		p.tr = newTracer(time.Now())
	}
	t0 := time.Now()
	c, err := buildSim(w, seed, p.tr)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(t0)
	p.topo, p.nodes = c.topo, p.setup-c.topo

	a0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	if p.tr != nil {
		p.tr.begin(spanRun)
	}
	var heapSum, heapN float64
	for t := pendingSlice; ; t += pendingSlice {
		c.sim.RunUntil(min(t, w.size.horizon))
		p.pendingMax = max(p.pendingMax, c.sim.Pending())
		heapSum += readRuntime().heapLive
		heapN++
		if t >= w.size.horizon {
			break
		}
	}
	if p.tr != nil {
		p.tr.end()
	}
	a1 := readRuntime()

	if p.tr != nil {
		p.tr.begin(spanQosIngest)
	}
	judge := qos.JudgeFrom(c.log)
	if p.tr != nil {
		p.tr.end()
		p.tr.begin(spanQosFinalize)
	}
	for _, cr := range c.crashes {
		ds := judge.DetectionTimes(c.truth, cr.id, cr.observers)
		p.detectSum += ds.Avg * time.Duration(ds.Count)
		p.detected += ds.Count
		p.expected += cr.observers.Len()
	}
	ms := judge.Mistakes(c.truth, c.members, w.size.horizon)
	if p.tr != nil {
		p.tr.end()
	}
	p.run = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.mistakes = ms.Count + ms.Unresolved

	p.events = c.sim.Steps()
	p.net = c.net.Stats()
	p.traceEvents = c.log.Len()
	for _, nd := range c.cores {
		p.rounds += nd.Rounds()
	}
	p.deliverP50 = c.delays.quantile(0.50) / 1e6
	p.deliverP99 = c.delays.quantile(0.99) / 1e6
	p.delaySamples = c.delays.n
	p.allocs = a1.objects - a0.objects
	p.allocBytes = a1.bytes - a0.bytes

	p.heapMB = (heapSum/heapN - base) / (1 << 20)
	runtime.GC() // the runtime's GC CPU estimate is brought up to date at the end of a cycle
	p.gcCPU = readRuntime().gcCPU - a0.gcCPU
	return p, nil
}

// tracedEnv wraps a node's netsim environment: Send, Broadcast and After
// become spans, and every timer callback becomes a span of the detector's
// layer.
type tracedEnv struct {
	node.Env
	tr    *tracer
	timer spanKind
	net   *netsim.Network // counts the messages each Broadcast fans out
}

func (e *tracedEnv) Send(to ident.ID, payload any) {
	e.tr.begin(spanSend)
	e.Env.Send(to, payload)
	e.tr.end()
}

func (e *tracedEnv) Broadcast(payload any) {
	sent := e.net.Stats().Sent
	e.tr.begin(spanBroadcast)
	e.Env.Broadcast(payload)
	e.tr.end()
	e.tr.fanout += e.net.Stats().Sent - sent
}

func (e *tracedEnv) After(d time.Duration, fn func()) node.Timer {
	tr, kind := e.tr, e.timer
	tr.begin(spanSchedule)
	t := e.Env.After(d, func() { tr.begin(kind); fn(); tr.end() })
	tr.end()
	return t
}

type tracedHandler struct {
	h    node.Handler
	tr   *tracer
	kind spanKind
}

func (h tracedHandler) Deliver(from ident.ID, payload any) {
	h.tr.begin(h.kind)
	h.h.Deliver(from, payload)
	h.tr.end()
}

type tracedSink struct {
	inner fd.SuspicionSink
	tr    *tracer
}

func (s tracedSink) OnSuspicion(at time.Duration, observer, subject ident.ID, suspected bool) {
	s.tr.begin(spanTraceAppend)
	s.inner.OnSuspicion(at, observer, subject, suspected)
	s.tr.end()
}
