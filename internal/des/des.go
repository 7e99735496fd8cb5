// Package des is a deterministic discrete-event simulation kernel.
//
// It replaces the paper's simulator testbed: experiments run in virtual time
// (no real sleeps), driven by a single-threaded event loop with a seeded
// random source, so every run is exactly reproducible from its seed. The
// kernel executes two kinds of event in one (time, FIFO) order: timers
// (protocol timeouts, fault injectors), which are closures scheduled with
// After/At, and messages, which are plain (from, to, msg) records scheduled
// with Post/Batch and handed on firing to the simulator's one message sink
// (see BindSink) — the network layer that owns delivery.
//
// A pending timer can be moved to a later deadline in place with
// Timer.Postpone instead of Stop followed by After: the fire order is exactly
// the same, but the re-arm takes no new slab slot, allocates no handle and
// leaves no stopped slot behind for the queue to reap.
//
// The kernel is built for throughput: events live in a slab recycled through
// a free list (no per-event heap allocation in steady state), same-instant
// bursts drain through a FIFO ready bucket instead of churning the timing
// structure, message fan-outs can be scheduled as a single Batch node that
// occupies one queue slot however many deliveries it carries, and batch hop
// storage is recycled through a kernel-owned free pool, so steady-state
// messaging allocates nothing in the kernel. Far-horizon ordering itself is
// pluggable (queue.go): a calendar/ladder queue with amortized O(1)
// push/pop is the default, and the original binary heap is kept as the
// reference implementation a differential harness checks it against — see
// QueueKind, WithQueue and SetDefaultQueue.
package des

import (
	"cmp"
	"math/rand"
	"slices"
	"time"
)

// Compile-time checks: both queue implementations satisfy the interface.
var (
	_ eventQueue = (*heapQueue)(nil)
	_ eventQueue = (*ladderQueue)(nil)
)

// event is one kernel node: a timer closure, a single message, or a whole
// batch fan-out. Events live in the simulator's slab, addressed by index and
// recycled through a free list; gen invalidates stale Timer handles when a
// slot is reused. For batch nodes, (at, seq) always hold the key of the
// earliest unfired item. A message's data lives in the parallel msgs slab,
// not here, so the header stays small (64 B) for timer-heavy workloads.
//
// (at, seq) is the key the event is queued under. A postponed timer keeps
// it while queued — a queued key never changes — and its real, later key
// waits in the parallel keys slab until the slot surfaces at a queue head,
// where reapStoppedHeads re-keys and re-queues it.
type event struct {
	at        time.Duration
	seq       uint64
	fn        func() // timer callback; nil for messages
	gen       uint32
	stopped   bool
	msg       bool        // message or batch node: msgs[slot] holds its data
	postponed bool        // keys[slot] holds the timer's real key
	items     []batchItem // non-nil for batch fan-out nodes
	head      int         // next unfired batch item
}

// eventKey is a postponed timer's real (at, seq) key, kept in the keys slab.
type eventKey struct {
	at  time.Duration
	seq uint64
}

// message is the data of an in-flight message or batch node, kept in the
// msgs slab at its event's slot. A batch node reads to from its items.
type message struct {
	from, to int32
	msg      any
}

// batchItem is one pending hop of a batch node. It holds no pointers, so
// sorting a fan-out moves plain words and the pool pins nothing.
type batchItem struct {
	at  time.Duration
	to  int32
	idx int32 // position in the caller's slice; sort tiebreak for equal at
}

// Hop is one receiver of a batch fan-out (see Simulator.Batch).
type Hop struct {
	D  time.Duration // delay from now; negative delays clamp to zero
	To int32
}

// noEvent marks an empty slab reference.
const noEvent = int32(-1)

// Timer is a handle to a scheduled timer. Stop cancels it; Postpone moves it
// to a later deadline. Both act only while the timer is pending: once it has
// fired or been stopped, the handle is inert.
type Timer struct {
	s   *Simulator
	idx int32
	gen uint32
}

// Stop cancels the event if it has not run yet, reporting whether it was
// still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.s == nil {
		return false
	}
	e := &t.s.events[t.idx]
	if e.gen != t.gen || e.stopped {
		return false
	}
	e.stopped = true
	e.fn = nil // release captured state promptly
	return true
}

// Postpone moves a pending timer to d from now, reporting whether it did.
// Negative delays clamp to zero, as in After. The timer takes the sequence
// number an After call would take at this instant, so its (at, seq) key —
// and with it the fire order of everything in the kernel, including the
// seqs of later events — is exactly that of Stop followed by After with the
// same callback. Unlike that pair, Postpone keeps the timer's slot and
// handle: it allocates nothing and schedules nothing new.
//
// Postpone declines, returning false and changing nothing, when the timer
// has fired or been stopped, or when the new deadline is earlier than the
// current one (a move forward in the fire order cannot be done in place);
// callers then fall back to Stop and After.
func (t *Timer) Postpone(d time.Duration) bool {
	if t == nil || t.s == nil {
		return false
	}
	s := t.s
	e := &s.events[t.idx]
	if e.gen != t.gen || e.stopped {
		return false
	}
	at := s.now + max(d, 0)
	if at < s.now { // Duration overflow: After clamps it to now
		at = s.now
	}
	cur := e.at
	if e.postponed {
		cur = s.keys[t.idx].at
	}
	if at < cur {
		return false
	}
	if int(t.idx) >= len(s.keys) {
		s.keys = append(s.keys, make([]eventKey, len(s.events)-len(s.keys))...)
	}
	s.keys[t.idx] = eventKey{at: at, seq: s.seq}
	s.seq++
	e.postponed = true
	return true
}

// Simulator is the event loop. It is strictly single-threaded: all timer
// closures and message deliveries run on the goroutine that calls
// Step/Run/RunUntil, so simulated components need no locking.
type Simulator struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand      //fdlint:allow clonefields reconstructed from src's seed and draw count on Restore
	seed    int64           // seed of the current random stream (see Reseed)
	src     *countingSource // the stream itself, draw-counted for Snapshot
	halted  bool
	stepped uint64
	pending int // scheduled callbacks not yet run or reclaimed

	events []event // slab; all event storage, recycled via free
	free   []int32 // recycled slab slots
	// msgs holds message data by slab slot. It grows only when a message
	// lands in a slot beyond its end, so timer-only runs never allocate it.
	msgs []message
	// keys holds postponed timers' real keys by slab slot, grown like msgs
	// on the first Postpone into a slot beyond its end.
	keys []eventKey
	// sink delivers every fired message (see BindSink).
	sink func(from, to int32, msg any) //fdlint:allow clonefields immutable wiring, bound once (netsim.New) and shared by Fork

	// queue orders far-horizon events by (at, seq); pluggable — see
	// queue.go (binary-heap reference) and ladder.go (the default).
	queue     eventQueue
	queueKind QueueKind //fdlint:allow clonefields immutable config, fixed at construction

	// itemFree recycles the slices batch nodes carry their hops in, so
	// steady-state broadcast fan-outs reuse storage instead of allocating.
	//fdlint:allow clonefields recycling pool; restoreEvents rebuilds item storage in place
	itemFree [][]batchItem

	// fifo is the ready bucket: events scheduled for the current instant,
	// drained in seq (FIFO) order without touching the heap. Entries are
	// sorted by seq by construction.
	fifo     []int32
	fifoHead int

	// front holds at most one batch continuation whose key is the global
	// minimum (the currently draining same-instant fan-out), letting a
	// k-message burst run with zero heap operations after the first pop.
	front int32
}

// New returns a simulator whose random source is seeded with seed. Options
// tune kernel internals (e.g. WithQueue); event semantics and execution
// order are identical whatever the options, so runs stay reproducible from
// the seed alone.
func New(seed int64, opts ...Option) *Simulator {
	s := &Simulator{front: noEvent, queueKind: DefaultQueue()}
	s.setSource(seed)
	for _, o := range opts {
		o(s)
	}
	s.queue = newEventQueue(s.queueKind, s)
	return s
}

// Queue reports which timing-queue implementation this simulator runs on.
func (s *Simulator) Queue() QueueKind { return s.queueKind }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source. All simulated
// randomness must come from here to keep runs reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.stepped }

// Pending returns the number of timers and messages currently scheduled
// (including stopped-but-unreclaimed timers). A postponed timer counts once:
// where Stop followed by After leaves a stopped slot counted until the queue
// reaps it, plus the new one, Postpone moves the timer in place.
func (s *Simulator) Pending() int { return s.pending }

// BindSink makes sink the receiver of every message this simulator fires.
// A simulator has one sink for its lifetime: binding a second one panics.
func (s *Simulator) BindSink(sink func(from, to int32, msg any)) {
	if s.sink != nil {
		panic("des: a message sink is already bound to this simulator")
	}
	s.sink = sink
}

// HasSink reports whether a message sink is bound.
func (s *Simulator) HasSink() bool { return s.sink != nil }

// alloc takes a slab slot from the free list, growing the slab when empty.
func (s *Simulator) alloc() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.events = append(s.events, event{})
	return int32(len(s.events) - 1)
}

// release recycles a slab slot; the gen bump invalidates outstanding Timers.
// Batch item slices go back to the kernel-owned free pool, and a message's
// payload is dropped so the slot does not pin it.
func (s *Simulator) release(i int32) {
	e := &s.events[i]
	e.fn = nil
	if e.msg {
		s.msgs[i].msg = nil
		e.msg = false
	}
	if e.items != nil {
		s.itemFree = append(s.itemFree, e.items[:0])
		e.items = nil
	}
	e.head = 0
	e.stopped = false
	e.postponed = false
	e.gen++
	s.free = append(s.free, i)
}

// setMessage marks slot i as a message event holding m, growing the msgs
// slab to the event slab's length when i lies beyond its end.
func (s *Simulator) setMessage(i int32, m message) {
	if int(i) >= len(s.msgs) {
		s.msgs = append(s.msgs, make([]message, len(s.events)-len(s.msgs))...)
	}
	s.msgs[i] = m
	s.events[i].msg = true
}

// needSink panics when a message is scheduled with no sink to fire it into,
// so the mistake surfaces at the call that made it rather than inside Step.
func (s *Simulator) needSink() {
	if s.sink == nil {
		panic("des: message scheduled with no sink bound (see BindSink)")
	}
}

// takeItems pops a batch item slice of length n from the free pool, falling
// back to allocation when the pool is empty or its top entry is too small.
func (s *Simulator) takeItems(n int) []batchItem {
	if k := len(s.itemFree); k > 0 {
		b := s.itemFree[k-1]
		s.itemFree = s.itemFree[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]batchItem, n)
}

// After schedules fn to run d from now. Negative delays are clamped to zero:
// the event runs at the current instant, after already-queued events for
// that instant.
func (s *Simulator) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Simulator) At(t time.Duration, fn func()) *Timer {
	i := s.schedule(t)
	s.events[i].fn = fn
	return &Timer{s: s, idx: i, gen: s.events[i].gen}
}

// schedule takes a slab slot keyed (t clamped to now, next seq) and queues
// it: same-instant events join the ready bucket, later ones the timing queue.
func (s *Simulator) schedule(t time.Duration) int32 {
	if t < s.now {
		t = s.now
	}
	i := s.alloc()
	e := &s.events[i]
	e.at, e.seq = t, s.seq
	s.seq++
	s.pending++
	if t == s.now {
		s.fifo = append(s.fifo, i) // seq is monotonic, so fifo stays sorted
	} else {
		s.queue.push(i)
	}
	return i
}

// Post schedules msg from → to to reach the sink d from now, in the slot,
// sequence and queue position an After call would take. Messages are never
// cancelled, so Post returns no handle. It panics if no sink is bound.
func (s *Simulator) Post(d time.Duration, from, to int32, msg any) {
	s.needSink()
	// A negative or overflowing delay lands before now, and schedule clamps
	// it to now, exactly as After does.
	s.setMessage(s.schedule(s.now+d), message{from: from, to: to, msg: msg})
}

// Batch schedules one message fan-out — msg from from to every hop's
// receiver after that hop's delay — as a single kernel node. The node is
// kept sorted by fire time and always carries the key of its earliest
// unfired hop, so a k-receiver broadcast costs one slab slot and at most
// one heap insertion per distinct fire time instead of k, and same-instant
// bursts drain through the ready bucket with no heap traffic at all. Fire
// order is exactly that of k individual Post calls issued in slice order.
// The kernel takes ownership of nothing: hops is read synchronously and may
// be reused by the caller. It panics if no sink is bound.
func (s *Simulator) Batch(from int32, msg any, hops []Hop) {
	s.needSink()
	if len(hops) == 0 {
		return
	}
	bs := s.takeItems(len(hops))
	for k, h := range hops {
		// Negative and overflowing delays land before now: clamp, as Post.
		bs[k] = batchItem{at: max(s.now, s.now+h.D), to: h.To, idx: int32(k)}
	}
	// Sorting by (at, idx) — a total order, since idx is the item's position
	// in the caller's slice — yields exactly the stable-by-at permutation:
	// equal fire times keep slice order, which combined with the block of
	// consecutive seqs preserves Post-by-Post FIFO semantics. The explicit
	// tiebreak lets this use the unstable pdqsort; a k-receiver broadcast
	// sorts k items on every send, and first the reflection-based
	// sort.SliceStable and then symMerge were top entries in large-n sweep
	// profiles.
	slices.SortFunc(bs, func(a, b batchItem) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	i := s.alloc()
	e := &s.events[i]
	e.at, e.seq = bs[0].at, s.seq
	e.items, e.head = bs, 0
	s.seq += uint64(len(bs))
	s.pending += len(bs)
	s.setMessage(i, message{from: from, msg: msg})
	if e.at == s.now {
		s.fifo = append(s.fifo, i)
	} else {
		s.queue.push(i)
	}
}

// less orders slab indices by (at, seq); seqs are unique so there are no ties.
func (s *Simulator) less(i, j int32) bool {
	a, b := &s.events[i], &s.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) fifoPeek() int32 {
	if s.fifoHead >= len(s.fifo) {
		return noEvent
	}
	return s.fifo[s.fifoHead]
}

func (s *Simulator) fifoPop() int32 {
	i := s.fifo[s.fifoHead]
	s.fifoHead++
	if s.fifoHead == len(s.fifo) {
		s.fifo = s.fifo[:0]
		s.fifoHead = 0
	}
	return i
}

// reapStoppedHeads reclaims stopped events sitting at the head of the fifo
// bucket or the timing queue, and re-keys postponed ones there, so pop and
// peek always see a live minimum under its real key. Like a reap, a re-key
// is not a Step.
func (s *Simulator) reapStoppedHeads() {
	for f := s.fifoPeek(); f != noEvent && !s.settled(f); f = s.fifoPeek() {
		s.retire(s.fifoPop())
	}
	s.queue.reap()
}

// settled reports whether queued slot i is live under its real key: neither
// stopped nor postponed.
func (s *Simulator) settled(i int32) bool {
	e := &s.events[i]
	return !e.stopped && !e.postponed
}

// retire deals with unsettled slot i, just taken off a queue head: a stopped
// event is released, a postponed timer re-queued under its real key.
func (s *Simulator) retire(i int32) {
	if s.events[i].stopped {
		s.pending--
		s.release(i)
		return
	}
	s.requeue(i)
}

// requeue gives postponed slot i its real key and queues it again. A
// postponed key is never earlier than the queued one, so the slot surfaces
// at a head no later than its real key would. A same-instant slot joins the
// ready bucket at its seq's position, since other events may have joined it
// since the Postpone.
func (s *Simulator) requeue(i int32) {
	e := &s.events[i]
	k := s.keys[i]
	e.at, e.seq, e.postponed = k.at, k.seq, false
	if e.at != s.now {
		s.queue.push(i)
		return
	}
	live := s.fifo[s.fifoHead:]
	pos, _ := slices.BinarySearchFunc(live, e.seq, func(j int32, seq uint64) int {
		return cmp.Compare(s.events[j].seq, seq)
	})
	s.fifo = slices.Insert(s.fifo, s.fifoHead+pos, i)
}

// popMin removes and returns the live event with the smallest (at, seq) key,
// or noEvent. The front slot, when occupied, is always the global minimum.
func (s *Simulator) popMin() int32 {
	if s.front != noEvent {
		i := s.front
		s.front = noEvent
		return i
	}
	s.reapStoppedHeads()
	f := s.fifoPeek()
	q := s.queue.peekMin()
	if q == noEvent {
		if f == noEvent {
			return noEvent
		}
		return s.fifoPop()
	}
	if f != noEvent && s.less(f, q) {
		return s.fifoPop()
	}
	return s.queue.popMin()
}

// peekAt reports the fire time of the earliest live event.
func (s *Simulator) peekAt() (time.Duration, bool) {
	if s.front != noEvent {
		return s.events[s.front].at, true
	}
	s.reapStoppedHeads()
	best := s.fifoPeek()
	if q := s.queue.peekMin(); q != noEvent && (best == noEvent || s.less(q, best)) {
		best = q
	}
	if best == noEvent {
		return 0, false
	}
	return s.events[best].at, true
}

// Step executes the next pending event, advancing virtual time. It returns
// false when no events remain or the simulator has been halted.
func (s *Simulator) Step() bool {
	if s.halted {
		return false
	}
	i := s.popMin()
	if i == noEvent {
		return false
	}
	e := &s.events[i]
	s.stepped++
	s.pending--
	if e.items != nil {
		// Batch node: fire the current hop, then re-key the node at its
		// next hop. A same-instant successor parks in the front slot (it
		// remains the global minimum), skipping the heap entirely.
		it := e.items[e.head]
		e.head++
		s.now = it.at
		m := s.msgs[i]
		if e.head < len(e.items) {
			e.at = e.items[e.head].at
			e.seq++
			if e.at == s.now && s.front == noEvent {
				s.front = i
			} else {
				s.queue.push(i)
			}
		} else {
			s.release(i)
		}
		s.sink(m.from, it.to, m.msg)
		return true
	}
	s.now = e.at
	if e.msg {
		m := s.msgs[i]
		s.release(i)
		s.sink(m.from, m.to, m.msg)
		return true
	}
	fn := e.fn
	s.release(i) // consume first: a later Timer.Stop reports false
	fn()
	return true
}

// Run executes events until none remain or Halt is called.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// t. Events scheduled exactly at t do run.
func (s *Simulator) RunUntil(t time.Duration) {
	for !s.halted {
		at, ok := s.peekAt()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
}

// Halt stops the event loop; Step/Run/RunUntil return immediately afterward.
// Pending events are kept but will not run unless Resume is called.
func (s *Simulator) Halt() { s.halted = true }

// Resume clears a previous Halt.
func (s *Simulator) Resume() { s.halted = false }

// Halted reports whether the simulator is halted.
func (s *Simulator) Halted() bool { return s.halted }
