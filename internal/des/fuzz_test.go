package des

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// fuzz_test.go is the kernel-level half of the queue differential harness:
// a byte-coded script drives an identical workload of After/At/Stop timers,
// Post/Batch messages into a recording sink, and Step/RunUntil calls against
// a heap-backed and a ladder-backed simulator and asserts the two are
// observationally identical — same fire and delivery order (with each
// message's from, to and payload), same Now()/Steps()/Pending() at every
// checkpoint. The committed seed corpus (testdata/fuzz/FuzzQueueEquivalence)
// covers the regression-prone shapes: same-instant ties, stopped-head
// reaping, far-horizon timers and messages, and batch fan-outs. CI runs the
// target with a short -fuzztime budget on every push.

// scriptHarness interprets byte-coded op scripts against one simulator. The
// interpretation is fully deterministic in the script, so runs on different
// queues, or a replay after Restore, see byte-for-byte the same workload.
// Every event gets an id: a timer closes over its id, and a message carries
// it as its receiver (to), so the sink can tell deliveries apart.
type scriptHarness struct {
	s       *Simulator
	out     *[]string // swappable so a replay records into a fresh trace
	timers  []*Timer
	eventID int
}

// newScriptHarness binds the harness's recording sink to s.
func newScriptHarness(s *Simulator, out *[]string) *scriptHarness {
	h := &scriptHarness{s: s, out: out}
	s.BindSink(func(from, to int32, msg any) {
		h.fire(int(to), fmt.Sprintf("m%d>%d:%v", from, to, msg))
	})
	return h
}

func (h *scriptHarness) nextID() int {
	id := h.eventID
	h.eventID++
	return id
}

// timer returns the callback of the next timer.
func (h *scriptHarness) timer() func() {
	id := h.nextID()
	return func() { h.fire(id, fmt.Sprintf("t%d", id)) }
}

// post sends the next message d from now. Its sender and payload are
// derived from its id, so the trace checks both survive the kernel intact.
func (h *scriptHarness) post(d time.Duration) {
	id := h.nextID()
	h.s.Post(d, int32(id%13), int32(id), fmt.Sprintf("p%d", id))
}

// batch schedules a fan-out of one payload to one fresh id per delay.
func (h *scriptHarness) batch(delays []time.Duration) {
	hops := make([]Hop, len(delays))
	for j, d := range delays {
		hops[j] = Hop{D: d, To: int32(h.nextID())}
	}
	h.s.Batch(hops[0].To%13, fmt.Sprintf("b%d", hops[0].To), hops)
}

// fire records one fired timer or delivered message. A deterministic subset
// of events draws from the kernel RNG (the draw value lands in the trace,
// so a replay with a mis-positioned RNG stream diverges) and schedules
// nested work: a message for even ids, a timer for odd ones.
func (h *scriptHarness) fire(id int, what string) {
	line := fmt.Sprintf("%s@%d", what, h.s.Now())
	if id%3 == 0 {
		line += fmt.Sprintf("#%d", h.s.Rand().Int63n(1024))
	}
	*h.out = append(*h.out, line)
	if id%7 == 3 && h.eventID < 4096 {
		d := time.Duration(id%5) * time.Microsecond
		if id%2 == 0 {
			h.post(d)
		} else {
			h.s.After(d, h.timer())
		}
	}
}

func (h *scriptHarness) mark() {
	*h.out = append(*h.out, fmt.Sprintf("%d/%d/%d", h.s.Now(), h.s.Steps(), h.s.Pending()))
}

// interp runs data as an op stream.
func (h *scriptHarness) interp(data []byte) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	next16 := func() time.Duration {
		return time.Duration(int(next())<<8 | int(next()))
	}
	for pos < len(data) && h.eventID < 4096 {
		switch next() % 8 {
		case 0: // near-horizon message, µs scale: the dense common case
			h.post(next16() * time.Microsecond)
		case 1: // near-horizon timer
			h.s.After(next16()*time.Microsecond, h.timer())
		case 2: // absolute At, including already-passed instants (clamped)
			h.timers = append(h.timers, h.s.At(h.s.Now()+next16()*time.Microsecond-32*time.Millisecond, h.timer()))
		case 3: // far-horizon timer or message, up to ~18.6h (65535ms <<
			// 10): deep ladder top-list accumulation and epoch re-spawns
			d := next16() * time.Millisecond << (next() % 11)
			if h.eventID%2 == 0 {
				h.post(d)
			} else {
				h.s.After(d, h.timer())
			}
		case 4: // Stop a previously returned timer
			if len(h.timers) > 0 {
				h.timers[int(next())%len(h.timers)].Stop()
			}
		case 5:
			h.s.Step()
			h.mark()
		case 6:
			h.s.RunUntil(h.s.Now() + next16()*time.Microsecond)
			h.mark()
		case 7: // batch fan-out with same-instant and spread hops
			delays := make([]time.Duration, int(next())%6+2)
			for j := range delays {
				delays[j] = time.Duration(next()%8) * 500 * time.Microsecond
			}
			h.batch(delays)
		}
		if next()%4 == 0 { // sprinkle timers eligible for Stop
			h.timers = append(h.timers, h.s.After(next16()*time.Microsecond, h.timer()))
		}
	}
}

// drain steps the simulator dry (capped: the nested-scheduling rule is
// subcritical, but a fuzz harness should never be able to hang).
func (h *scriptHarness) drain() {
	for i := 0; i < 1_000_000 && h.s.Step(); i++ {
	}
	h.mark()
}

// queueScriptTrace is everything observable about one script run.
type queueScriptTrace struct {
	lines  []string // fires, deliveries and checkpoints, in order
	events uint64
	now    time.Duration
	pend   int
}

// runQueueScript interprets data against a fresh simulator on the given
// queue and drains it.
func runQueueScript(kind QueueKind, data []byte) queueScriptTrace {
	var tr queueScriptTrace
	h := newScriptHarness(New(1, WithQueue(kind)), &tr.lines)
	h.interp(data)
	h.drain()
	tr.events, tr.now, tr.pend = h.s.Steps(), h.s.Now(), h.s.Pending()
	return tr
}

// assertQueueTracesEqual fails t on the first observable divergence.
func assertQueueTracesEqual(t *testing.T, data []byte) {
	t.Helper()
	h := runQueueScript(QueueHeap, data)
	l := runQueueScript(QueueLadder, data)
	if h.events != l.events || h.now != l.now || h.pend != l.pend {
		t.Fatalf("final state diverged: heap steps=%d now=%v pending=%d, ladder steps=%d now=%v pending=%d",
			h.events, h.now, h.pend, l.events, l.now, l.pend)
	}
	if len(h.lines) != len(l.lines) {
		t.Fatalf("trace lengths diverged: heap %d, ladder %d", len(h.lines), len(l.lines))
	}
	for i := range h.lines {
		if h.lines[i] != l.lines[i] {
			t.Fatalf("trace diverged at %d (fire, delivery or now/steps/pending): heap %s, ladder %s", i, h.lines[i], l.lines[i])
		}
	}
}

// FuzzQueueEquivalence drives random interleavings of After/At/Stop/Post/
// Batch/Step/RunUntil against the heap and ladder queues and asserts
// identical observable behavior. Seeds mirror the committed corpus.
func FuzzQueueEquivalence(f *testing.F) {
	for _, seed := range queueScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		assertQueueTracesEqual(t, data)
	})
}

// queueScriptSeeds are hand-built op streams covering the shapes the queue
// swap is most likely to break on; they are also committed as the fuzz seed
// corpus under testdata/fuzz/FuzzQueueEquivalence.
func queueScriptSeeds() [][]byte {
	return [][]byte{
		// same-instant ties: a burst of zero-delay messages, timers and batches
		{0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 0, 3, 7, 4, 0, 0, 0, 0, 0, 0, 0, 0, 5, 1},
		// stopped-head reaping: schedule, stop, step
		{0, 1, 0, 0, 4, 0, 1, 4, 1, 1, 5, 2, 4, 0, 3, 5, 1, 6, 255, 255, 0},
		// far-horizon timers interleaved with near ones
		{3, 255, 255, 3, 0, 0, 16, 1, 3, 127, 0, 2, 6, 8, 0, 0, 3, 1, 1, 1, 5, 0},
		// batch fan-outs crossing RunUntil boundaries
		{7, 5, 0, 1, 2, 3, 4, 5, 6, 6, 16, 0, 0, 7, 3, 7, 7, 7, 1, 5, 0, 5, 0},
		// mixed soup exercising every opcode
		{0, 10, 0, 1, 2, 200, 10, 2, 3, 9, 9, 3, 1, 4, 0, 0, 5, 3, 6, 4, 4, 2,
			7, 2, 1, 2, 3, 0, 4, 250, 128, 1, 5, 2, 6, 0, 64, 3, 2, 2, 2},
	}
}

// TestQueueDifferential replays the seed corpus plus quick-generated random
// scripts without needing -fuzz, so `go test` alone exercises the kernel
// differential harness on every run.
func TestQueueDifferential(t *testing.T) {
	for i, seed := range queueScriptSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) { assertQueueTracesEqual(t, seed) })
	}
	f := func(data []byte) bool {
		h := runQueueScript(QueueHeap, data)
		l := runQueueScript(QueueLadder, data)
		return h.events == l.events && h.now == l.now && h.pend == l.pend &&
			strings.Join(h.lines, "\n") == strings.Join(l.lines, "\n")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
