package des

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// postpone_test.go pins Timer.Postpone to its contract: a re-arm by Postpone
// (falling back to Stop and After when it declines) is observationally
// identical to a re-arm by Stop and After — same fires in the same order at
// the same instants, same Now() and Steps() — on both queues, across
// Snapshot/Restore and Fork. Pending() is deliberately left out of the
// comparison: a postponed timer counts once, where Stop and After leave a
// stopped slot counted until it is reaped.

// postponeHarness interprets byte-coded re-arm scripts against one
// simulator. Each logical timer has one callback, built once, and a current
// handle; a re-arm either postpones that handle or stops it and arms the same
// callback anew, depending on the mode. A small reference model (live, due)
// predicts what a bare Postpone must report, so a declining or accepting
// kernel that disagrees with the contract shows up in the trace.
type postponeHarness struct {
	s        *Simulator
	postpone bool // re-arm with Postpone; otherwise always Stop and After
	nested   bool // callbacks re-arm timers (off for Fork, whose handles are the parent's)
	out      *[]string
	timers   []*Timer
	fns      []func()
	live     []bool          // model: armed and neither fired nor stopped
	due      []time.Duration // model: current deadline
	fires    []int
	arms     int
}

// maxArms bounds the arms and re-arms of one script, so no script can run
// away; maxRefires bounds how often one timer's callback re-arms timers.
const (
	maxArms    = 1024
	maxRefires = 3
)

func newPostponeHarness(s *Simulator, postpone bool, out *[]string) *postponeHarness {
	h := &postponeHarness{s: s, postpone: postpone, nested: true, out: out}
	s.BindSink(func(from, to int32, msg any) {
		*h.out = append(*h.out, fmt.Sprintf("m%d>%d:%v@%d", from, to, msg, h.s.Now()))
	})
	return h
}

// newTimer arms a fresh logical timer d from now.
func (h *postponeHarness) newTimer(d time.Duration) {
	k := len(h.timers)
	h.fns = append(h.fns, func() { h.fire(k) })
	h.timers = append(h.timers, nil)
	h.live = append(h.live, false)
	h.due = append(h.due, 0)
	h.fires = append(h.fires, 0)
	h.arms++
	h.arm(k, d)
}

// arm schedules timer k's callback d from now with After.
func (h *postponeHarness) arm(k int, d time.Duration) {
	h.timers[k] = h.s.After(d, h.fns[k])
	h.live[k], h.due[k] = true, h.s.Now()+max(d, 0)
}

// rearm moves timer k to d from now, the way node.Rearm does. Both modes
// count it as one arm, so the maxArms cut-off falls at the same point.
func (h *postponeHarness) rearm(k int, d time.Duration) {
	h.arms++
	if h.postpone && h.timers[k].Postpone(d) {
		h.live[k], h.due[k] = true, h.s.Now()+max(d, 0)
		return
	}
	h.timers[k].Stop()
	h.arm(k, d)
}

// tryPostpone is a bare Postpone of timer k. The reference mode applies the
// contract by hand: it succeeds exactly when the timer is pending and the new
// deadline is not earlier, and then acts as Stop and After.
func (h *postponeHarness) tryPostpone(k int, d time.Duration) {
	at := h.s.Now() + max(d, 0)
	var ok bool
	if h.postpone {
		ok = h.timers[k].Postpone(d)
	} else if ok = h.live[k] && at >= h.due[k]; ok {
		h.timers[k].Stop()
		h.timers[k] = h.s.After(d, h.fns[k])
	}
	if ok {
		h.due[k] = at
	}
	*h.out = append(*h.out, fmt.Sprintf("P%d:%v@%d", k, ok, h.s.Now()))
}

func (h *postponeHarness) stop(k int) {
	ok := h.timers[k].Stop()
	h.live[k] = false
	*h.out = append(*h.out, fmt.Sprintf("S%d:%v@%d", k, ok, h.s.Now()))
}

// fire records timer k firing. With nesting on, some callbacks re-arm their
// own (fired, so Postpone declines) timer or a neighbour's (often pending,
// possibly due at this very instant).
func (h *postponeHarness) fire(k int) {
	h.live[k] = false
	h.fires[k]++
	*h.out = append(*h.out, fmt.Sprintf("t%d@%d", k, h.s.Now()))
	if !h.nested || h.arms >= maxArms || h.fires[k] > maxRefires {
		return
	}
	d := time.Duration(k%5) * time.Microsecond
	switch k % 4 {
	case 1:
		h.rearm(k, d)
	case 2:
		h.rearm((k+1)%len(h.timers), d)
	}
}

func (h *postponeHarness) mark() {
	*h.out = append(*h.out, fmt.Sprintf("%d/%d", h.s.Now(), h.s.Steps()))
}

// interp runs data as an op stream.
func (h *postponeHarness) interp(data []byte) {
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
	pick := func() int { return int(next()) % len(h.timers) }
	for pos < len(data) && h.arms < maxArms {
		op := next() % 8
		if len(h.timers) == 0 && op >= 1 && op <= 4 {
			op = 0
		}
		switch op {
		case 0: // arm a fresh timer, µs scale
			h.newTimer(next16() * time.Microsecond)
		case 1: // re-arm, the heartbeat shape
			h.rearm(pick(), next16()*time.Microsecond)
		case 2: // re-arm to the current instant: a due-now timer, or a
			// later one that cannot move earlier in place
			h.rearm(pick(), time.Duration(next()%2)*time.Microsecond)
		case 3: // bare Postpone, often to an earlier deadline
			h.tryPostpone(pick(), next16()*time.Microsecond-32*time.Millisecond)
		case 4:
			h.stop(pick())
		case 5:
			h.s.Step()
			h.mark()
		case 6:
			h.s.RunUntil(h.s.Now() + next16()*time.Microsecond)
			h.mark()
		case 7: // queue traffic: a message, or a far-horizon timer that
			// makes the ladder re-spawn years
			d := next16() * time.Millisecond << (next() % 8)
			if next()%2 == 0 {
				h.s.Post(d, 1, int32(len(*h.out)), "m")
			} else {
				h.newTimer(d)
			}
		}
	}
}

func (h *postponeHarness) drain() {
	for i := 0; i < 1_000_000 && h.s.Step(); i++ {
	}
	h.mark()
}

// runPostponeScript interprets data against a fresh simulator and drains it.
func runPostponeScript(kind QueueKind, postpone bool, data []byte) string {
	var out []string
	h := newPostponeHarness(New(1, WithQueue(kind)), postpone, &out)
	h.interp(data)
	h.drain()
	return strings.Join(out, "\n")
}

// firstDiff renders the first differing line of two traces.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(la), len(lb))
}

// assertPostponeEquivalence checks the four runs of data — heap and ladder,
// Postpone and Stop+After — give one trace, then replays a Snapshot and a
// Fork taken after data[:cut] with postponed timers in flight.
func assertPostponeEquivalence(t *testing.T, cut int, data []byte) {
	t.Helper()
	ref := runPostponeScript(QueueHeap, false, data)
	for _, kind := range []QueueKind{QueueHeap, QueueLadder} {
		for _, postpone := range []bool{false, true} {
			if got := runPostponeScript(kind, postpone, data); got != ref {
				t.Fatalf("%v postpone=%v diverged from heap Stop+After: %s", kind, postpone, firstDiff(got, ref))
			}
		}
		assertPostponeSnapshot(t, kind, min(cut, len(data)), data)
	}
}

// assertPostponeSnapshot runs data[:cut] with Postpone, snapshots, diverges
// (reseed, far re-arms of every timer, a fresh timer, a full drain), restores
// and replays data[cut:]; the result must equal the run that never
// diverged. A Fork taken at the cut must then drain to its parent's schedule.
func assertPostponeSnapshot(t *testing.T, kind QueueKind, cut int, data []byte) {
	t.Helper()
	var want []string
	h := newPostponeHarness(New(1, WithQueue(kind)), true, &want)
	h.interp(data[:cut])
	h.interp(data[cut:])
	h.drain()

	var out []string
	h = newPostponeHarness(New(1, WithQueue(kind)), true, &out)
	h.interp(data[:cut])
	snap := h.s.Snapshot()
	saved := *h
	saved.timers = append([]*Timer(nil), h.timers...)
	saved.fns = append([]func(){}, h.fns...)
	saved.live = append([]bool(nil), h.live...)
	saved.due = append([]time.Duration(nil), h.due...)
	saved.fires = append([]int(nil), h.fires...)
	prefix := len(out)

	h.s.Reseed(42)
	for k := range h.timers { // far out, so every pending timer's key moves
		h.rearm(k, time.Hour+time.Duration(k)*time.Microsecond)
	}
	h.newTimer(time.Millisecond)
	h.drain()

	h.s.Restore(snap)
	*h = saved
	out = out[:prefix]
	h.interp(data[cut:])
	h.drain()
	if got, want := strings.Join(out, "\n"), strings.Join(want, "\n"); got != want {
		t.Fatalf("%v: replay after Restore diverged: %s", kind, firstDiff(got, want))
	}

	// Fork: the child's handles are the parent's, so nothing re-arms.
	out = nil
	h = newPostponeHarness(New(1, WithQueue(kind)), true, &out)
	h.interp(data[:cut])
	h.nested = false
	child := h.s.Fork()
	parent := h.s
	var childOut []string
	h.s, h.out = child, &childOut
	h.drain()
	var parentOut []string
	h.s, h.out = parent, &parentOut
	h.drain()
	if a, b := strings.Join(childOut, "\n"), strings.Join(parentOut, "\n"); a != b {
		t.Fatalf("%v: fork drained differently from its parent: %s", kind, firstDiff(a, b))
	}
}

// postponeScriptSeeds are hand-built scripts; each starts with its snapshot
// cut, placed where the first, second and fourth have postponed timers in
// flight. They are also committed as the seed corpus under
// testdata/fuzz/FuzzPostponeEquivalence.
func postponeScriptSeeds() [][]byte {
	return [][]byte{
		// heartbeat shape: timers re-armed over and over between steps
		{28, 0, 0, 100, 0, 0, 120, 1, 0, 0, 150, 5, 1, 1, 0, 200, 6, 0, 50, 1, 0, 1, 0, 10, 5, 1, 1, 0, 255, 6, 1, 0},
		// same-instant ties: due-now re-arms, stops and steps at one instant
		{15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 1, 0, 5, 2, 2, 1, 4, 1, 5, 2, 0, 1, 5, 5},
		// declines: bare Postpones earlier, after Stop and after fire
		{5, 0, 0, 10, 0, 0, 20, 3, 0, 0, 0, 4, 1, 3, 1, 255, 255, 5, 3, 0, 255, 255, 6, 255, 255, 3, 0, 200, 0},
		// far horizon: year re-spawns while postponed slots sit in rungs
		{20, 7, 0, 9, 3, 1, 7, 0, 1, 4, 0, 1, 0, 0, 50, 1, 2, 0, 60, 7, 0, 2, 2, 0, 1, 0, 255, 255, 6, 255, 255, 5, 6, 128, 0},
		// nested re-arms from callbacks amid messages
		{8, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 5, 7, 0, 0, 0, 0, 0, 1, 1, 0, 4, 6, 0, 9, 2, 3, 0, 6, 0, 20, 5, 5},
	}
}

// FuzzPostponeEquivalence drives random re-arm scripts (the first byte is
// the snapshot cut) and asserts Postpone and Stop+After are
// indistinguishable on both queues and across Snapshot/Restore and Fork.
func FuzzPostponeEquivalence(f *testing.F) {
	for _, seed := range postponeScriptSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		assertPostponeEquivalence(t, int(data[0]), data[1:])
	})
}

// TestPostponeMatchesStopAfter replays the seed corpus and random scripts
// without needing -fuzz, then pins the edge cases one by one.
func TestPostponeMatchesStopAfter(t *testing.T) {
	for i, seed := range postponeScriptSeeds() {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			assertPostponeEquivalence(t, int(seed[0]), seed[1:])
		})
	}
	t.Run("random", func(t *testing.T) {
		f := func(data []byte) bool {
			ref := runPostponeScript(QueueHeap, false, data)
			return runPostponeScript(QueueHeap, true, data) == ref &&
				runPostponeScript(QueueLadder, true, data) == ref &&
				runPostponeScript(QueueLadder, false, data) == ref
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
	for _, kind := range []QueueKind{QueueHeap, QueueLadder} {
		kind := kind
		t.Run(fmt.Sprint(kind, "/due-now"), func(t *testing.T) {
			// a and b are due at the current instant; postponing a by zero
			// sends it behind b and behind c, armed after the Postpone.
			for _, postpone := range []bool{false, true} {
				s := New(1, WithQueue(kind))
				var got []string
				rec := func(name string) func() { return func() { got = append(got, fmt.Sprint(name, "@", s.Now())) } }
				fa := rec("a")
				s.RunUntil(time.Millisecond)
				a := s.After(0, fa)
				s.After(0, rec("b"))
				if postpone {
					if !a.Postpone(0) {
						t.Fatal("Postpone of a due-now timer to now declined")
					}
				} else {
					a.Stop()
					s.After(0, fa)
				}
				s.After(0, rec("c"))
				s.Run()
				if want := "[b@1ms a@1ms c@1ms]"; fmt.Sprint(got) != want {
					t.Fatalf("postpone=%v: fired %v, want %s", postpone, got, want)
				}
			}
		})
		t.Run(fmt.Sprint(kind, "/takes-the-next-seq"), func(t *testing.T) {
			// a, postponed to 10ms, must fire before c, armed for 10ms
			// after the Postpone: a took the earlier sequence number.
			s := New(1, WithQueue(kind))
			var got []string
			a := s.After(5*time.Millisecond, func() { got = append(got, "a") })
			seq := s.seq
			if !a.Postpone(10*time.Millisecond) || s.seq != seq+1 {
				t.Fatalf("Postpone took seq %d→%d, want one sequence number", seq, s.seq)
			}
			s.After(10*time.Millisecond, func() { got = append(got, "c") })
			s.Run()
			if fmt.Sprint(got) != "[a c]" || s.Now() != 10*time.Millisecond {
				t.Fatalf("fired %v by %v, want [a c] at 10ms", got, s.Now())
			}
		})
		t.Run(fmt.Sprint(kind, "/declines"), func(t *testing.T) {
			s := New(1, WithQueue(kind))
			fired := 0
			a := s.After(10*time.Millisecond, func() { fired++ })
			if !a.Postpone(20 * time.Millisecond) {
				t.Fatal("Postpone to a later deadline declined")
			}
			seq, pend := s.seq, s.Pending()
			if a.Postpone(15 * time.Millisecond) {
				t.Fatal("Postpone to an earlier deadline succeeded")
			}
			if s.seq != seq || s.Pending() != pend {
				t.Fatalf("declined Postpone changed seq %d→%d or Pending %d→%d", seq, s.seq, pend, s.Pending())
			}
			if pend != 1 {
				t.Fatalf("Pending() = %d after Postpone, want 1 (a postponed timer counts once)", pend)
			}
			s.RunUntil(19 * time.Millisecond)
			if fired != 0 {
				t.Fatal("postponed timer fired at its old deadline")
			}
			s.RunUntil(20 * time.Millisecond)
			if fired != 1 || s.Steps() != 1 {
				t.Fatalf("fired %d times in %d steps by its new deadline, want once in one step", fired, s.Steps())
			}
			if a.Postpone(time.Millisecond) {
				t.Fatal("Postpone after fire succeeded")
			}
			b := s.After(time.Millisecond, func() { fired++ })
			b.Stop()
			if b.Postpone(time.Second) {
				t.Fatal("Postpone after Stop succeeded")
			}
			var nilTimer *Timer
			if nilTimer.Postpone(0) {
				t.Fatal("Postpone on a nil Timer succeeded")
			}
			s.Run()
			if fired != 1 {
				t.Fatalf("stopped timer fired (fired=%d)", fired)
			}
		})
		t.Run(fmt.Sprint(kind, "/stop-after-postpone"), func(t *testing.T) {
			s := New(1, WithQueue(kind))
			fired := false
			a := s.After(time.Millisecond, func() { fired = true })
			a.Postpone(time.Hour)
			if !a.Stop() {
				t.Fatal("Stop of a postponed timer reported it not pending")
			}
			s.Run()
			if fired || s.Pending() != 0 {
				t.Fatalf("stopped postponed timer: fired=%v pending=%d", fired, s.Pending())
			}
		})
	}
}

// TestLadderChurnAllocatesNothing pins the ladder's steady state: once a
// timer-churn workload has warmed the kernel — postponed timers, messages
// spread over several year re-spawns and child rungs — pushing and draining
// more of it allocates nothing.
func TestLadderChurnAllocatesNothing(t *testing.T) {
	s := New(1, WithQueue(QueueLadder))
	s.BindSink(func(int32, int32, any) {})
	timers := make([]*Timer, 512)
	for k := range timers {
		timers[k] = s.After(time.Duration(k+1)*time.Millisecond, func() {})
	}
	x := uint64(1)
	round := func() {
		for k, tm := range timers {
			x = x*6364136223846793005 + 1442695040888963407
			// Spread deadlines over several decades, with dense bursts that
			// overflow buckets into child rungs.
			d := time.Duration(x>>40) % (time.Duration(1+k%4) * time.Second)
			if k%8 == 0 {
				d = 500*time.Millisecond + time.Duration(x>>60)
			}
			s.Post(d, 0, int32(k), nil)
			// Past the round's window: the key queued a round ago surfaces
			// and is re-keyed, and the timer never fires.
			tm.Postpone(7 * time.Second)
		}
		s.RunUntil(s.Now() + 5*time.Second)
	}
	for i := 0; i < 20; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warmed ladder churn allocates %.1f times per round, want 0", allocs)
	}
}
