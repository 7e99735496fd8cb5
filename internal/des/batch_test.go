package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// delivery is one message as the kernel handed it to the sink.
type delivery struct {
	from, to int32
	msg      any
	at       time.Duration
}

func (d delivery) String() string { return fmt.Sprintf("%d>%d:%v@%d", d.from, d.to, d.msg, d.at) }

// recordingSink binds a sink to s that appends every delivery to the
// returned log.
func recordingSink(s *Simulator) *[]delivery {
	log := new([]delivery)
	s.BindSink(func(from, to int32, msg any) {
		*log = append(*log, delivery{from: from, to: to, msg: msg, at: s.Now()})
	})
	return log
}

// TestBatchMatchesAfter checks that a Batch delivers its hops in exactly the
// order individual Post calls would, and that both match the order of the
// same deliveries scheduled as After timers, including FIFO ties and
// interleaving with independently scheduled timers.
func TestBatchMatchesAfter(t *testing.T) {
	const (
		batched = iota
		posted
		timers
	)
	runTrace := func(seed int64, mode int) []string {
		r := rand.New(rand.NewSource(seed))
		s := New(seed)
		var tr []string
		s.BindSink(func(from, to int32, msg any) { tr = append(tr, fmt.Sprintf("%d>%d:%v", from, to, msg)) })
		n := 2 + r.Intn(8)
		hops := make([]Hop, n)
		for i := range hops {
			hops[i] = Hop{D: time.Duration(r.Intn(4)) * time.Millisecond, To: int32(i)}
		}
		// Competing timers around the batch's time range.
		for i := 0; i < 5; i++ {
			i := i
			s.After(time.Duration(r.Intn(5))*time.Millisecond, func() { tr = append(tr, fmt.Sprint(100+i)) })
		}
		switch mode {
		case batched:
			s.Batch(7, "q", hops)
		case posted:
			for _, h := range hops {
				s.Post(h.D, 7, h.To, "q")
			}
		case timers:
			for _, h := range hops {
				to := h.To
				s.After(h.D, func() { tr = append(tr, fmt.Sprintf("7>%d:q", to)) })
			}
		}
		// More timers scheduled after, including same instants.
		for i := 0; i < 5; i++ {
			i := i
			s.After(time.Duration(r.Intn(5))*time.Millisecond, func() { tr = append(tr, fmt.Sprint(200+i)) })
		}
		s.Run()
		return tr
	}
	f := func(seed int64) bool {
		a := strings.Join(runTrace(seed, batched), ",")
		return a == strings.Join(runTrace(seed, posted), ",") && a == strings.Join(runTrace(seed, timers), ",")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBatchSameInstantBurst(t *testing.T) {
	s := New(1)
	log := recordingSink(s)
	s.After(time.Millisecond, func() {
		hops := make([]Hop, 10)
		for i := range hops {
			hops[i] = Hop{D: 0, To: int32(i)}
		}
		s.Batch(3, "b", hops)
		// Posted after the batch: must be delivered after every hop.
		s.Post(0, 4, 99, "p")
	})
	s.Run()
	if len(*log) != 11 || (*log)[10].to != 99 {
		t.Fatalf("burst order = %v", *log)
	}
	for i := 0; i < 10; i++ {
		if d := (*log)[i]; d.to != int32(i) || d.from != 3 || d.msg != "b" || d.at != time.Millisecond {
			t.Fatalf("burst order = %v, want FIFO hops from 3 then 99", *log)
		}
	}
	if s.Now() != time.Millisecond {
		t.Errorf("Now = %v, want 1ms", s.Now())
	}
}

func TestBatchNestedScheduling(t *testing.T) {
	s := New(1)
	var got []string
	s.BindSink(func(from, to int32, msg any) {
		got = append(got, msg.(string)+fmt.Sprint(to))
		if to == 0 {
			s.Post(0, to, 9, "n")
		}
	})
	s.Batch(1, "a", []Hop{
		{D: time.Millisecond, To: 0},
		{D: time.Millisecond, To: 2},
		{D: 2 * time.Millisecond, To: 3},
	})
	s.Run()
	if want := "a0,a2,n9,a3"; strings.Join(got, ",") != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestBatchEmptyAndSingle(t *testing.T) {
	s := New(1)
	log := recordingSink(s)
	s.Batch(0, "x", nil)
	s.Batch(2, "one", []Hop{{D: time.Millisecond, To: 5}})
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(*log) != 1 || (*log)[0] != (delivery{from: 2, to: 5, msg: "one", at: time.Millisecond}) {
		t.Errorf("single-hop batch delivered %v", *log)
	}
}

func TestBatchRunUntilBoundary(t *testing.T) {
	s := New(1)
	log := recordingSink(s)
	s.Batch(0, "m", []Hop{
		{D: time.Millisecond, To: 1},
		{D: 3 * time.Millisecond, To: 3},
	})
	s.RunUntil(2 * time.Millisecond)
	if len(*log) != 1 || s.Pending() != 1 {
		t.Fatalf("got %v pending %d, want only the 1ms hop", *log, s.Pending())
	}
	s.Run()
	if len(*log) != 2 || (*log)[1].to != 3 {
		t.Error("remaining batch hop lost after RunUntil")
	}
}

// TestPostMatchesAfterClamping pins that Post clamps negative and
// overflowing delays to now, exactly as After does.
func TestPostMatchesAfterClamping(t *testing.T) {
	s := New(1)
	log := recordingSink(s)
	s.RunUntil(time.Second)
	s.Post(-time.Hour, 0, 1, "neg")
	s.Post(time.Duration(1<<63-1), 0, 2, "overflow")
	s.Batch(0, "b", []Hop{{D: -time.Millisecond, To: 3}, {D: time.Duration(1<<63 - 1), To: 4}})
	s.Run()
	for _, d := range *log {
		if d.at != time.Second {
			t.Errorf("delivery %v fired at %v, want clamped to 1s", d, d.at)
		}
	}
	if len(*log) != 4 {
		t.Errorf("delivered %d messages, want 4", len(*log))
	}
}

// TestMessageWithoutSinkPanics pins that scheduling a message with no sink
// bound fails at the scheduling call, not later inside Step.
func TestMessageWithoutSinkPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(s *Simulator)
	}{
		{"Post", func(s *Simulator) { s.Post(time.Millisecond, 0, 1, "m") }},
		{"Batch", func(s *Simulator) { s.Batch(0, "m", []Hop{{To: 1}, {To: 2}}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			func() {
				defer func() {
					r := recover()
					if r == nil || !strings.Contains(fmt.Sprint(r), "no sink bound") {
						t.Fatalf("%s with no sink: recover() = %v, want a no-sink panic", tc.name, r)
					}
				}()
				tc.call(s)
			}()
			if s.Pending() != 0 {
				t.Errorf("Pending = %d after the refused %s", s.Pending(), tc.name)
			}
		})
	}
}

// TestBindSinkTwicePanics pins that a simulator has one sink for life.
func TestBindSinkTwicePanics(t *testing.T) {
	s := New(1)
	recordingSink(s)
	if !s.HasSink() {
		t.Fatal("HasSink = false after BindSink")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "already bound") {
			t.Fatalf("second BindSink: recover() = %v, want an already-bound panic", r)
		}
	}()
	s.BindSink(func(int32, int32, any) {})
}

// TestSlabRecycled checks that steady-state scheduling reuses slab slots
// instead of growing storage without bound, for timers and messages alike.
func TestSlabRecycled(t *testing.T) {
	s := New(1)
	recordingSink(s)
	hops := []Hop{{D: 0, To: 1}, {D: time.Microsecond, To: 2}}
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < 10; i++ {
			s.After(time.Duration(i)*time.Microsecond, func() {})
			s.Post(time.Duration(i)*time.Microsecond, 0, int32(i), nil)
		}
		s.Batch(0, nil, hops)
		s.Run()
	}
	if len(s.events) > 64 || len(s.msgs) > len(s.events) {
		t.Errorf("slab grew to %d slots (%d message records) for a working set of 21", len(s.events), len(s.msgs))
	}
}

// TestMessagesReleasePayloads pins that a delivered message's payload is not
// kept alive by its recycled slab slot.
func TestMessagesReleasePayloads(t *testing.T) {
	s := New(1)
	recordingSink(s)
	s.Post(0, 0, 1, "unicast")
	s.Batch(0, "fanout", []Hop{{D: 0, To: 1}, {D: time.Millisecond, To: 2}})
	s.Run()
	for i, m := range s.msgs {
		if m.msg != nil {
			t.Errorf("slot %d still holds payload %v after delivery", i, m.msg)
		}
	}
}

// TestStaleTimerAfterReuse checks that a Timer for a consumed event stays
// inert even after its slab slot has been recycled for a new event.
func TestStaleTimerAfterReuse(t *testing.T) {
	s := New(1)
	tm := s.After(0, func() {})
	s.Run()
	ran := false
	s.After(0, func() { ran = true }) // reuses the freed slot
	if tm.Stop() {
		t.Error("stale Timer.Stop = true")
	}
	s.Run()
	if !ran {
		t.Error("stale Stop cancelled an unrelated event in the reused slot")
	}
}

// BenchmarkBroadcastFanout measures a 64-hop Batch scheduled and drained
// into a no-op sink, 20 rounds per fresh simulator.
func BenchmarkBroadcastFanout(b *testing.B) {
	b.ReportAllocs()
	hops := make([]Hop, 64)
	for j := range hops {
		hops[j] = Hop{D: time.Duration(j%7) * time.Microsecond, To: int32(j)}
	}
	var msg any = "q"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(1)
		s.BindSink(func(int32, int32, any) {})
		for round := 0; round < 20; round++ {
			s.Batch(0, msg, hops)
			s.Run()
		}
	}
}
