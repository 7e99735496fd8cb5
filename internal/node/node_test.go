package node

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
)

func TestHandlerFuncDelivers(t *testing.T) {
	var gotFrom ident.ID
	var gotPayload any
	h := HandlerFunc(func(from ident.ID, payload any) {
		gotFrom, gotPayload = from, payload
	})
	var asHandler Handler = h // HandlerFunc must satisfy Handler
	asHandler.Deliver(3, "ping")
	if gotFrom != 3 || gotPayload != "ping" {
		t.Errorf("Deliver(3, ping) recorded (%v, %v)", gotFrom, gotPayload)
	}
}

// fakeEnv is a minimal in-test Env: it runs After callbacks synchronously
// and records traffic. It pins down the Env contract shape the runtimes
// (netsim, livenet) must provide.
type fakeEnv struct {
	id        ident.ID
	now       time.Duration
	sent      map[ident.ID]any
	broadcast []any
}

type fakeTimer struct{ stopped bool }

func (f *fakeTimer) Stop() bool {
	was := !f.stopped
	f.stopped = true
	return was
}

func (e *fakeEnv) Self() ident.ID     { return e.id }
func (e *fakeEnv) Now() time.Duration { return e.now }
func (e *fakeEnv) After(d time.Duration, fn func()) Timer {
	e.now += d
	fn()
	return &fakeTimer{}
}
func (e *fakeEnv) Send(to ident.ID, payload any) {
	if e.sent == nil {
		e.sent = make(map[ident.ID]any)
	}
	e.sent[to] = payload
}
func (e *fakeEnv) Broadcast(payload any) { e.broadcast = append(e.broadcast, payload) }

func TestEnvContract(t *testing.T) {
	var env Env = &fakeEnv{id: 7}
	if env.Self() != 7 {
		t.Errorf("Self = %v", env.Self())
	}
	ran := false
	tm := env.After(time.Second, func() { ran = true })
	if !ran {
		t.Error("After callback not run")
	}
	if env.Now() != time.Second {
		t.Errorf("Now = %v after 1s timer", env.Now())
	}
	if !tm.Stop() {
		t.Error("first Stop = false")
	}
	if tm.Stop() {
		t.Error("second Stop = true")
	}
	env.Send(1, "a")
	env.Broadcast("b")
	fe := env.(*fakeEnv)
	if fe.sent[1] != "a" || len(fe.broadcast) != 1 {
		t.Error("Send/Broadcast not recorded")
	}
}

// postponeTimer is a fakeTimer that can also be postponed while it is not
// stopped, up to a latest deadline it accepts.
type postponeTimer struct {
	fakeTimer
	limit     time.Duration
	postponed []time.Duration
}

func (p *postponeTimer) Postpone(d time.Duration) bool {
	if p.stopped || d > p.limit {
		return false
	}
	p.postponed = append(p.postponed, d)
	return true
}

// TestRearm pins Rearm's three paths: postpone in place, fall back to Stop
// and After when the timer declines or cannot postpone, and arm afresh when
// there is no timer yet.
func TestRearm(t *testing.T) {
	env := &fakeEnv{id: 1}
	runs := 0
	fn := func() { runs++ }

	pt := &postponeTimer{limit: time.Second}
	if got := Rearm(env, pt, time.Second, fn); got != Timer(pt) || runs != 0 || pt.stopped {
		t.Fatalf("postponable timer: got %v, runs=%d stopped=%v; want it postponed in place", got, runs, pt.stopped)
	}
	if len(pt.postponed) != 1 || pt.postponed[0] != time.Second {
		t.Fatalf("Postpone calls = %v, want [1s]", pt.postponed)
	}

	got := Rearm(env, pt, 2*time.Second, fn)
	if got == Timer(pt) || !pt.stopped || runs != 1 {
		t.Fatalf("declined Postpone: got %v, stopped=%v runs=%d; want Stop then a fresh After", got, pt.stopped, runs)
	}

	ft := &fakeTimer{}
	if got := Rearm(env, ft, time.Second, fn); got == Timer(ft) || !ft.stopped || runs != 2 {
		t.Fatalf("plain timer: got %v, stopped=%v runs=%d; want Stop then a fresh After", got, ft.stopped, runs)
	}

	if got := Rearm(env, nil, time.Second, fn); got == nil || runs != 3 {
		t.Fatalf("no timer: got %v, runs=%d; want a fresh After", got, runs)
	}
}
