package des

import (
	"testing"
	"time"
)

// queue_bench_test.go: heap-vs-ladder microbenchmarks for the kernel's hot
// paths. The headline is the dense-horizon benchmark — hundreds of
// thousands of near-term timers in flight, the shape every n=256
// per-peer-timeout experiment generates — where the ladder's O(1) bucket
// operations beat the heap's O(log n) sifts. Run with
// `go test -bench 'Queue' -benchmem ./internal/des`.

func queueKinds() []QueueKind { return []QueueKind{QueueHeap, QueueLadder} }

// BenchmarkQueueDenseHorizon measures steady-state push/pop churn with a
// large standing population of near-term timers: every fired event
// reschedules itself, so each Step is one pop plus one push against a
// ~64k-element queue.
func BenchmarkQueueDenseHorizon(b *testing.B) {
	for _, kind := range queueKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			s := New(1, WithQueue(kind))
			const standing = 1 << 16
			var reschedule func()
			reschedule = func() {
				s.After(time.Duration(1+s.Rand().Intn(10_000_000)), reschedule)
			}
			for k := 0; k < standing; k++ {
				reschedule()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkQueueBroadcastFanout measures batched fan-out scheduling plus
// drain into a no-op sink — the netsim broadcast path — under both queues,
// including the kernel's batch-hop slice pool.
func BenchmarkQueueBroadcastFanout(b *testing.B) {
	for _, kind := range queueKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			hops := make([]Hop, 64)
			for j := range hops {
				hops[j] = Hop{D: time.Duration(j%7) * time.Microsecond, To: int32(j)}
			}
			var msg any = "q"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := New(1, WithQueue(kind))
				s.BindSink(func(int32, int32, any) {})
				for round := 0; round < 20; round++ {
					s.Batch(0, msg, hops)
					s.Run()
				}
			}
		})
	}
}

// BenchmarkQueueStopReapChurn measures the per-peer-timeout pattern: arm a
// timeout, cancel it, re-arm — so the queue carries a steady mix of live
// and stopped events and reaps the stopped ones as they surface.
func BenchmarkQueueStopReapChurn(b *testing.B) {
	for _, kind := range queueKinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			s := New(1, WithQueue(kind))
			const peers = 1 << 12
			timers := make([]*Timer, peers)
			fn := func() {}
			for k := range timers {
				timers[k] = s.After(time.Duration(1+s.Rand().Intn(2_000_000)), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % peers
				timers[k].Stop()
				timers[k] = s.After(time.Duration(1+s.Rand().Intn(2_000_000)), fn)
				if i%4 == 0 {
					s.Step()
				}
			}
		})
	}
}
