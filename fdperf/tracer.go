package main

import "time"

// spanKind names one layer boundary the traced run wraps. Every span is
// recorded from this package, around a call into a layer's public API.
type spanKind uint8

const (
	spanRun          spanKind = iota // the RunUntil loop; its self time is the des kernel
	spanCoreDeliver                  // core.Node.Deliver
	spanCoreTimer                    // a core.Node timer callback (and Start)
	spanHBDeliver                    // heartbeat.Node.Deliver
	spanHBTimer                      // a heartbeat.Node timer callback (and Start)
	spanSend                         // node.Env.Send on netsim
	spanBroadcast                    // node.Env.Broadcast on netsim
	spanSchedule                     // node.Env.After on netsim (des scheduling)
	spanWireSize                     // wire.Size through netsim.Config.SizeOf
	spanTraceAppend                  // trace.Log.OnSuspicion through fd.SuspicionSink
	spanQosIngest                    // qos.JudgeFrom
	spanQosFinalize                  // Judge.DetectionTimes + Judge.Mistakes
	spanTCPSend                      // tcpnet.Transport.Send
	spanTCPDeliver                   // the tcpnet monitor's Handler.Deliver
	spanShardDeliver                 // liveshard.Service.Deliver
	numSpans
)

var spanNames = [numSpans]string{
	"des.run", "core.deliver", "core.timer", "heartbeat.deliver", "heartbeat.timer",
	"netsim.send", "netsim.broadcast", "des.schedule", "wire.size", "trace.append",
	"qos.ingest", "qos.finalize", "tcpnet.send", "tcpnet.deliver", "liveshard.deliver",
}

// Span sampling: one top-level span tree in sampleStride is kept whole,
// up to maxSamples spans per tracer, so the written sample stays small
// however many millions of spans the run opens.
const (
	sampleStride = 4096
	maxSamples   = 4096
)

// spanRecord is one sampled span, written to the report at exit.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	kind          spanKind
	id, parent    uint64
	start, childs int64
}

// tracer aggregates spans by kind: call count, inclusive time and self time
// (inclusive minus the time of child spans). It is owned by one goroutine;
// concurrent runs use one tracer each and merge them when done.
type tracer struct {
	epoch   time.Time
	stack   []openSpan
	count   [numSpans]int64
	total   [numSpans]int64
	self    [numSpans]int64
	nextID  uint64
	tops    uint64
	sampled bool
	samples []spanRecord
	maxNS   [numSpans]int64
	fanout  int64 // messages sent by traced Broadcast calls
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(k spanKind) {
	now := int64(time.Since(t.epoch))
	t.nextID++
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
		if n == 1 && t.stack[0].kind == spanRun {
			t.startTree()
		}
	} else {
		t.startTree()
	}
	t.stack = append(t.stack, openSpan{kind: k, id: t.nextID, parent: parent, start: now})
}

// startTree decides whether the top-level span tree opening now is sampled.
func (t *tracer) startTree() {
	t.tops++
	t.sampled = t.tops%sampleStride == 1 && len(t.samples) < maxSamples
}

func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := now - s.start
	t.count[s.kind]++
	t.total[s.kind] += d
	t.self[s.kind] += d - s.childs
	if d > t.maxNS[s.kind] {
		t.maxNS[s.kind] = d
	}
	if n > 0 {
		t.stack[n-1].childs += d
	}
	if (t.sampled && len(t.samples) < maxSamples) || s.kind == spanRun {
		t.samples = append(t.samples, spanRecord{ID: s.id, Parent: s.parent, Name: spanNames[s.kind], Start: s.start, End: now})
	}
}

// merge folds another tracer's aggregates and samples into t.
func (t *tracer) merge(o *tracer) {
	for k := range t.count {
		t.count[k] += o.count[k]
		t.total[k] += o.total[k]
		t.self[k] += o.self[k]
		t.maxNS[k] = max(t.maxNS[k], o.maxNS[k])
	}
	t.samples = append(t.samples, o.samples...)
}

func (t *tracer) selfSeconds(k spanKind) float64 { return float64(t.self[k]) / 1e9 }

// meanNS returns the mean inclusive duration of one span of kind k.
func (t *tracer) meanNS(k spanKind) float64 {
	if t.count[k] == 0 {
		return 0
	}
	return float64(t.total[k]) / float64(t.count[k])
}
