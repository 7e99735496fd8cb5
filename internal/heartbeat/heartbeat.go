// Package heartbeat implements the classical timer-based unreliable failure
// detector that the paper argues against: every process broadcasts a
// heartbeat every Δ; a monitor suspects a peer when no heartbeat arrives for
// Θ, and revokes the suspicion when one finally does.
//
// Two variants are provided:
//
//   - Node: the direct all-to-all detector for fully connected systems
//     (Chandra–Toueg-style, the default comparator in experiments E1–E7).
//   - GossipNode: the Friedman–Tcharny-style vector detector for partially
//     connected systems — heartbeat counters are flooded through neighbor
//     broadcasts, so liveness information crosses multiple hops (used by the
//     extension experiments X1/X2).
//
// Both variants need the timing assumption the time-free detector avoids: Θ
// must dominate the (unknown) end-to-end delay, or false suspicions never
// stop.
//
// A Node's state is O(degree): one entry per monitored peer, found by binary
// search over the sorted peer IDs, whatever the largest ID in the system.
package heartbeat

import (
	"errors"
	"slices"
	"sync"
	"time"

	"asyncfd/internal/fd"
	"asyncfd/internal/ident"
	"asyncfd/internal/node"
)

// Message is a direct heartbeat.
type Message struct {
	From ident.ID
	Seq  uint64
}

// Config parameterizes a direct heartbeat detector.
type Config struct {
	// Self is this process's identity.
	Self ident.ID
	// Peers are the monitored processes (Self is ignored if present).
	Peers ident.Set
	// Interval is the heartbeat period Δ.
	Interval time.Duration
	// Timeout is the suspicion timeout Θ (counted from the last heartbeat).
	Timeout time.Duration
	// Sink, if set, receives timestamped suspicion transitions.
	Sink fd.SuspicionSink
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Self.Valid() {
		return errors.New("heartbeat: config: Self must be valid")
	}
	if c.Interval <= 0 {
		return errors.New("heartbeat: config: Interval must be positive")
	}
	if c.Timeout <= 0 {
		return errors.New("heartbeat: config: Timeout must be positive")
	}
	return nil
}

// peerState holds one peer's suspicion timeout and the expiry callback that
// fires it, built once so the hot re-arm path (every heartbeat delivery)
// allocates nothing.
type peerState struct {
	expiry node.Timer
	fire   func()
}

// Node is the direct all-to-all heartbeat detector. It is safe for
// concurrent use.
type Node struct {
	mu        sync.Mutex
	env       node.Env   //fdlint:allow clonefields immutable wiring, set once at construction
	cfg       Config     //fdlint:allow clonefields immutable config, set once at construction
	ids       []ident.ID //fdlint:allow clonefields immutable ascending peer IDs, set once at construction
	tick      func()     //fdlint:allow clonefields immutable heartbeat callback, built once at construction
	seq       uint64
	suspected ident.Set
	peers     []peerState // peers[i] is the state of peer ids[i]
	stopped   bool
	beat      node.Timer
}

var _ node.Handler = (*Node)(nil)
var _ fd.Detector = (*Node)(nil)
var _ fd.Restartable = (*Node)(nil)
var _ node.Cloneable = (*Node)(nil)

// NewNode builds a direct heartbeat detector on env.
func NewNode(env node.Env, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := slices.DeleteFunc(cfg.Peers.IDs(), func(p ident.ID) bool { return p == cfg.Self })
	cfg.Peers = ident.Set{} // ids holds the peers from here on
	n := &Node{env: env, cfg: cfg, ids: ids, peers: make([]peerState, len(ids))}
	n.tick = func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.tickLocked()
	}
	for i, p := range ids {
		n.peers[i].fire = func() {
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.stopped || n.suspected.Has(p) {
				return
			}
			n.suspected.Add(p)
			n.emitLocked(p, true)
		}
	}
	return n, nil
}

// Start begins heartbeating and arms the initial timeout for every peer (the
// start of monitoring counts as the last sighting, avoiding instant
// suspicions).
func (n *Node) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.peers {
		n.armLocked(&n.peers[i])
	}
	n.tickLocked()
}

// Restart implements fd.Restartable: after a crash-recovery, the node
// re-arms every suspicion timeout (the restart counts as the last sighting
// of every peer, like Start) and resumes heartbeating. With fresh state the
// reboot lost the suspicion set, so the oracle output transitions every
// suspected peer back to trusted; with persisted state suspicions survive
// until the peers' heartbeats clear them.
func (n *Node) Restart(fresh bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopTimersLocked()
	n.stopped = false
	if fresh {
		n.suspected.ForEach(func(p ident.ID) bool {
			n.emitLocked(p, false)
			return true
		})
		n.suspected.Clear()
		n.seq = 0
	}
	for i := range n.peers {
		n.armLocked(&n.peers[i])
	}
	n.tickLocked()
}

// Stop halts heartbeating and suspicion timers.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
	n.stopTimersLocked()
}

// stopTimersLocked cancels the heartbeat timer, then each peer's expiry.
func (n *Node) stopTimersLocked() {
	if n.beat != nil {
		n.beat.Stop()
	}
	for i := range n.peers {
		if t := n.peers[i].expiry; t != nil {
			t.Stop()
		}
	}
}

func (n *Node) tickLocked() {
	if n.stopped {
		return
	}
	n.seq++
	n.env.Broadcast(Message{From: n.env.Self(), Seq: n.seq})
	n.beat = n.env.After(n.cfg.Interval, n.tick)
}

// armLocked (re)arms the expiry timer of one peer. On the simulator a
// pending expiry is postponed in place (node.Rearm), so a steady-state
// heartbeat delivery allocates nothing and schedules nothing new.
func (n *Node) armLocked(st *peerState) {
	st.expiry = node.Rearm(n.env, st.expiry, n.cfg.Timeout, st.fire)
}

// Deliver implements node.Handler.
func (n *Node) Deliver(from ident.ID, payload any) {
	if _, ok := payload.(Message); !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	i, ok := slices.BinarySearch(n.ids, from)
	if n.stopped || !ok {
		return
	}
	if n.suspected.Has(from) {
		n.suspected.Remove(from)
		n.emitLocked(from, false)
	}
	n.armLocked(&n.peers[i])
}

func (n *Node) emitLocked(subject ident.ID, suspected bool) {
	if n.cfg.Sink != nil {
		n.cfg.Sink.OnSuspicion(n.env.Now(), n.env.Self(), subject, suspected)
	}
}

// snapshot is the node.Cloneable checkpoint of a heartbeat detector: the
// sequence counter, the suspicion set and the live timer handles. Timer
// handles are shared by value with the live node — des.Timer handles are
// immutable, and the paired kernel snapshot rewinds slot generations so a
// handle captured here is pending again after Restore.
type snapshot struct {
	seq       uint64
	suspected ident.Set
	expiry    []node.Timer // by peer index, like Node.peers
	stopped   bool
	beat      node.Timer
}

// Snapshot implements node.Cloneable.
func (n *Node) Snapshot() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	expiry := make([]node.Timer, len(n.peers))
	for i := range n.peers {
		expiry[i] = n.peers[i].expiry
	}
	return &snapshot{
		seq:       n.seq,
		suspected: n.suspected.Clone(),
		expiry:    expiry,
		stopped:   n.stopped,
		beat:      n.beat,
	}
}

// Restore implements node.Cloneable: writes each saved timer handle back into
// the live peerState (nil for peers the checkpoint had no timer for).
func (n *Node) Restore(snap any) {
	s := snap.(*snapshot)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq = s.seq
	n.suspected = s.suspected.Clone()
	for i := range n.peers {
		n.peers[i].expiry = s.expiry[i]
	}
	n.stopped = s.stopped
	n.beat = s.beat
}

// Suspects implements fd.Detector.
func (n *Node) Suspects() ident.Set {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.suspected.Clone()
}

// IsSuspected implements fd.Detector.
func (n *Node) IsSuspected(id ident.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.suspected.Has(id)
}
