package active

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Env errors.
var (
	// ErrEnvClosed indicates the environment has been shut down.
	ErrEnvClosed = errors.New("active: environment closed")
	// ErrUnknownName indicates a registry lookup failure.
	ErrUnknownName = errors.New("active: unknown registered name")
	// ErrUnknownActivity indicates the activity does not exist (anymore).
	ErrUnknownActivity = errors.New("active: unknown activity")
	// ErrNotARef indicates a value that should have been a remote
	// reference was not.
	ErrNotARef = errors.New("active: value is not a reference")
)

// Config parameterizes an Env.
type Config struct {
	// TTB is the DGC heartbeat period. Defaults to 30ms (the paper's 30s
	// compressed ×1000; see DESIGN.md §3).
	TTB time.Duration
	// TTA is the TimeToAlone. Defaults to 2*TTB + MaxComm + TTB/2, with
	// adaptive beats Adaptive.MaxTTB in place of TTB when it is larger,
	// satisfying the §3.1 formula; MaxComm is the Transport's own bound
	// on one-way communication time. With the DGC on, NewEnv panics on a
	// TTA that does not exceed 2*TTB + MaxComm (2*Adaptive.MaxTTB +
	// MaxComm with adaptive beats).
	TTA time.Duration
	// Transport selects the network substrate the nodes communicate over
	// and, through its MaxComm, the TTA formula's communication bound.
	// nil builds a zero-latency in-memory simnet; a non-nil value (a
	// simnet with a latency model, a tcpnet.Network) is used as-is. The
	// environment takes ownership and closes the transport in Close.
	Transport transport.Transport
	// BatchWindow enables hot-path message batching when positive: each
	// node's outbound one-way traffic flows through a per-destination
	// flusher, and co-destination messages travel together in one batch
	// frame. Plain one-way sends may linger up to BatchWindow waiting for
	// companions; call requests, future updates and group calls awaiting
	// replies never wait on it — they are corked until their sender
	// blocks (WIRE.md §5, "Who batches, and when") — and DGC beats
	// collapse into one exchange per destination node. Zero (the default)
	// disables batching entirely; the wire traffic is then byte-identical to the
	// unbatched protocol. A batch frame carries at most 64 KiB of
	// payload; a larger backlog is split across frames.
	BatchWindow time.Duration
	// FirstNode offsets node identifier allocation: the first NewNode
	// returns FirstNode, the second FirstNode+1, and so on. Several
	// processes sharing a TCP substrate set disjoint ranges so their
	// activity identifiers (and the DGC's total order on them) never
	// collide. Zero means the default start, node 1. With Cluster enabled
	// the field keeps its meaning on the founding seed only (where the
	// node-ID lease space starts); joiners are leased disjoint blocks by
	// the seed and ignore it.
	FirstNode ids.NodeID
	// Cluster enables the elastic cluster runtime: seed/join membership,
	// node-ID leases, heartbeat-piggybacked failure detection and
	// crash-tolerant cleanup (ErrNodeDead). See ClusterConfig.
	Cluster ClusterConfig
	// DisableDGC turns the distributed garbage collector off entirely
	// (the paper's "No DGC" baseline runs): no heartbeats, no automatic
	// termination; local heap sweeps still run.
	DisableDGC bool
	// Adaptive enables the §7.1 dynamic per-activity beat period; the
	// driver then wakes every Adaptive.MinTTB and beats each activity at
	// its own adapted pace.
	Adaptive core.Adaptive
	// MinHeightTree enables the §7.2 shallow-spanning-tree extension.
	MinHeightTree bool
	// OnEvent receives DGC trace events from every collector. It is
	// called with that collector's lock held, and sometimes also under a
	// lock of the node's heap (whose pins add and remove edges), so it
	// must not call back into the Env.
	OnEvent func(core.Event)
	// Store enables durable activity checkpoints: activities created from
	// a registered behavior kind are snapshotted into it — on the
	// CheckpointEvery cadence, at Handle.Checkpoint/Context.Checkpoint,
	// and at failover adoption — and Env.Recover restores them after a
	// crash. The caller owns the store (it outlives the environment:
	// that is the point) and closes it after the last environment using
	// it. nil disables checkpointing at zero hot-path cost.
	Store store.Store
	// CheckpointEvery is the automatic checkpoint cadence the driver
	// applies to every dirty durable activity. Zero disables automatic
	// checkpoints; explicit Handle.Checkpoint/Context.Checkpoint still
	// work whenever Store is set.
	CheckpointEvery time.Duration
}

func (c Config) withDefaults(maxComm time.Duration) Config {
	if c.TTB == 0 {
		c.TTB = 30 * time.Millisecond
	}
	if c.TTA == 0 {
		slowest := c.TTB
		if c.Adaptive.Enabled {
			slowest = max(slowest, c.Adaptive.MaxTTB)
		}
		c.TTA = 2*slowest + maxComm + slowest/2
	}
	return c
}

// validate checks the timing assumption the DGC's safety rests on
// (§3.1): TTA must exceed 2·TTB + maxComm, and with adaptive beats
// 2·MaxTTB + maxComm. Below it a live referencer can miss the window and
// its activity is collected while still referenced. With the DGC off
// nothing depends on it.
func (c Config) validate(maxComm time.Duration) error {
	if c.DisableDGC {
		return nil
	}
	base := core.Config{TTB: c.TTB, TTA: c.TTA}
	if err := base.Validate(maxComm); err != nil {
		return err
	}
	return c.Adaptive.Validate(base, maxComm)
}

// Stats summarizes an environment's DGC activity.
type Stats struct {
	// Created is the total number of activities ever created. Handles
	// are stubs of their node's root referencer, which is not counted.
	Created int
	// Live is the number of activities currently alive (roots excluded).
	Live int
	// Collected maps termination reasons to counts.
	Collected map[core.Reason]int
	// RelocateFailures counts the relocation sends (Node.Leave, failover)
	// a member process did not acknowledge, each retry included.
	RelocateFailures int
}

// Env is one simulated distributed system: a set of nodes sharing a
// network, a registry and DGC parameters.
type Env struct {
	cfg     Config
	net     transport.Transport
	nodeGen ids.NodeGenerator
	cluster *clusterAgent // nil unless Config.Cluster.Enabled

	// deadNodes is the copy-on-write set of nodes the cluster has declared
	// dead: nil until the first confirmed death, so the hot path's
	// fail-fast check (isDeadNode) is a single atomic load.
	deadMu    sync.Mutex
	deadNodes atomic.Pointer[map[ids.NodeID]struct{}]

	// ring is the consistent-hash ring of the sharded location directory
	// (WIRE.md §9): rebuilt on every topology change, read lock-free on
	// the directory paths.
	ring atomic.Pointer[location.Ring]

	mu      sync.Mutex
	nodes   map[ids.NodeID]*Node
	names   map[string]ids.ActivityID
	created int
	closed  bool

	// reaped counts collections by reason. It has its own lock because
	// Node.destroy counts under Node.mu, in the critical section that
	// removes the activity, and mu is taken before Node.mu elsewhere.
	reapMu sync.Mutex
	reaped map[core.Reason]int

	relocateFailures atomic.Int64 // Stats.RelocateFailures

	// now and sleep are the runtime's time: time.Now and time.Sleep.
	// Only this package's stepped-time tests replace them, before the
	// environment's first node or Join.
	now   func() time.Time
	sleep func(time.Duration)
}

// NewEnv creates an environment. Close it when done. It panics when the
// DGC is on and the timing violates the §3.1 formula (see Config.TTA).
func NewEnv(cfg Config) *Env {
	net := cfg.Transport
	if net == nil {
		net = simnet.New(simnet.Config{})
	}
	maxComm := net.MaxComm()
	cfg = cfg.withDefaults(maxComm)
	if err := cfg.validate(maxComm); err != nil {
		panic("active: NewEnv: " + err.Error())
	}
	e := &Env{
		cfg:    cfg,
		net:    net,
		nodes:  make(map[ids.NodeID]*Node),
		names:  make(map[string]ids.ActivityID),
		reaped: make(map[core.Reason]int),
		now:    time.Now,
		sleep:  time.Sleep,
	}
	if cfg.FirstNode > 1 {
		e.nodeGen.SkipTo(cfg.FirstNode)
	}
	if cfg.Cluster.Enabled {
		e.cluster = newClusterAgent(e)
	}
	return e
}

// Config returns the environment's effective configuration.
func (e *Env) Config() Config { return e.cfg }

// Network exposes the underlying transport (for traffic accounting).
func (e *Env) Network() transport.Transport { return e.net }

// NewNode creates a process in the distributed system and starts its DGC
// driver. With the cluster runtime enabled, the first NewNode implicitly
// joins the cluster (and panics if the seed is unreachable — call
// Env.Join first to handle that as an error), and every new node is
// announced to the other members.
func (e *Env) NewNode() *Node {
	var id ids.NodeID
	if e.cluster != nil {
		// May contact the seed for a lease; must run outside e.mu.
		id = e.cluster.nextNodeID()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		panic("active: NewNode on closed Env")
	}
	if e.cluster == nil {
		id = e.nodeGen.Next()
	}
	n := newNode(e, id)
	e.nodes[id] = n
	n.start()
	e.mu.Unlock()
	if e.cluster != nil {
		e.cluster.noteNodeUp(id)
	}
	e.refreshRing()
	return n
}

// node returns the node hosting the given node ID.
func (e *Env) node(id ids.NodeID) (*Node, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n, ok := e.nodes[id]
	return n, ok
}

// localNodes lists the nodes hosted by this environment.
func (e *Env) localNodes() []*Node {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Node, 0, len(e.nodes))
	for _, n := range e.nodes {
		out = append(out, n)
	}
	return out
}

// localNodeIDs lists the node IDs hosted by this environment.
func (e *Env) localNodeIDs() []ids.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ids.NodeID, 0, len(e.nodes))
	for id := range e.nodes {
		out = append(out, id)
	}
	return out
}

// Node returns the live node with the given ID, or nil if this
// environment hosts no such node (it may live in another process of a
// TCP deployment, or be dead).
func (e *Env) Node(id ids.NodeID) *Node {
	n, ok := e.node(id)
	if !ok {
		return nil
	}
	return n
}

// activity resolves an activity ID to its live object.
func (e *Env) activity(id ids.ActivityID) (*ActiveObject, bool) {
	n, ok := e.node(id.Node)
	if !ok {
		return nil, false
	}
	return n.activity(id)
}

// RegisterName publishes ref in the registry under name. A registered
// activity is a DGC root (§4.1): anyone can look it up at any time, so it
// is never considered idle.
func (e *Env) RegisterName(name string, ref wire.Value) error {
	target, ok := ref.AsRef()
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotARef, ref)
	}
	ao, ok := e.activity(target)
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownActivity, target)
	}
	e.mu.Lock()
	e.names[name] = target
	e.mu.Unlock()
	ao.registered.Store(true)
	if ao.kind != "" && e.cfg.Store != nil {
		// Registration is part of the durable image (Recover re-registers
		// names): make sure the next checkpoint beat picks it up.
		ao.ckptDirty.Store(true)
	}
	return nil
}

// Unregister removes a name from the registry. The activity loses its root
// status (unless registered under another name) and becomes collectable
// when unreferenced and idle.
func (e *Env) Unregister(name string) {
	e.mu.Lock()
	target, ok := e.names[name]
	if !ok {
		e.mu.Unlock()
		return
	}
	delete(e.names, name)
	stillRegistered := false
	for _, other := range e.names {
		if other == target {
			stillRegistered = true
			break
		}
	}
	e.mu.Unlock()
	if stillRegistered {
		return
	}
	if ao, okAO := e.activity(target); okAO {
		ao.registered.Store(false)
	}
}

// rebindRegistered re-points every registry name from a migrated
// activity's old identity to its new one and moves the never-idle root
// status along (§4.1: a registered activity can be looked up at any time,
// wherever it lives now).
func (e *Env) rebindRegistered(old, new ids.ActivityID) {
	e.mu.Lock()
	moved := false
	for name, target := range e.names {
		if target == old {
			e.names[name] = new
			moved = true
		}
	}
	e.mu.Unlock()
	if !moved {
		return
	}
	if ao, ok := e.activity(old); ok {
		ao.registered.Store(false)
	}
	if ao, ok := e.activity(new); ok {
		ao.registered.Store(true)
	}
}

// Lookup resolves a registered name to a reference value.
func (e *Env) Lookup(name string) (wire.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	target, ok := e.names[name]
	if !ok {
		return wire.Null(), fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	return wire.Ref(target), nil
}

// Stats returns a snapshot of activity counts. Collected is read after
// Live, so an activity missing from Live is already in Collected.
func (e *Env) Stats() Stats {
	e.mu.Lock()
	st := Stats{Created: e.created, RelocateFailures: int(e.relocateFailures.Load())}
	for _, n := range e.nodes {
		st.Live += n.LiveActivities()
	}
	e.mu.Unlock()
	e.reapMu.Lock()
	defer e.reapMu.Unlock()
	st.Collected = make(map[core.Reason]int, len(e.reaped))
	for r, c := range e.reaped {
		st.Collected[r] = c
	}
	return st
}

// LiveActivities returns the number of live activities (node roots, which
// handles are stubs of, excluded).
func (e *Env) LiveActivities() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int
	for _, n := range e.nodes {
		total += n.LiveActivities()
	}
	return total
}

// WaitCollected polls until at most want activities remain live, or
// timeout (wall time) elapses. It returns the wall time it took.
func (e *Env) WaitCollected(want int, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		if e.LiveActivities() <= want {
			return time.Since(start), nil
		}
		if time.Since(start) > timeout {
			return 0, fmt.Errorf("active: %d activities still live after %v (want <= %d)",
				e.LiveActivities(), timeout, want)
		}
		time.Sleep(e.cfg.TTB / 4)
	}
}

func (e *Env) noteCreated() {
	e.mu.Lock()
	e.created++
	e.mu.Unlock()
}

func (e *Env) noteCollected(reason core.Reason) {
	e.reapMu.Lock()
	e.reaped[reason]++
	e.reapMu.Unlock()
}

// Close stops the network and all nodes. Pending futures fail with
// ErrEnvClosed. Batched outbound traffic is flushed first (so a message
// accepted before Close is written, not silently dropped), then the
// transport closes: that fails any Call a driver is blocked in (a TCP
// exchange against a hung peer would otherwise make the driver — and this
// Close, which waits for it — hang forever), after which the node
// shutdowns can join their goroutines. simnet drains in-flight deliveries
// on Close, so nodes outliving the network briefly is safe on either
// backend.
func (e *Env) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	nodes := make([]*Node, 0, len(e.nodes))
	for _, n := range e.nodes {
		nodes = append(nodes, n)
	}
	e.mu.Unlock()
	for _, n := range nodes {
		n.flushOutbound()
	}
	if e.cluster != nil {
		e.cluster.stop()
	}
	e.net.Close()
	for _, n := range nodes {
		n.shutdown()
	}
}
