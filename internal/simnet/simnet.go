// Package simnet provides the in-memory network substrate the live runtime
// communicates over: the simulation-grade implementation of the
// transport.Transport contract. It reproduces the properties the paper's
// algorithm depends on and the instrumentation its evaluation uses:
//
//   - FIFO ordered delivery per (source, destination) pair, like the TCP
//     connections of RMI ("DGC messages and responses cannot race with
//     application messages as they are sent over the same FIFO connection",
//     §3.2);
//   - request/response exchange over the connection opened by the caller,
//     so a referenced activity never needs connectivity back to its
//     referencers (firewall/NAT asymmetry, §2.2);
//   - configurable one-way latency derived from a per-site RTT matrix
//     (§5.1) with an explicit MaxComm upper bound for the TTA formula;
//   - payload byte accounting per traffic class, the stand-in for the
//     paper's instrumented SOCKS proxy (§5): intra-process messages are
//     delivered directly and not accounted, as in the paper;
//   - optional interface serialization (PerMessage/PerByte): messages
//     occupy their sender's and receiver's interface in turn, modeling
//     the per-packet overhead and finite bandwidth real deployments
//     have — the regime where fan-out topology matters.
//
// A sender delivers on its own goroutine when the pair is idle and its
// head due, so it must hold no lock a handler could take; a send made
// while a handler of the sender's node runs is delivered on another
// goroutine, so handlers nest at most one deep.
//
// The sibling internal/tcpnet implements the same contract over real TCP
// connections; internal/active runs over either.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// Class partitions traffic for accounting; see transport.Class.
type Class = transport.Class

// Traffic classes, re-exported from the transport contract.
const (
	// ClassApp is application traffic: requests and their payloads.
	ClassApp = transport.ClassApp
	// ClassDGC is DGC messages and DGC responses.
	ClassDGC = transport.ClassDGC
	// ClassFuture is future-update traffic (results flowing back).
	ClassFuture = transport.ClassFuture
)

// Errors returned by the network, shared with every transport backend so
// callers can errors.Is without knowing the substrate.
var (
	// ErrUnreachable indicates the reachability rules forbid src → dst.
	ErrUnreachable = transport.ErrUnreachable
	// ErrUnknownNode indicates the destination was never registered.
	ErrUnknownNode = transport.ErrUnknownNode
	// ErrClosed indicates the network has been shut down.
	ErrClosed = transport.ErrClosed
)

// Handler receives traffic on behalf of a node; see transport.Handler.
type Handler = transport.Handler

// Config parameterizes a Network.
type Config struct {
	// Latency returns the one-way latency between two distinct nodes.
	// Defaults to zero latency. Intra-node delivery is always immediate.
	Latency func(src, dst ids.NodeID) time.Duration
	// Reachable reports whether src may open a connection to dst. nil means
	// full reachability. Replies are always allowed back over an
	// established exchange.
	Reachable func(src, dst ids.NodeID) bool
	// MaxComm is an upper bound on one-way communication time, used by the
	// DGC deadline formula. If zero, it is taken as the maximum of Latency
	// over registered node pairs at the time MaxComm() is called.
	MaxComm time.Duration
	// PerMessage is the fixed interface cost of one message: every message
	// occupies its sender's and its receiver's network interface for this
	// long (plus PerByte × size), and messages serialize at both
	// interfaces — the store-and-forward model of real per-packet overhead
	// (syscall, interrupt, protocol processing). Zero, the default, models
	// infinitely fast interfaces. A SendBatch pays the fixed cost once per
	// batch: exactly the frame coalescing batching exists to buy.
	PerMessage time.Duration
	// PerByte extends the interface occupancy per payload byte — the
	// bandwidth stand-in. Zero means unlimited bandwidth.
	PerByte time.Duration
}

// Counters is a snapshot of accounted traffic; see transport.Counters.
type Counters = transport.Counters

// numShards is the routing-table shard count: handler lookups and queue
// get-or-creates for a destination contend only with traffic hashing to
// the same shard, not with every sender in the world.
const numShards = 32

// shard is one slice of the routing state, keyed by destination node.
type shard struct {
	mu     sync.Mutex
	nodes  map[ids.NodeID]Handler
	queues map[pairKey]*pairQueue
	// handling counts the deliveries running now to each node ever registered.
	handling map[ids.NodeID]*atomic.Int32
}

// Network is the shared medium. Create with New, attach nodes with
// Register, stop with Close. It implements transport.Transport.
type Network struct {
	cfg Config

	closed atomic.Bool
	shards [numShards]shard
	wg     sync.WaitGroup

	// killed is the copy-on-write set of blackholed nodes (KillNode): the
	// pointer is nil until the first kill, so the per-send check is one
	// atomic load on the chaos-free hot path.
	killMu sync.Mutex
	killed atomic.Pointer[map[ids.NodeID]struct{}]

	// linkMu guards the interface-serialization state (PerMessage /
	// PerByte): the next instant each node's outbound and inbound
	// interface is free again.
	linkMu sync.Mutex
	txFree map[ids.NodeID]time.Time
	rxFree map[ids.NodeID]time.Time

	counters transport.CounterSet
}

var _ transport.Transport = (*Network)(nil)
var _ transport.BatchSender = (*Endpoint)(nil)

type pairKey struct {
	src, dst ids.NodeID
}

// New creates a network.
func New(cfg Config) *Network {
	if cfg.Latency == nil {
		cfg.Latency = func(_, _ ids.NodeID) time.Duration { return 0 }
	}
	n := &Network{cfg: cfg}
	if cfg.PerMessage > 0 || cfg.PerByte > 0 {
		n.txFree = make(map[ids.NodeID]time.Time)
		n.rxFree = make(map[ids.NodeID]time.Time)
	}
	for i := range n.shards {
		n.shards[i].nodes = make(map[ids.NodeID]Handler)
		n.shards[i].queues = make(map[pairKey]*pairQueue)
		n.shards[i].handling = make(map[ids.NodeID]*atomic.Int32)
	}
	return n
}

// shardFor returns the routing shard owning destination node id.
func (n *Network) shardFor(id ids.NodeID) *shard {
	return &n.shards[uint32(id)%numShards]
}

// MaxComm returns the configured or derived upper bound on one-way
// communication time.
func (n *Network) MaxComm() time.Duration {
	if n.cfg.MaxComm > 0 {
		return n.cfg.MaxComm
	}
	var nodes []ids.NodeID
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.Lock()
		for id := range s.nodes {
			nodes = append(nodes, id)
		}
		s.mu.Unlock()
	}
	var max time.Duration
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			if l := n.cfg.Latency(a, b); l > max {
				max = l
			}
		}
	}
	return max
}

// Register attaches a handler for node and returns its endpoint. Replacing
// an existing registration is allowed (used when a node restarts in tests).
func (n *Network) Register(node ids.NodeID, h Handler) transport.Endpoint {
	s := n.shardFor(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes[node] = h
	c := s.handling[node]
	if c == nil {
		c = new(atomic.Int32)
		s.handling[node] = c
	}
	return &Endpoint{net: n, node: node, handling: c}
}

// Deregister detaches a node: subsequent traffic toward it fails with
// ErrUnknownNode. Used to simulate machine crashes (§4.2: an undetected
// failure is indistinguishable from silence for the DGC).
func (n *Network) Deregister(node ids.NodeID) {
	s := n.shardFor(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.nodes, node)
}

// Close refuses new traffic, delivers everything accepted before it, and
// returns once every in-flight delivery and timer has finished.
func (n *Network) Close() {
	if n.closed.Swap(true) {
		return
	}
	for i := range n.shards {
		s := &n.shards[i]
		s.mu.Lock()
		for _, q := range s.queues {
			//lint:ignore SA2001 fence: a push that saw the network open has joined wg
			q.mu.Lock()
			q.mu.Unlock()
		}
		s.mu.Unlock()
	}
	n.wg.Wait()
}

// KillNode hard-kills a node at the network level: the chaos hook for
// deterministic failure-detection tests. One-way messages toward the
// node are accepted and silently dropped (a machine that died mid-beat
// acknowledges nothing), request/response exchanges fail fast with
// ErrUnreachable (the RST a dead peer's kernel would send), and the
// victim's own outbound traffic vanishes the same way — its runtime may
// keep running in-process, but nothing it emits can prove it alive.
// Unlike Deregister the victim never reports ErrUnknownNode — to senders
// it is indistinguishable from a live-but-silent peer, which is exactly
// what a failure detector must cope with (§4.2). A kill lasts until
// ReviveNode (the restart chaos hook); without one it is permanent for the
// network's lifetime.
func (n *Network) KillNode(node ids.NodeID) { n.setKilled(node, true) }

// ReviveNode lifts a KillNode blackhole: the restart chaos hook for
// crash-recovery tests, modelling the machine coming back up under the
// same identity. The revived node's handler registration is untouched —
// a restarting runtime re-registers itself anyway.
func (n *Network) ReviveNode(node ids.NodeID) { n.setKilled(node, false) }

// setKilled replaces the copy-on-write killed set by one with node in it
// or out of it.
func (n *Network) setKilled(node ids.NodeID, killed bool) {
	n.killMu.Lock()
	defer n.killMu.Unlock()
	next := make(map[ids.NodeID]struct{})
	if old := n.killed.Load(); old != nil {
		for k := range *old {
			next[k] = struct{}{}
		}
	}
	if killed {
		next[node] = struct{}{}
	} else {
		delete(next, node)
	}
	n.killed.Store(&next)
}

// isKilled reports whether node has been blackholed by KillNode.
func (n *Network) isKilled(node ids.NodeID) bool {
	m := n.killed.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[node]
	return ok
}

// Snapshot returns the accounted traffic so far.
func (n *Network) Snapshot() Counters {
	return n.counters.Snapshot()
}

// ResetCounters zeroes the traffic counters (used between benchmark phases).
func (n *Network) ResetCounters() {
	n.counters.Reset()
}

// route is the step Send, SendBatch and Call share: it resolves dst's
// handler and, for a remote dst, the pair's delivery queue, in one shard
// critical section (queues are sharded by destination, so both live in the
// same shard). A nil queue means same-node traffic, delivered directly and
// not accounted (paper §5). Failures come in a fixed order: errKilled, then
// ErrClosed, ErrUnknownNode, and only then ErrUnreachable, so an unknown
// node behind the reachability rules still reports itself unknown.
func (n *Network) route(src, dst ids.NodeID) (Handler, *pairQueue, error) {
	if n.isKilled(dst) || n.isKilled(src) {
		return nil, nil, errKilled
	}
	reachable := src == dst || n.cfg.Reachable == nil || n.cfg.Reachable(src, dst)
	s := n.shardFor(dst)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n.closed.Load() {
		return nil, nil, ErrClosed
	}
	h, ok := s.nodes[dst]
	switch {
	case !ok:
		return nil, nil, fmt.Errorf("%w: %v", ErrUnknownNode, dst)
	case src == dst:
		return h, nil, nil
	case !reachable:
		return nil, nil, fmt.Errorf("%w: %v -> %v", ErrUnreachable, src, dst)
	}
	key := pairKey{src: src, dst: dst}
	q, okQ := s.queues[key]
	if !okQ {
		q = &pairQueue{net: n, handling: s.handling[dst]}
		s.queues[key] = q
	}
	return h, q, nil
}

// errKilled is route's report of traffic from or to a KillNode victim. A
// killed machine acknowledges nothing and emits nothing: one-way traffic
// is accepted and the bytes vanish (not accounted — they never hit a
// wire), while an exchange fails fast like a connection reset, the signal
// failure detectors feed on. The source side matters for detection tests:
// a victim's own runtime keeps trying to send until its goroutines are
// reaped, and none of that may prove it alive.
var errKilled = fmt.Errorf("%w (killed)", ErrUnreachable)

// oneWay is a one-way send's view of a route error: traffic touching a
// killed node is dropped silently.
func oneWay(err error) error {
	if err == errKilled {
		return nil
	}
	return err
}

// deliverAt is linkSchedule from now. A link with no latency and no
// interface costs is due at once: the zero Time, and no clock read.
func (n *Network) deliverAt(src, dst ids.NodeID, bytes int) time.Time {
	if n.txFree == nil && n.cfg.Latency(src, dst) == 0 {
		return time.Time{}
	}
	return n.linkSchedule(time.Now(), src, dst, bytes)
}

// linkSchedule computes when a message of the given size, sent at now,
// reaches dst's handler: it claims the next free slot on src's outbound
// interface, travels the pair latency, then claims the next free slot
// on dst's inbound interface (store-and-forward). With no interface
// costs configured this degenerates to now + latency. Per-interface
// times are monotone, so FIFO order within a pair is preserved.
func (n *Network) linkSchedule(now time.Time, src, dst ids.NodeID, bytes int) time.Time {
	if n.txFree == nil {
		return now.Add(n.cfg.Latency(src, dst))
	}
	occ := n.cfg.PerMessage + time.Duration(bytes)*n.cfg.PerByte
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	tx := n.txFree[src]
	if tx.Before(now) {
		tx = now
	}
	tx = tx.Add(occ)
	n.txFree[src] = tx
	arrive := tx.Add(n.cfg.Latency(src, dst))
	rx := n.rxFree[dst]
	if rx.Before(arrive) {
		rx = arrive
	}
	rx = rx.Add(occ)
	n.rxFree[dst] = rx
	return rx
}

// Endpoint is a node's attachment point to the network. It implements
// transport.Endpoint.
type Endpoint struct {
	net      *Network
	node     ids.NodeID
	handling *atomic.Int32 // deliveries to node running now
}

// Node returns the endpoint's node identifier.
func (e *Endpoint) Node() ids.NodeID { return e.node }

// Send transmits a one-way message to dst with FIFO ordering relative to
// all other traffic from this node to dst.
func (e *Endpoint) Send(dst ids.NodeID, class Class, payload []byte) error {
	h, q, err := e.net.route(e.node, dst)
	switch {
	case err != nil:
		return oneWay(err)
	case q == nil:
		h.HandleOneWay(e.node, class, payload)
		return nil
	}
	e.net.counters.Account(class, len(payload))
	return q.push(item{
		deliverAt: e.net.deliverAt(e.node, dst, len(payload)),
		fn:        func() { h.HandleOneWay(e.node, class, payload) },
	}, e.handling)
}

// SendBatch transmits several one-way messages to dst as one delivery:
// the whole batch pays the pair latency once and is handed to the
// destination handler message by message, in order, without releasing the
// pair's FIFO slot in between. Accounting stays per inner message and per
// class, so the §5 counters are identical to the unbatched path.
func (e *Endpoint) SendBatch(dst ids.NodeID, items []transport.BatchItem) error {
	if len(items) == 0 {
		return nil
	}
	h, q, err := e.net.route(e.node, dst)
	switch {
	case err != nil:
		return oneWay(err)
	case q == nil:
		for _, it := range items {
			h.HandleOneWay(e.node, it.Class, it.Payload)
		}
		return nil
	}
	total := 0
	for _, it := range items {
		e.net.counters.Account(it.Class, len(it.Payload))
		total += len(it.Payload)
	}
	batch := items[:len(items):len(items)]
	// One frame on the wire: the batch pays the fixed interface cost
	// once, plus bandwidth for every byte in it.
	return q.push(item{
		deliverAt: e.net.deliverAt(e.node, dst, total),
		fn: func() {
			for _, it := range batch {
				h.HandleOneWay(e.node, it.Class, it.Payload)
			}
		},
	}, e.handling)
}

// Call performs a request/response exchange with dst. The response travels
// back over the same logical connection, so it is permitted even when the
// reachability rules forbid dst → src connections.
func (e *Endpoint) Call(dst ids.NodeID, class Class, payload []byte) ([]byte, error) {
	h, q, err := e.net.route(e.node, dst)
	switch {
	case err != nil:
		return nil, err
	case q == nil:
		return h.HandleCall(e.node, class, payload), nil
	}
	e.net.counters.Account(class, len(payload))
	done := make(chan []byte, 1)
	err = q.push(item{
		deliverAt: e.net.deliverAt(e.node, dst, len(payload)),
		fn:        func() { done <- h.HandleCall(e.node, class, payload) },
	}, e.handling)
	if err != nil {
		return nil, err
	}
	resp := <-done
	// The response pays the return latency on the same connection.
	if l := e.net.cfg.Latency(dst, e.node); l > 0 {
		time.Sleep(l)
	}
	e.net.counters.Account(class, len(resp))
	return resp, nil
}

// item is one queued delivery.
type item struct {
	deliverAt time.Time // zero: due at once
	fn        func()
}

// inlineBudget bounds how many deliveries a sender makes on its own
// goroutine before it hands the rest of the pair's backlog to one.
const inlineBudget = 64

// pairQueue delivers items for one ordered node pair in FIFO order, each no
// earlier than its deliverAt time. It owns no goroutine: the sender that
// finds no delivery running delivers the due items itself, up to
// inlineBudget, and hands what is left to one goroutine, or to a timer
// when the head is not due yet. busy marks a delivery in progress and
// holds one count of net.wg, so Close waits for it.
type pairQueue struct {
	net      *Network
	handling *atomic.Int32 // the destination's
	mu       sync.Mutex
	items    []item
	busy     bool
}

// push queues it and, unless a delivery is running, delivers; from counts
// the handlers of the sender's node running now. While one runs, possibly
// on this goroutine, the delivery goes to a goroutine: a handler nested
// inside that one could make a Call that waits on a pair this goroutine
// is still delivering.
func (q *pairQueue) push(it item, from *atomic.Int32) error {
	q.mu.Lock()
	if q.net.closed.Load() {
		q.mu.Unlock()
		return ErrClosed
	}
	q.items = append(q.items, it)
	if q.busy {
		q.mu.Unlock()
		return nil
	}
	q.busy = true
	q.net.wg.Add(1)
	q.mu.Unlock()
	if from.Load() > 0 {
		go q.deliver(-1)
	} else {
		q.deliver(inlineBudget)
	}
	return nil
}

// deliver runs due items in order until the queue is empty, the head is
// not due yet (a timer resumes), or budget deliveries are made (a goroutine
// resumes); budget < 0 means no bound. The caller owns busy.
func (q *pairQueue) deliver(budget int) {
	for ; ; budget-- {
		q.mu.Lock()
		if len(q.items) == 0 {
			q.items = nil
			q.busy = false
			q.mu.Unlock()
			q.net.wg.Done()
			return
		}
		it := q.items[0]
		if !it.deliverAt.IsZero() && time.Now().Before(it.deliverAt) {
			time.AfterFunc(time.Until(it.deliverAt), func() { q.deliver(-1) })
			q.mu.Unlock()
			return
		}
		if budget == 0 {
			go q.deliver(-1)
			q.mu.Unlock()
			return
		}
		q.items[0] = item{}
		q.items = q.items[1:]
		q.mu.Unlock()
		q.handling.Add(1)
		it.fn()
		q.handling.Add(-1)
	}
}
