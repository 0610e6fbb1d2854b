// Package transport defines the substrate contract the active-object
// runtime communicates over, abstracting the properties the paper's
// algorithm depends on away from any concrete network:
//
//   - FIFO ordered delivery per (source, destination) pair, like the TCP
//     connections of RMI ("DGC messages and responses cannot race with
//     application messages as they are sent over the same FIFO
//     connection", §3.2);
//   - request/response exchange over the connection opened by the caller,
//     so a referenced activity never needs connectivity back to its
//     referencers (firewall/NAT asymmetry, §2.2);
//   - a MaxComm upper bound on one-way communication time, the input of
//     the §3.1 TTA formula;
//   - payload byte accounting per traffic class, the stand-in for the
//     paper's instrumented SOCKS proxy (§5).
//
// Two implementations exist: internal/simnet (in-memory, with injectable
// latency and reachability, used by tests and the paper-scale
// reproductions) and internal/tcpnet (real TCP with length-prefixed
// framing, used to run the runtime multi-process). internal/active
// depends only on this package, so the two are interchangeable per
// environment; the conformance suite in internal/active runs the same
// runtime and DGC scenarios over both.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ids"
)

// Class partitions traffic for accounting, mirroring how the paper
// separates application payload from DGC overhead.
type Class uint8

// Traffic classes.
const (
	// ClassApp is application traffic: requests and their payloads.
	ClassApp Class = iota + 1
	// ClassDGC is DGC messages and DGC responses.
	ClassDGC
	// ClassFuture is future-update traffic (results flowing back).
	ClassFuture
	// ClassCluster is membership and liveness traffic: join/lease
	// exchanges, node-up/dead/left gossip and suspect-path health probes.
	ClassCluster
	// NumClasses is the number of defined classes; valid classes are
	// 1..NumClasses.
	NumClasses = 4
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassApp:
		return "app"
	case ClassDGC:
		return "dgc"
	case ClassFuture:
		return "future"
	case ClassCluster:
		return "cluster"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Errors shared by all transport implementations, so the runtime and the
// conformance tests can match failures with errors.Is regardless of the
// backend in use.
var (
	// ErrUnreachable indicates the reachability rules forbid src → dst.
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrUnknownNode indicates the destination was never registered (or
	// has been deregistered, e.g. by a simulated crash).
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrClosed indicates the transport has been shut down.
	ErrClosed = errors.New("transport: closed")
)

// Handler receives traffic on behalf of a node. Implementations must be
// safe for concurrent use: distinct senders deliver concurrently (only
// per-pair ordering is guaranteed).
//
// Delivery may run on the sending goroutine (internal/simnet delivers
// there when the pair is idle), so a sender must hold no lock that a
// handler could take. A handler must not block on a Call whose answer
// needs a later delivery on a pair it is itself being delivered on: over
// TCP as over simnet, that pair's deliveries wait for it to return.
//
// Payload slices are owned by the transport and valid only for the
// duration of the call: a handler that needs bytes beyond its return must
// copy them. (The runtime's envelope decoders copy everything they keep,
// which is what lets the TCP backend serve a connection from one reused
// read buffer.)
type Handler interface {
	// HandleOneWay processes a one-way message.
	HandleOneWay(from ids.NodeID, class Class, payload []byte)
	// HandleCall processes a request/response exchange and returns the
	// response payload, which travels back over the same connection. A nil
	// response is valid and means "nothing to say" (e.g. the target
	// activity is gone).
	HandleCall(from ids.NodeID, class Class, payload []byte) []byte
}

// Counters is a snapshot of accounted traffic. Accounting happens at the
// sending endpoint: a one-way message counts its payload once, a call
// counts the request payload and the response payload (both at the
// caller). Intra-node traffic is delivered directly and never accounted,
// as in the paper (§5).
type Counters struct {
	// Bytes maps each class to total payload bytes (both directions of
	// calls included).
	Bytes map[Class]uint64
	// Messages maps each class to the number of payloads transferred.
	Messages map[Class]uint64
}

// Total returns the total accounted bytes across classes.
func (c Counters) Total() uint64 {
	var t uint64
	for _, b := range c.Bytes {
		t += b
	}
	return t
}

// CounterSet is the shared per-class accounting state of a transport
// implementation: both backends embed one so the §5 traffic counters
// cannot diverge structurally. The zero value is ready to use; all
// methods are safe for concurrent use.
type CounterSet struct {
	mu       sync.Mutex
	bytes    [NumClasses + 1]uint64
	messages [NumClasses + 1]uint64
}

// Account records one transferred payload of the given class. Classes
// outside 1..NumClasses are ignored.
func (c *CounterSet) Account(class Class, size int) {
	if class == 0 || class > NumClasses {
		return
	}
	c.mu.Lock()
	c.bytes[class] += uint64(size)
	c.messages[class]++
	c.mu.Unlock()
}

// Unaccount reverses one Account call (e.g. a request whose peer reported
// the destination unknown — an exchange simnet never accounts). It
// saturates at zero so a Reset racing an in-flight exchange cannot
// underflow the counters.
func (c *CounterSet) Unaccount(class Class, size int) {
	if class == 0 || class > NumClasses {
		return
	}
	c.mu.Lock()
	if c.bytes[class] >= uint64(size) {
		c.bytes[class] -= uint64(size)
	} else {
		c.bytes[class] = 0
	}
	if c.messages[class] > 0 {
		c.messages[class]--
	}
	c.mu.Unlock()
}

// Snapshot returns the accounted traffic so far.
func (c *CounterSet) Snapshot() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Counters{Bytes: make(map[Class]uint64), Messages: make(map[Class]uint64)}
	for cls := Class(1); cls <= NumClasses; cls++ {
		out.Bytes[cls] = c.bytes[cls]
		out.Messages[cls] = c.messages[cls]
	}
	return out
}

// Reset zeroes the counters (used between benchmark phases).
func (c *CounterSet) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.bytes {
		c.bytes[i] = 0
		c.messages[i] = 0
	}
}

// Endpoint is one node's attachment point to the substrate, returned by
// Transport.Register. All methods are safe for concurrent use.
type Endpoint interface {
	// Node returns the endpoint's node identifier.
	Node() ids.NodeID

	// Send transmits a one-way message to dst with FIFO ordering relative
	// to all other traffic from this node to dst. Send may return before
	// the message is delivered; delivery is not acknowledged (per §4.1 a
	// lost future update cannot wake anything, and a lost DGC beat is
	// absorbed by the TTA slack).
	Send(dst ids.NodeID, class Class, payload []byte) error

	// Call performs a request/response exchange with dst, blocking until
	// the response arrives. The response travels back over the connection
	// the caller opened, so Call works even when the reachability rules
	// (or a real firewall) forbid dst → src connections. Call traffic is
	// FIFO-ordered with Send traffic to the same destination, and the
	// exchange occupies the connection: later messages from this node to
	// dst are not delivered before the handler returns (§3.2's "DGC
	// messages and responses cannot race with application messages").
	Call(dst ids.NodeID, class Class, payload []byte) ([]byte, error)
}

// ProcessCaller is an optional Transport extension for substrates whose
// processes are addressable independently of the nodes they host (tcpnet:
// one listener per process). It is what cluster bootstrap rides on — a
// joining process must exchange messages with a seed before it owns any
// node identifier. Frames addressed to node 0 (the reserved identifier)
// are process-addressed and delivered to the handler installed with
// SetProcessHandler. The runtime type-asserts its Transport against this
// interface; substrates without process addressing (simnet: one process,
// no bootstrap problem) simply don't implement it.
type ProcessCaller interface {
	// Addr returns the address other processes can reach this one at.
	Addr() string

	// CallAddr performs one request/response exchange with the process
	// listening at addr, without needing any node identifier: a one-shot
	// connection carrying a single process-addressed call. Used for
	// join/lease bootstrap and membership gossip (rare traffic; the
	// per-exchange dial is deliberate simplicity, not a hot path).
	CallAddr(addr string, class Class, payload []byte) ([]byte, error)

	// SetProcessHandler installs the handler for process-addressed
	// frames (destination node 0).
	SetProcessHandler(h Handler)

	// AddPeer maps a node hosted by another process to that process's
	// address (learned from join responses and node-up gossip).
	AddPeer(node ids.NodeID, addr string)

	// RemovePeer forgets a node's address and closes the per-peer
	// connection state — the churn-hygiene counterpart of AddPeer.
	RemovePeer(node ids.NodeID)
}

// Transport is a network substrate instance: the set of connections one
// process (or one simulated world) communicates over. Implementations
// must provide per-pair FIFO, caller-opened exchanges, and per-class
// accounting as documented on Endpoint and Counters.
type Transport interface {
	// Register attaches a handler for node and returns its endpoint.
	// Replacing an existing registration is allowed (used when a node
	// restarts in tests).
	Register(node ids.NodeID, h Handler) Endpoint

	// Deregister detaches a node: subsequent traffic toward it fails with
	// ErrUnknownNode (when the sender can tell) or is dropped. Used to
	// simulate machine crashes (§4.2: an undetected failure is
	// indistinguishable from silence for the DGC).
	Deregister(node ids.NodeID)

	// MaxComm returns an upper bound on one-way communication time, the
	// input of the §3.1 TTA formula.
	MaxComm() time.Duration

	// Snapshot returns the accounted traffic so far.
	Snapshot() Counters

	// ResetCounters zeroes the traffic counters (used between benchmark
	// phases).
	ResetCounters()

	// Close stops delivery and releases the substrate's resources
	// (goroutines, sockets). Pending and subsequent operations fail with
	// ErrClosed. Close is idempotent.
	Close()
}
