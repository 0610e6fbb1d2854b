// Package tcpnet implements the transport.Transport contract over real
// TCP connections, so the active-object runtime and its DGC run unchanged
// across processes and machines.
//
// The paper's algorithm needs nothing from the network beyond what §2.2
// and §3.2 assume, and this package provides exactly that:
//
//   - one persistent connection per (source node, destination node) pair,
//     giving FIFO ordering for all traffic of a pair — DGC messages and
//     responses cannot race with application messages (§3.2);
//   - request/response exchanges multiplexed over the connection the
//     caller opened, identified by a per-connection sequence number, so a
//     referenced activity responds without ever connecting back to its
//     referencers (firewall/NAT asymmetry, §2.2);
//   - automatic reconnect: a broken connection fails its in-flight calls
//     (the TTA machinery absorbs the silence) and the next send dials a
//     fresh connection;
//   - per-class payload byte accounting at the sending endpoint,
//     Snapshot-compatible with internal/simnet so the §5 traffic
//     instrumentation works identically on both substrates.
//
// One Network instance represents one process: it serves every node
// registered on it from a single listener, demultiplexing inbound frames
// by destination node. Nodes living in other processes are resolved
// through one address book, filled by AddPeer, by the hello frame that
// opens every inbound connection, and by the cluster's join and gossip
// traffic. Pairs whose two ends live in the same process still
// communicate over real (loopback) TCP — only node-to-itself traffic
// takes the direct unaccounted path, exactly like simnet's intra-process
// delivery.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// Config parameterizes a Network.
type Config struct {
	// Listen is the TCP address to serve this process's nodes on.
	// Defaults to "127.0.0.1:0" (an ephemeral loopback port; read the
	// bound address back with Addr).
	Listen string
	// MaxComm is the upper bound on one-way communication time fed to the
	// DGC deadline formula (§3.1). Unlike simnet the transport cannot
	// derive it from a latency model, so it must be configured for the
	// deployment; it defaults to 5ms, a comfortable bound for loopback
	// and LAN.
	MaxComm time.Duration
	// CallTimeout bounds one request/response exchange, so a hung peer
	// (partition without RST, stopped process) cannot wedge a caller —
	// in particular the DGC driver, whose stalled beats would delay
	// every activity of its node. A timed-out call fails like any other
	// transport error and the TTA machinery absorbs it (§4.2). Defaults
	// to 5s; negative disables the bound.
	CallTimeout time.Duration
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// ErrCallTimeout reports a call that exceeded Config.CallTimeout without
// a response. Check with errors.Is.
var ErrCallTimeout = errors.New("tcpnet: call timed out")

// Network is one process's TCP substrate. Create with New, attach the
// process's nodes with Register, stop with Close. It implements
// transport.Transport.
type Network struct {
	cfg  Config
	ln   net.Listener
	addr string // ln's address, formatted once: route hands it out per send

	mu       sync.Mutex
	handlers map[ids.NodeID]transport.Handler
	// processHandler receives process-addressed frames (destination node
	// 0): the cluster bootstrap and gossip traffic of WIRE.md §8.
	processHandler transport.Handler
	peers          map[ids.NodeID]string
	conns          map[pairKey]*clientConn
	inbound        map[net.Conn]struct{}
	closed         bool

	wg sync.WaitGroup

	counters transport.CounterSet
}

var _ transport.Transport = (*Network)(nil)
var _ transport.BatchSender = (*endpoint)(nil)
var _ transport.ProcessCaller = (*Network)(nil)

// bufPool recycles frame encode buffers: the send path's steady state
// allocates nothing per message (the buffer goes straight to the
// connection and is returned once the write has).
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// pairKey identifies one ordered (source, destination) node pair; each
// pair owns one persistent connection.
type pairKey struct {
	src, dst ids.NodeID
}

// New creates a Network listening on cfg.Listen and starts its accept
// loop.
func New(cfg Config) (*Network, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.MaxComm == 0 {
		cfg.MaxComm = 5 * time.Millisecond
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
	}
	n := &Network{
		cfg:      cfg,
		ln:       ln,
		addr:     ln.Addr().String(),
		handlers: make(map[ids.NodeID]transport.Handler),
		peers:    make(map[ids.NodeID]string),
		conns:    make(map[pairKey]*clientConn),
		inbound:  make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the address the listener is bound to (useful with an
// ephemeral Listen port: other processes pass it to AddPeer).
func (n *Network) Addr() string { return n.addr }

// MaxComm returns the configured upper bound on one-way communication
// time.
func (n *Network) MaxComm() time.Duration { return n.cfg.MaxComm }

// AddPeer maps a node hosted by another process to the TCP address its
// Network listens on, adding to (or correcting) the address book. Nodes
// registered locally need no entry: they resolve to this process's own
// listener, and a node in neither place is unknown. The pair's next dial
// uses the new address; established connections are unaffected.
func (n *Network) AddPeer(node ids.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[node] = addr
}

// RemovePeer forgets a node's address-book entry and closes the per-peer
// connection state: every pooled outbound connection toward the node is
// failed (its in-flight calls error out) and removed. Without this, peer
// entries and dial state would accumulate forever under cluster churn.
// Inbound connections are untouched — they are per remote process, not
// per node, and die with their dialer.
func (n *Network) RemovePeer(node ids.NodeID) {
	n.mu.Lock()
	delete(n.peers, node)
	var doomed []*clientConn
	for key, cc := range n.conns {
		if key.dst == node {
			doomed = append(doomed, cc)
		}
	}
	n.mu.Unlock()
	for _, cc := range doomed {
		cc.fail(fmt.Errorf("tcpnet: peer %v removed", node))
	}
}

// SetProcessHandler installs the handler for process-addressed frames
// (destination node 0). It implements transport.ProcessCaller.
func (n *Network) SetProcessHandler(h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.processHandler = h
}

// CallAddr performs one request/response exchange with the process
// listening at addr, with no node identifier involved: a one-shot
// connection carrying a single process-addressed call. This is how a
// joining process reaches a seed before it owns any node ID, and how
// membership gossip travels between processes — rare control traffic,
// so the per-exchange dial is deliberate simplicity.
func (n *Network) CallAddr(addr string, class transport.Class, payload []byte) ([]byte, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, transport.ErrClosed
	}
	n.mu.Unlock()
	if len(payload) > maxPayloadSize {
		return nil, fmt.Errorf("tcpnet: payload %d bytes exceeds frame limit %d", len(payload), maxPayloadSize)
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
	}
	defer func() { _ = c.Close() }()
	bp := getBuf()
	enc := appendFrame((*bp)[:0], frame{typ: frameCall, class: class, seq: 1, payload: payload})
	_, werr := c.Write(enc)
	*bp = enc[:0]
	putBuf(bp)
	if werr != nil {
		return nil, werr
	}
	n.counters.Account(class, len(payload))
	if n.cfg.CallTimeout > 0 {
		_ = c.SetReadDeadline(time.Now().Add(n.cfg.CallTimeout))
	}
	f, err := readFrame(bufio.NewReader(c))
	if err != nil {
		n.counters.Unaccount(class, len(payload))
		return nil, fmt.Errorf("tcpnet: call %s: %w", addr, err)
	}
	if f.typ != frameResponse {
		n.counters.Unaccount(class, len(payload))
		return nil, fmt.Errorf("tcpnet: call %s: unexpected frame type %d", addr, f.typ)
	}
	if f.flags&flagUnknownNode != 0 {
		// The remote process has no process handler installed.
		n.counters.Unaccount(class, len(payload))
		return nil, fmt.Errorf("%w: process at %s", transport.ErrUnknownNode, addr)
	}
	n.counters.Account(class, len(f.payload))
	return f.payload, nil
}

// Register attaches a handler for node and returns its endpoint.
// Replacing an existing registration is allowed.
func (n *Network) Register(node ids.NodeID, h transport.Handler) transport.Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[node] = h
	return &endpoint{net: n, node: node}
}

// Deregister detaches a node: inbound frames for it are dropped (calls
// are answered with an unknown-node response) and, absent an AddPeer entry,
// local senders fail with transport.ErrUnknownNode. Used to simulate
// machine crashes.
func (n *Network) Deregister(node ids.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, node)
}

// Snapshot returns the accounted traffic so far. Accounting happens at
// the sending endpoint, so in a multi-process deployment each process
// sees the traffic its nodes originated (calls include the response bytes
// they pulled back).
func (n *Network) Snapshot() transport.Counters {
	return n.counters.Snapshot()
}

// ResetCounters zeroes the traffic counters.
func (n *Network) ResetCounters() {
	n.counters.Reset()
}

// Close stops the listener, closes every connection (failing in-flight
// calls with transport.ErrClosed) and waits for the network's goroutines
// to exit.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	outbound := make([]*clientConn, 0, len(n.conns))
	for _, cc := range n.conns {
		outbound = append(outbound, cc)
	}
	n.conns = make(map[pairKey]*clientConn)
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()

	_ = n.ln.Close()
	for _, cc := range outbound {
		cc.fail(transport.ErrClosed)
	}
	for _, c := range inbound {
		_ = c.Close()
	}
	n.wg.Wait()
}

// DropConnections forcibly closes every established connection, outbound
// and inbound, without touching the listener or the registered handlers:
// in-flight calls fail, and the next send of each pair dials afresh. It
// simulates a transient network failure (the §4.2 silence the TTA slack
// absorbs) and is the chaos hook the reconnect conformance scenarios and
// the soak subsystem's churn mix are built on.
func (n *Network) DropConnections() {
	n.mu.Lock()
	outbound := make([]*clientConn, 0, len(n.conns))
	for _, cc := range n.conns {
		outbound = append(outbound, cc)
	}
	inbound := make([]net.Conn, 0, len(n.inbound))
	for c := range n.inbound {
		inbound = append(inbound, c)
	}
	n.mu.Unlock()
	for _, cc := range outbound {
		cc.fail(errors.New("tcpnet: connection dropped"))
	}
	for _, c := range inbound {
		_ = c.Close()
	}
}

// dispatchHandler resolves an inbound frame's destination: node handlers
// for registered nodes, the process handler for the reserved node 0.
func (n *Network) dispatchHandler(dst ids.NodeID) (transport.Handler, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if dst == 0 {
		return n.processHandler, n.processHandler != nil
	}
	h, ok := n.handlers[dst]
	return h, ok
}

// route is the step Send, SendBatch and Call share. Failures come in a
// fixed order: ErrClosed, then ErrUnknownNode, then the payload limit. A
// same-node dst resolves to its handler, delivered to directly and not
// accounted (paper §5, as on simnet); a remote one to the TCP address
// serving it — the address book for nodes of other processes, this
// process's own listener for local ones. size is the largest payload the
// caller will put in one frame.
func (n *Network) route(src, dst ids.NodeID, size int) (transport.Handler, string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, "", transport.ErrClosed
	}
	h, local := n.handlers[dst]
	addr, remote := n.peers[dst]
	switch {
	case src == dst && local:
		return h, "", nil
	case src == dst || !local && !remote:
		return nil, "", fmt.Errorf("%w: %v", transport.ErrUnknownNode, dst)
	case size > maxPayloadSize:
		return nil, "", fmt.Errorf("tcpnet: payload %d bytes exceeds frame limit %d", size, maxPayloadSize)
	case !remote:
		addr = n.addr
	}
	return nil, addr, nil
}

// ---------------------------------------------------------------------------
// Server side: accept inbound connections and serve their frames.

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = c.Close()
			return
		}
		n.inbound[c] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serveConn(c)
	}
}

// serveConn processes one inbound connection. Frames are handled strictly
// sequentially: this is what turns the one-connection-per-pair invariant
// into per-pair FIFO delivery, and what makes a call exchange occupy the
// connection until its handler returns (§3.2). The read buffer is reused
// across frames (handlers must not retain payloads, per the
// transport.Handler contract), so a busy connection's steady state
// allocates nothing per message.
func (n *Network) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
		_ = c.Close()
	}()
	r := bufio.NewReader(c)
	var buf []byte
	for {
		var f frame
		var err error
		f, buf, err = readFrameReuse(r, buf)
		if err != nil {
			return
		}
		switch f.typ {
		case frameHello:
			// The peer process introduces itself: record how to dial the
			// source node back, replacing the out-of-band AddPeer dance.
			if f.src != 0 && len(f.payload) > 0 {
				n.AddPeer(f.src, string(f.payload))
			}
		case frameOneWay:
			if h, ok := n.dispatchHandler(f.dst); ok {
				h.HandleOneWay(f.src, f.class, f.payload)
			}
			// No handler: drop, like a crashed machine would.
		case frameBatch:
			// One frame, many messages: deliver sequentially, preserving
			// the pair's FIFO order. A corrupt envelope kills the
			// connection like any other framing violation.
			h, ok := n.dispatchHandler(f.dst)
			if err := transport.WalkBatch(f.payload, func(class transport.Class, payload []byte) {
				if ok {
					h.HandleOneWay(f.src, class, payload)
				}
			}); err != nil {
				return
			}
		case frameCall:
			resp := frame{typ: frameResponse, class: f.class, src: f.dst, dst: f.src, seq: f.seq}
			if h, ok := n.dispatchHandler(f.dst); ok {
				resp.payload = h.HandleCall(f.src, f.class, f.payload)
			} else {
				resp.flags = flagUnknownNode
			}
			rb := getBuf()
			enc := appendFrame((*rb)[:0], resp)
			_, werr := c.Write(enc)
			*rb = enc[:0]
			putBuf(rb)
			if werr != nil {
				return
			}
		default:
			return // responses never arrive on inbound connections
		}
	}
}

// ---------------------------------------------------------------------------
// Client side: one persistent outbound connection per pair.

// callResult is what a pending call receives from the connection's read
// loop.
type callResult struct {
	payload []byte
	flags   byte
	err     error
}

// clientConn is the outbound connection of one (src, dst) pair. Writes
// are serialized by wmu (preserving FIFO among the pair's senders);
// responses are matched to pending calls by sequence number in readLoop.
type clientConn struct {
	net *Network
	key pairKey
	c   net.Conn

	wmu sync.Mutex // serializes frame writes

	seq atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan callResult
	dead    bool
	err     error
}

// conn returns the pair's live connection, dialing a fresh one if needed.
func (n *Network) conn(key pairKey, addr string) (*clientConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if cc, ok := n.conns[key]; ok {
		n.mu.Unlock()
		return cc, nil
	}
	n.mu.Unlock()

	// Dial outside the lock; losing the race to a concurrent dialer just
	// closes the extra connection.
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %v via %s: %w", key.dst, addr, err)
	}
	cc := &clientConn{
		net:     n,
		key:     key,
		c:       c,
		pending: make(map[uint64]chan callResult),
	}
	// Introduce this process before any payload frame: the receiver
	// learns the dial-back address of the source node from the hello, so
	// return-path traffic needs no out-of-band AddPeer. The connection is
	// not pooled yet, so the hello is guaranteed to be its first frame.
	if err := cc.writeFrame(frame{typ: frameHello, src: key.src, dst: key.dst, payload: []byte(n.Addr())}); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("tcpnet: hello %v via %s: %w", key.dst, addr, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = c.Close()
		return nil, transport.ErrClosed
	}
	if prior, ok := n.conns[key]; ok {
		n.mu.Unlock()
		_ = c.Close()
		return prior, nil
	}
	n.conns[key] = cc
	n.wg.Add(1)
	n.mu.Unlock()
	go cc.readLoop()
	return cc, nil
}

// writeFrame sends one frame, serialized against the pair's other
// senders. The encode buffer is pooled: one frame costs zero allocations
// in steady state.
func (cc *clientConn) writeFrame(f frame) error {
	bp := getBuf()
	enc := appendFrame((*bp)[:0], f)
	err := cc.writeBytes(enc)
	*bp = enc[:0]
	putBuf(bp)
	return err
}

// writeBatch sends items as one batch frame through vectored I/O: only
// the frame header and the per-item batch headers are materialized (into
// one pooled buffer); the payload bytes go to the kernel straight from the
// caller's slices via writev. A batch frame therefore costs one syscall
// and zero payload copies, no matter how many messages or bytes it
// carries. Payloads are borrowed only until the write returns — the
// transport retains nothing — which is the send-side mirror of the
// transport.Handler payload-ownership contract.
func (cc *clientConn) writeBatch(src, dst ids.NodeID, items []transport.BatchItem) error {
	bp := getBuf()
	hdr := (*bp)[:0]
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(frameHeaderLen+transport.BatchSize(items)))
	hdr = append(hdr, frameBatch, 0, 0)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(src))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(dst))
	hdr = binary.BigEndian.AppendUint64(hdr, 0)
	hdr = binary.AppendUvarint(hdr, uint64(len(items)))
	// cuts[i] is where the header bytes preceding item i's payload end.
	// The header segments are sliced out only after hdr is fully built:
	// append may move the backing array, which would invalidate any
	// subslice taken earlier.
	cuts := make([]int, len(items))
	for i, it := range items {
		hdr = append(hdr, byte(it.Class))
		hdr = binary.AppendUvarint(hdr, uint64(len(it.Payload)))
		cuts[i] = len(hdr)
	}
	bufs := make(net.Buffers, 0, 2*len(items))
	prev := 0
	for i := range items {
		bufs = append(bufs, hdr[prev:cuts[i]])
		prev = cuts[i]
		if len(items[i].Payload) > 0 {
			bufs = append(bufs, items[i].Payload)
		}
	}
	err := cc.writeVectored(bufs)
	*bp = hdr[:0]
	putBuf(bp)
	return err
}

// writeVectored writes the segments with one vectored write, serialized
// against the pair's other senders.
func (cc *clientConn) writeVectored(bufs net.Buffers) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.mu.Lock()
	if cc.dead {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	cc.mu.Unlock()
	_, err := bufs.WriteTo(cc.c)
	return err
}

// writeBytes writes one encoded frame to the socket, serialized against
// the pair's other senders.
func (cc *clientConn) writeBytes(enc []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.mu.Lock()
	if cc.dead {
		err := cc.err
		cc.mu.Unlock()
		return err
	}
	cc.mu.Unlock()
	_, err := cc.c.Write(enc)
	return err
}

// register allocates a call sequence number and its result channel.
func (cc *clientConn) register() (uint64, chan callResult, error) {
	seq := cc.seq.Add(1)
	ch := make(chan callResult, 1)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		return 0, nil, cc.err
	}
	cc.pending[seq] = ch
	return seq, ch, nil
}

// unregister abandons a pending call (used when its write failed).
func (cc *clientConn) unregister(seq uint64) {
	cc.mu.Lock()
	delete(cc.pending, seq)
	cc.mu.Unlock()
}

// readLoop delivers response frames to their pending calls until the
// connection dies.
func (cc *clientConn) readLoop() {
	defer cc.net.wg.Done()
	r := bufio.NewReader(cc.c)
	for {
		f, err := readFrame(r)
		if err != nil {
			cc.fail(fmt.Errorf("tcpnet: connection %v->%v: %w", cc.key.src, cc.key.dst, err))
			return
		}
		if f.typ != frameResponse {
			cc.fail(fmt.Errorf("tcpnet: connection %v->%v: unexpected frame type %d", cc.key.src, cc.key.dst, f.typ))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.seq]
		delete(cc.pending, f.seq)
		cc.mu.Unlock()
		if ok {
			ch <- callResult{payload: f.payload, flags: f.flags}
		}
	}
}

// await blocks for a call's result, bounded by timeout (if positive). On
// timeout the pending entry is dropped, so a late response is discarded
// by readLoop instead of reaching a caller that gave up.
func (cc *clientConn) await(seq uint64, ch chan callResult, timeout time.Duration) (callResult, error) {
	if timeout <= 0 {
		return <-ch, nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case res := <-ch:
		return res, nil
	case <-t.C:
		cc.unregister(seq)
		// The entry may have been resolved between the timer firing and
		// the unregister; prefer the result if it is already there.
		select {
		case res := <-ch:
			return res, nil
		default:
		}
		return callResult{}, fmt.Errorf("%w after %v", ErrCallTimeout, timeout)
	}
}

// fail marks the connection dead, fails its pending calls, closes the
// socket and removes the connection from the pool so the pair's next send
// dials afresh.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.err = err
	pending := cc.pending
	cc.pending = nil
	cc.mu.Unlock()

	_ = cc.c.Close()
	cc.net.mu.Lock()
	if cc.net.conns[cc.key] == cc {
		delete(cc.net.conns, cc.key)
	}
	cc.net.mu.Unlock()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}

// ---------------------------------------------------------------------------
// Endpoint.

// endpoint implements transport.Endpoint for one registered node.
type endpoint struct {
	net  *Network
	node ids.NodeID
}

// Node returns the endpoint's node identifier.
func (e *endpoint) Node() ids.NodeID { return e.node }

// Send transmits a one-way message to dst with FIFO ordering relative to
// all other traffic from this node to dst: sendChunk's one-item case, a
// plain frame.
func (e *endpoint) Send(dst ids.NodeID, class transport.Class, payload []byte) error {
	h, addr, err := e.net.route(e.node, dst, len(payload))
	switch {
	case err != nil:
		return err
	case h != nil:
		h.HandleOneWay(e.node, class, payload)
		return nil
	}
	return e.sendChunk(pairKey{src: e.node, dst: dst}, addr, []transport.BatchItem{{Class: class, Payload: payload}})
}

// SendBatch transmits several one-way messages to dst in one batch frame:
// one encode buffer, one write, one syscall, one receiver wake-up for the
// whole group, with FIFO preserved relative to the pair's other traffic.
// Groups whose payloads exceed the frame limit are split across several
// batch frames. Accounting stays per inner message and per class, so the
// §5 counters are identical to the unbatched path.
func (e *endpoint) SendBatch(dst ids.NodeID, items []transport.BatchItem) error {
	if len(items) == 0 {
		return nil
	}
	largest := 0
	for _, it := range items {
		largest = max(largest, len(it.Payload))
	}
	h, addr, err := e.net.route(e.node, dst, largest)
	switch {
	case err != nil:
		return err
	case h != nil:
		for _, it := range items {
			h.HandleOneWay(e.node, it.Class, it.Payload)
		}
		return nil
	}
	key := pairKey{src: e.node, dst: dst}
	for len(items) > 0 {
		chunk := items
		if transport.BatchSize(chunk) > maxPayloadSize {
			// Oversized group: take the longest prefix that fits one frame
			// (every payload fits alone, so progress is guaranteed).
			n, bytes := 0, 16
			for n < len(chunk) {
				sz := 1 + 10 + len(chunk[n].Payload)
				if n > 0 && bytes+sz > maxPayloadSize {
					break
				}
				bytes += sz
				n++
			}
			chunk = chunk[:n]
		}
		if err := e.sendChunk(key, addr, chunk); err != nil {
			return err
		}
		items = items[len(chunk):]
	}
	return nil
}

// sendChunk writes one frame-sized group — a lone item as a plain frame,
// several as one batch frame. The group is accounted before the write:
// whoever learns of a message through the receiver (a reply, a resolved
// future) must find it on the books already. A failed write moved no
// bytes and is refunded; since a dead pooled connection fails the first
// write, the group is retried once on a fresh dial, so a restarted peer
// is transparent to senders.
func (e *endpoint) sendChunk(key pairKey, addr string, chunk []transport.BatchItem) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cc, err := e.net.conn(key, addr)
		if err != nil {
			return err
		}
		for _, it := range chunk {
			e.net.counters.Account(it.Class, len(it.Payload))
		}
		if len(chunk) == 1 {
			f := frame{typ: frameOneWay, class: chunk[0].Class, src: key.src, dst: key.dst, payload: chunk[0].Payload}
			lastErr = cc.writeFrame(f)
		} else {
			lastErr = cc.writeBatch(key.src, key.dst, chunk)
		}
		if lastErr == nil {
			return nil
		}
		for _, it := range chunk {
			e.net.counters.Unaccount(it.Class, len(it.Payload))
		}
		cc.fail(lastErr)
	}
	return lastErr
}

// Call performs a request/response exchange with dst. The response comes
// back over this same connection, identified by the call's sequence
// number, so Call succeeds even when dst could never connect to this
// node.
func (e *endpoint) Call(dst ids.NodeID, class transport.Class, payload []byte) ([]byte, error) {
	h, addr, err := e.net.route(e.node, dst, len(payload))
	switch {
	case err != nil:
		return nil, err
	case h != nil:
		return h.HandleCall(e.node, class, payload), nil
	}
	key := pairKey{src: e.node, dst: dst}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cc, err := e.net.conn(key, addr)
		if err != nil {
			return nil, err
		}
		seq, ch, err := cc.register()
		if err != nil {
			lastErr = err
			continue // conn died since pooling; re-dial
		}
		f := frame{typ: frameCall, class: class, src: e.node, dst: dst, seq: seq, payload: payload}
		if err := cc.writeFrame(f); err != nil {
			cc.unregister(seq)
			cc.fail(err)
			lastErr = err
			continue
		}
		e.net.counters.Account(class, len(payload))
		res, err := cc.await(seq, ch, e.net.cfg.CallTimeout)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: call %v->%v: %w", e.node, dst, err)
		}
		if res.err != nil {
			// The request may have reached the peer: no blind retry, the
			// caller's machinery (TTA slack, future failure) owns it.
			return nil, res.err
		}
		if res.flags&flagUnknownNode != 0 {
			// simnet accounts nothing for a call to an unknown node;
			// refund the request so the §5 counters stay backend-identical
			// in crash scenarios.
			e.net.counters.Unaccount(class, len(payload))
			return nil, fmt.Errorf("%w: %v", transport.ErrUnknownNode, dst)
		}
		e.net.counters.Account(class, len(res.payload))
		return res.payload, nil
	}
	return nil, lastErr
}
