package transport

// Batch envelope and flusher: the hot-path machinery that lets
// co-destination one-way messages travel in one frame.
//
// The paper's runtime pays one envelope per asynchronous call, future
// update and DGC beat; at scale the per-message overhead (frame header,
// syscall, queue wake-up) bounds throughput long before payload bytes do.
// The batch envelope packs any number of (class, payload) messages of one
// ordered (source, destination) pair into a single transport frame, and
// the Flusher is the per-pair smart-batching engine that decides when a
// frame is full enough to go.
//
// The envelope is backend-independent (WIRE.md §5 is the normative spec);
// internal/simnet delivers it as one queue item, internal/tcpnet as one
// TCP frame. Accounting stays per inner message and per class, so the §5
// traffic counters are identical whether a message travelled alone or
// batched — only frame overhead (never accounted, like frame headers)
// changes.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
)

// BatchItem is one message inside a batch envelope.
type BatchItem struct {
	// Class is the traffic class of this message.
	Class Class
	// Payload is the message body (a runtime envelope, opaque here).
	Payload []byte
}

// BatchSender is implemented by endpoints that can ship several one-way
// messages to one destination in a single frame. Both built-in backends
// implement it; the Flusher falls back to sequential Send calls when the
// endpoint does not.
type BatchSender interface {
	// SendBatch transmits items to dst, in order, with FIFO ordering
	// relative to all other traffic from this endpoint to dst. Delivery
	// semantics per item match Send.
	SendBatch(dst ids.NodeID, items []BatchItem) error
}

// Batch envelope encoding (WIRE.md §5):
//
//	uvarint  count
//	count ×  1 byte class, uvarint payload length, payload bytes
//
// The envelope is the payload of a batch frame (tcpnet) or a single queue
// item (simnet); it never appears inside another envelope.

// AppendBatch encodes items after buf and returns the extended slice.
func AppendBatch(buf []byte, items []BatchItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = append(buf, byte(it.Class))
		buf = binary.AppendUvarint(buf, uint64(len(it.Payload)))
		buf = append(buf, it.Payload...)
	}
	return buf
}

// BatchSize returns the encoded size of the batch envelope for items.
func BatchSize(items []BatchItem) int {
	n := uvarintLen(uint64(len(items)))
	for _, it := range items {
		n += 1 + uvarintLen(uint64(len(it.Payload))) + len(it.Payload)
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// WalkBatch decodes a batch envelope, invoking fn once per message in
// order. The payload slices alias buf and are only valid during the call.
func WalkBatch(buf []byte, fn func(class Class, payload []byte)) error {
	count, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return fmt.Errorf("transport: bad batch count")
	}
	buf = buf[sz:]
	if count > uint64(len(buf)) {
		// Each message needs at least two bytes (class + length); reject
		// absurd counts before iterating.
		return fmt.Errorf("transport: batch count %d exceeds envelope", count)
	}
	for i := uint64(0); i < count; i++ {
		if len(buf) < 2 {
			return fmt.Errorf("transport: truncated batch item %d", i)
		}
		class := Class(buf[0])
		n, sz := binary.Uvarint(buf[1:])
		if sz <= 0 || n > uint64(len(buf)-1-sz) {
			return fmt.Errorf("transport: truncated batch item %d", i)
		}
		body := buf[1+sz : 1+sz+int(n)]
		buf = buf[1+sz+int(n):]
		fn(class, body)
	}
	if len(buf) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after batch", len(buf))
	}
	return nil
}

// DecodeBatch decodes a batch envelope into a fresh item slice (payloads
// alias buf). Tests and fuzzers use it; the delivery paths use WalkBatch.
func DecodeBatch(buf []byte) ([]BatchItem, error) {
	var items []BatchItem
	err := WalkBatch(buf, func(class Class, payload []byte) {
		items = append(items, BatchItem{Class: class, Payload: payload})
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// maxFrameBytes caps the payload bytes of one flushed frame (WIRE.md §5):
// a lane holding more flushes at once and splits the backlog across
// frames.
const maxFrameBytes = 64 << 10

// FlusherConfig parameterizes a Flusher.
type FlusherConfig struct {
	// Window is how long a non-urgent message may linger in a lane waiting
	// for co-destination companions before it is flushed. Urgent traffic
	// (call requests, future updates, explicit Flush) never waits on it:
	// it is corked until its sender blocks (see Flusher). Window must be
	// > 0; a Flusher is only built when batching is enabled.
	Window time.Duration
}

// Flusher is the per-(source, destination) smart-batching engine in front
// of an Endpoint. Each destination gets a lane; messages append to the
// lane and one writer at a time writes them out, everything pending in
// one frame. FIFO per pair is preserved because a lane has exactly one
// writer and Flush/Call drain the lane before bypassing it.
//
// Who writes is cork until block (WIRE.md §5 "Who batches, and when" lists
// the block points and states the progress guarantee): an urgent message
// on a lane with no writer is corked — appended, and written by its
// sender when the sender is about to block (FlushPending, or Call and
// Flush for that destination), so a burst issued before blocking leaves
// as one frame. The cork also starts a goroutine that writes the lane
// unless a block point gets there first: progress never depends on one
// being reached, and Close only has to wait. A message that finds a writer at work rides its next
// frame; non-urgent messages linger up to Window under a writer of their
// own.
//
// Send through a Flusher is asynchronous: transport errors surface to the
// runtime the same way a lost message does (future timeout, TTA slack),
// which is exactly the §4.1/§4.2 failure model.
type Flusher struct {
	ep  Endpoint
	bs  BatchSender // non-nil when ep supports batch frames
	cfg FlusherConfig

	// corked counts the corked lanes, so FlushPending on a flusher with
	// nothing corked is one atomic load.
	corked atomic.Int32

	mu     sync.Mutex
	lanes  map[ids.NodeID]*lane
	closed bool
}

// lane is the pending traffic of one destination.
type lane struct {
	dst     ids.NodeID
	mu      sync.Mutex
	cond    *sync.Cond
	pending []BatchItem
	bytes   int
	rush    bool  // flush without lingering
	active  bool  // a writer owns the lane
	corked  bool  // urgent traffic pending and no writer yet; implies !active
	enq     int64 // total messages ever enqueued
	flushed int64 // total messages ever written out
	err     error
}

// NewFlusher wraps ep in a batching flusher. cfg.Window must be positive.
func NewFlusher(ep Endpoint, cfg FlusherConfig) *Flusher {
	bs, _ := ep.(BatchSender)
	return &Flusher{ep: ep, bs: bs, cfg: cfg, lanes: make(map[ids.NodeID]*lane)}
}

func (f *Flusher) laneFor(dst ids.NodeID) (*lane, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	l, ok := f.lanes[dst]
	if !ok {
		l = &lane{dst: dst}
		l.cond = sync.NewCond(&l.mu)
		f.lanes[dst] = l
	}
	return l, nil
}

// Send queues one message for dst. An urgent message is corked until its
// sender blocks, or rides the next frame of a writer already at work; a
// non-urgent one may linger up to the configured window waiting for
// companions (see Flusher). The error reports only enqueue failures
// (flusher closed); write errors are absorbed like a lost message, per the
// transport's one-way delivery contract.
func (f *Flusher) Send(dst ids.NodeID, class Class, payload []byte, urgent bool) error {
	l, err := f.laneFor(dst)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.pending = append(l.pending, BatchItem{Class: class, Payload: payload})
	l.bytes += len(payload)
	l.enq++
	l.rush = l.rush || urgent
	switch {
	case l.active:
		// The writer picks the new message up on its next pass.
		l.cond.Broadcast()
	case l.corked:
		// It rides with the corked burst.
	case urgent:
		l.corked = true
		f.corked.Add(1)
		go f.uncork(l) // the progress guarantee
	default:
		l.active = true
		go f.drain(l)
	}
	l.mu.Unlock()
	return nil
}

// uncork makes the caller the writer of a corked lane, unless another
// writer claimed it first.
func (f *Flusher) uncork(l *lane) {
	l.mu.Lock()
	f.uncorkLocked(l)
	l.mu.Unlock()
}

// uncorkLocked is uncork with l.mu held (released around the writes).
func (f *Flusher) uncorkLocked(l *lane) {
	if l.corked {
		l.corked = false
		f.corked.Add(-1)
		l.active = true
		f.drainPasses(l)
	}
}

// FlushPending writes every corked lane. The runtime calls it where a
// sender is about to block; with nothing corked it is one atomic load.
func (f *Flusher) FlushPending() {
	if f.corked.Load() == 0 {
		return
	}
	var buf [8]*lane // stays on the stack for up to 8 destinations
	for _, l := range f.appendLanes(buf[:0]) {
		f.uncork(l)
	}
}

// appendLanes appends every lane of the flusher to ls.
func (f *Flusher) appendLanes(ls []*lane) []*lane {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.lanes {
		ls = append(ls, l)
	}
	return ls
}

// Call drains dst's lane (preserving FIFO: queued messages cannot be
// overtaken by the exchange) and then performs the request/response
// exchange on the underlying endpoint.
func (f *Flusher) Call(dst ids.NodeID, class Class, payload []byte) ([]byte, error) {
	f.mu.Lock()
	l := f.lanes[dst]
	f.mu.Unlock()
	if l != nil {
		l.mu.Lock()
		// Wait only for the messages enqueued before this call: later
		// arrivals have no ordering claim on the exchange, so sustained
		// send load cannot starve a DGC beat.
		target := l.enq
		f.uncorkLocked(l)
		for l.flushed < target {
			l.rush = true
			l.cond.Broadcast()
			l.cond.Wait()
		}
		l.mu.Unlock()
	}
	return f.ep.Call(dst, class, payload)
}

// Flush forces dst's pending messages out without waiting for the window:
// a corked lane is written by the caller, a lingering writer is woken
// (and not waited for).
func (f *Flusher) Flush(dst ids.NodeID) {
	f.mu.Lock()
	l := f.lanes[dst]
	f.mu.Unlock()
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.pending) > 0 {
		l.rush = true
		l.cond.Broadcast()
	}
	f.uncorkLocked(l)
	l.mu.Unlock()
}

// closeGrace bounds how long Close waits for in-flight lane writes. It
// guards against an endpoint write blocked on a hung peer (e.g. a full
// TCP socket buffer with no write deadline).
// After the grace the lane is abandoned — the caller is expected to
// close the transport next, which fails the stuck write and lets the
// drainer exit on its own.
const closeGrace = 2 * time.Second

// Close flushes every lane, waits (bounded by closeGrace) for the writes
// to land, and rejects subsequent sends. It does not close the
// underlying endpoint, and it must not be able to hang when the
// endpoint can: a lane whose write is wedged on a dead peer is abandoned
// to the transport's own Close. For the same reason Close writes no lane
// itself: a corked lane is written by the goroutine its cork started.
func (f *Flusher) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	lanes := f.appendLanes(nil) // complete: a closed flusher grows no lane
	var expired atomic.Bool
	t := time.AfterFunc(closeGrace, func() {
		expired.Store(true)
		for _, l := range lanes {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	})
	defer t.Stop()
	for _, l := range lanes {
		l.mu.Lock()
		l.rush = true
		l.cond.Broadcast()
		for (l.active || len(l.pending) > 0) && !expired.Load() {
			l.cond.Wait()
		}
		l.mu.Unlock()
	}
}

// drain is the goroutine of a lane that non-urgent traffic woke: the
// lane's writer from the start, lingering up to the window before
// non-rushed flushes.
func (f *Flusher) drain(l *lane) {
	l.mu.Lock()
	f.drainPasses(l)
	l.mu.Unlock()
}

// drainPasses writes the lane's pending traffic until the lane stays
// empty, then gives the lane up (active cleared). Called — and returns —
// with l.mu held; the lock is released around writes.
func (f *Flusher) drainPasses(l *lane) {
	for {
		if len(l.pending) == 0 {
			l.rush = false
			l.active = false
			l.cond.Broadcast()
			return
		}
		if !l.rush && l.bytes < maxFrameBytes {
			// Linger: give co-destination companions up to the window to
			// arrive before the frame goes out.
			fired := false
			t := time.AfterFunc(f.cfg.Window, func() {
				l.mu.Lock()
				fired = true
				l.cond.Broadcast()
				l.mu.Unlock()
			})
			for !fired && !l.rush && l.bytes < maxFrameBytes {
				l.cond.Wait()
			}
			t.Stop()
		}
		items := takeUpTo(l, maxFrameBytes)
		l.mu.Unlock()
		err := f.write(l.dst, items)
		l.mu.Lock()
		l.flushed += int64(len(items))
		if err != nil && l.err == nil {
			l.err = err
		}
		l.cond.Broadcast()
	}
}

// takeUpTo removes up to maxBytes of pending payload from the lane
// (always at least one item). Caller holds l.mu.
func takeUpTo(l *lane, maxBytes int) []BatchItem {
	var bytes, i int
	for i < len(l.pending) {
		sz := len(l.pending[i].Payload)
		if i > 0 && bytes+sz > maxBytes {
			break
		}
		bytes += sz
		i++
	}
	items := l.pending[:i:i]
	l.pending = l.pending[i:]
	if len(l.pending) == 0 {
		l.pending = nil // let the flushed backing array go
	}
	l.bytes -= bytes
	return items
}

// write ships one formed batch: a single message goes out as a plain
// frame (byte-identical to the unbatched path), several as one batch
// frame when the endpoint supports it.
func (f *Flusher) write(dst ids.NodeID, items []BatchItem) error {
	if len(items) == 1 {
		return f.ep.Send(dst, items[0].Class, items[0].Payload)
	}
	if f.bs != nil {
		return f.bs.SendBatch(dst, items)
	}
	for _, it := range items {
		if err := f.ep.Send(dst, it.Class, it.Payload); err != nil {
			return err
		}
	}
	return nil
}

// Err returns the first write error any lane of the flusher absorbed
// (diagnostic; the runtime's failure handling does not depend on it).
func (f *Flusher) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.lanes {
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
