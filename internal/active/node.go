package active

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/localgc"
	"repro/internal/location"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Node is one process (address space) of the distributed system: it hosts
// activities, a local heap of counted pins, a future table, and the DGC
// driver goroutine.
type Node struct {
	env      *Env
	id       ids.NodeID
	gen      *ids.Generator
	dgc      core.Config // every collector's configuration, root's included
	heap     *localgc.Heap
	endpoint transport.Endpoint
	// flusher is the per-destination batching engine in front of the
	// endpoint; nil unless Config.BatchWindow enables batching.
	flusher *transport.Flusher
	futures *futureTable
	// pool serves the node's activities: a shared, elastically sized set
	// of worker goroutines with per-activity affinity (see pool.go).
	pool *workerPool

	mu      sync.Mutex
	aos     map[ids.ActivityID]*ActiveObject
	aosPeak int // largest len(aos) since the map was last rebuilt
	closed  bool
	root    *ActiveObject // owner of every Handle's stub (newRoot); not in aos

	// Location state (WIRE.md §9). locCache is the node's one bounded,
	// lazily compressed table of moved activities (location.DefaultCacheSize
	// entries, least recently used evicted first): what relocation notices
	// taught it, and — marked as origin, re-announced to the shard owners
	// from locCursor on — the migrations it took part in. An evicted entry
	// costs a fallback (forwarder hop, then shard query), never a wrong
	// answer. locMu guards locCursor.
	locCache  *location.Cache
	locMu     sync.Mutex
	locCursor uint32

	// Tree fan-out relay records (WIRE.md §10): in-flight subtrees whose
	// replies this node aggregates before forwarding one hop up. Keys
	// start at 1; 0 always means "no record" (direct reply).
	relayMu   sync.Mutex
	relays    map[uint64]*relayRecord
	relayNext uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ transport.Handler = (*Node)(nil)

func newNode(e *Env, id ids.NodeID) *Node {
	n := &Node{
		env:      e,
		id:       id,
		gen:      ids.NewGenerator(id),
		futures:  newFutureTable(),
		aos:      make(map[ids.ActivityID]*ActiveObject),
		locCache: location.NewCache(location.DefaultCacheSize),
		stop:     make(chan struct{}),
	}
	n.heap = localgc.New(nodeEdges{n})
	n.dgc = core.Config{
		TTB:           e.cfg.TTB,
		TTA:           e.cfg.TTA,
		Adaptive:      e.cfg.Adaptive,
		MinHeightTree: e.cfg.MinHeightTree,
		OnEvent:       e.cfg.OnEvent,
	}
	n.root = n.newRoot()
	n.pool = newWorkerPool(n)
	n.endpoint = e.net.Register(id, n)
	if e.cfg.BatchWindow > 0 {
		n.flusher = transport.NewFlusher(n.endpoint, transport.FlusherConfig{
			Window: e.cfg.BatchWindow,
		})
	}
	return n
}

// transportSend ships one one-way payload, through the batching flusher
// when enabled. Urgent traffic (requests awaiting a reply, future
// updates) is corked until the sender blocks (flushPending); non-urgent
// traffic may linger up to the batch window for companions.
func (n *Node) transportSend(dst ids.NodeID, class transport.Class, payload []byte, urgent bool) error {
	if err := n.routeCheck(dst); err != nil {
		return err
	}
	if n.flusher != nil {
		return n.flusher.Send(dst, class, payload, urgent)
	}
	return n.endpoint.Send(dst, class, payload)
}

// transportCall performs a request/response exchange, draining the
// destination's batch lane first so the exchange cannot overtake queued
// one-way traffic (§3.2 FIFO).
func (n *Node) transportCall(dst ids.NodeID, class transport.Class, payload []byte) ([]byte, error) {
	if err := n.routeCheck(dst); err != nil {
		return nil, err
	}
	if n.flusher != nil {
		return n.flusher.Call(dst, class, payload)
	}
	return n.endpoint.Call(dst, class, payload)
}

// flushPending writes the node's corked batch lanes. Callers are the
// runtime's block points: a goroutine about to park writes what it (or
// anyone on the node) corked first — see transport.Flusher.
func (n *Node) flushPending() {
	if n.flusher != nil {
		n.flusher.FlushPending()
	}
}

// flushOutbound flushes and stops the node's batch lanes (no-op when
// batching is off, idempotent otherwise).
func (n *Node) flushOutbound() {
	if n.flusher != nil {
		n.flusher.Close()
	}
}

// ID returns the node identifier.
func (n *Node) ID() ids.NodeID { return n.id }

// Heap exposes the node's local heap (used by tests and metrics).
func (n *Node) Heap() *localgc.Heap { return n.heap }

func (n *Node) start() {
	n.wg.Add(1)
	go n.runDriver()
}

// activity returns the live activity with the given ID on this node.
func (n *Node) activity(id ids.ActivityID) (*ActiveObject, bool) {
	if id == n.root.id {
		return n.root, true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ao, ok := n.aos[id]
	return ao, ok
}

// LiveActivities returns the number of live activities hosted on this
// node (forwarders left by migrations included, until they collapse; the
// node's root referencer, which handles are stubs of, excluded).
func (n *Node) LiveActivities() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.aos)
}

// snapshotActivities returns all live activities but the root; the one
// spare slot lets the driver append it without a copy.
func (n *Node) snapshotActivities() []*ActiveObject {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*ActiveObject, 0, len(n.aos)+1)
	for _, ao := range n.aos {
		out = append(out, ao)
	}
	return out
}

// nodeEdges hands the heap the collectors of the node's activities: the
// heap adds and removes their reference-graph edges as it pins and frees
// stubs (§2.2), so the edges are a function of the pins.
type nodeEdges struct{ n *Node }

func (e nodeEdges) Referencer(owner ids.ActivityID) localgc.Referencer {
	if ao, ok := e.n.activity(owner); ok {
		return ao.collector
	}
	return nil
}

func (e nodeEdges) Now() time.Time { return e.n.env.now() }

// HandleOneWay implements transport.Handler: application requests and future
// updates.
func (n *Node) HandleOneWay(from ids.NodeID, class transport.Class, payload []byte) {
	if ag := n.env.cluster; ag != nil {
		// Inbound traffic is proof of life — the piggybacking that keeps
		// failure detection off the happy path.
		ag.observe(from)
	}
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case envRequest:
		if req, rawArgs, err := decodeRequestHeader(payload); err == nil {
			n.deliverEncoded(req, rawArgs, false)
		}
	case envFutureUpdate:
		n.deliverFutureUpdate(payload, false)
	case envFutureSubscribe:
		n.deliverFutureSubscribe(payload)
	case envFanOut:
		n.deliverFanOut(from, payload)
	case envFanAgg:
		n.deliverFanAgg(payload)
	case location.TagAnnounce:
		n.handleLocAnnounce(payload)
	default:
		// Malformed traffic is dropped, as a real transport would.
	}
}

// deliverFutureSubscribe registers a late holder (WIRE.md §6 fallback).
// With the entry present the holder is registered normally (and served
// immediately if resolved); with it gone, the home node — the authority
// on its own futures — fails the subscriber instead of letting it hang.
func (n *Node) deliverFutureSubscribe(payload []byte) {
	fid, holder, err := decodeFutureSubscribe(payload)
	if err != nil || holder == n.id {
		return
	}
	if f, ok := n.futures.lookup(fid); ok {
		f.addHolder(holder)
		return
	}
	if fid.Node == n.id {
		u := futureUpdate{Future: fid, Failed: true, Err: ErrFutureUnavailable.Error()}
		_ = n.transportSend(holder, transport.ClassFuture, encodeFutureUpdate(u), true)
	}
}

// HandleCall implements transport.Handler: DGC messages → DGC responses,
// one envelope each way (a single message, or one beat's messages toward
// this node when the sender batches). An absent response means its
// target activity is gone; the sender's driver ignores it (the paper
// omits error handling; silence is indistinguishable from a slow beat
// and is handled by the TTA machinery).
func (n *Node) HandleCall(from ids.NodeID, class transport.Class, payload []byte) []byte {
	if ag := n.env.cluster; ag != nil {
		ag.observe(from)
		if class == transport.ClassCluster {
			// Node-addressed cluster exchange: the suspect-path probe.
			return ag.handleNodeCall(from, payload)
		}
	}
	if class == transport.ClassApp {
		// Application-class exchanges: the migration envelope (WIRE.md §7)
		// and the location-directory query (§9); everything else
		// application-level is one-way.
		if len(payload) > 0 {
			switch payload[0] {
			case envMigrate:
				return n.handleMigrateIn(payload)
			case location.TagQuery:
				return n.handleLocQuery(payload)
			}
		}
		return nil
	}
	// A malformed exchange is refused whole: no collector hears of it.
	var r wire.Reader
	count, err := openDGC(&r, payload)
	if err != nil {
		return nil
	}
	now := n.env.now()
	reply := dgcHead(count, core.MaxResponseSize)
	for range count {
		ob := core.ReadMessage(&r)
		var resp *core.Response // nil: the target is gone
		if ao, ok := n.activity(ob.To); ok {
			got := ao.collector.HandleMessage(ob.Msg, now)
			resp = &got
			n.redirectIfForwarder(ao, from)
		}
		reply = core.AppendResponse(reply, resp, ob.Msg.Clock)
	}
	return reply
}

// redirectIfForwarder pushes a rebinding notice back at a node that just
// heartbeated a forwarder: the referencer over there still holds the old
// identity. This is the collapse driver that needs no application
// traffic — within one beat every stale holder learns the new address,
// rebinds, and stops beating the forwarder, which then goes TTA-alone.
func (n *Node) redirectIfForwarder(ao *ActiveObject, from ids.NodeID) {
	if newID := ao.forwardTarget(); !newID.IsNil() && from != n.id {
		n.sendRedirect(from, ao.id, newID)
	}
}

// deliverEncoded is the one delivery path of a request, its args still
// encoded in raw. local marks a request sent from this node: raw is then
// the request's own, taken over rather than copied, and no remote sender
// registered this node as a holder of the futures in it (see bind).
// Otherwise raw is the transport's, readable only for the duration of
// the call. A target that moved is readdressed; a target that is gone
// fails the caller's future, after asking the directory.
func (n *Node) deliverEncoded(req request, raw []byte, local bool) {
	ao, ok := n.activity(req.Target)
	if ok {
		if newID := ao.forwardTarget(); !newID.IsNil() {
			// The target migrated away: relay through the forwarder and
			// teach the sender the new address.
			n.readdress(req, raw, newID)
			return
		}
	} else {
		// The callee is gone — but if it is known to have migrated (the
		// forwarder already collapsed), a late call still reaches it via
		// the node's location knowledge: cache, origin table or shard.
		if newID, okLoc := n.resolveLocation(req.Target); okLoc && newID != req.Target {
			n.readdress(req, raw, newID)
			return
		}
		// Nothing known locally: ask the ID's home shard before giving
		// up (the slow path a cache eviction or collapsed forwarder
		// falls back to). The query runs on its own goroutine, past the
		// transport buffer's life: a remote request's args are copied.
		if !local {
			raw = bytes.Clone(raw)
		}
		if n.tryDirectoryRelay(req, ErrUnknownActivity, raw) {
			return
		}
		// Collected or explicitly terminated. If the caller expects a
		// result, fail its future so it does not block forever.
		n.reply(req, wire.Null(), ErrUnknownActivity)
		return
	}
	args, err := wire.DecodePayload(raw, local)
	if err != nil {
		return
	}
	req.Args = args
	n.admit(ao, req, local)
}

// admit binds a delivered request's args to its recipient ao and queues
// the request. The pin roots the args in the recipient's heap for the
// lifetime of the request: stubs inside them keep the references alive
// until the service completes (then only state-stored stubs survive).
func (n *Node) admit(ao *ActiveObject, req request, local bool) {
	item := getQueued(req)
	var pins [1]localgc.RootID
	if n.bind(req.Args, []*ActiveObject{ao}, pins[:], local) > 0 {
		item.argsRoot = pins[0]
	}
	ao.enqueue(item)
}

// bind is the one place a payload that entered this node becomes held
// (§2.2): for each consumer, the rooted pin, which carries the edges to
// every reference in v, then the adoption of v's futures on its behalf. A
// value without a reference pins nothing: the calling hot path allocates
// no pins. A value nothing here consumes still has its futures adopted,
// so a resolution's fan-out can register downstream holders on them.
// local marks a payload this node sent: no remote sender registered it
// as a holder, so a proxy adopted fresh subscribes at its home. pins has
// a slot per consumer: bind reports how many it filled, none or all.
func (n *Node) bind(v wire.Value, consumers []*ActiveObject, pins []localgc.RootID, local bool) int {
	var scratch [8]ids.ActivityID
	refs := v.Refs(scratch[:0])
	if len(refs) == 0 || len(consumers) == 0 {
		n.adoptFutures(v, ids.Nil, local)
		return 0
	}
	for i, ao := range consumers {
		_, pins[i] = n.heap.InternRooted(ao.id, v)
		n.adoptFutures(v, ao.id, local)
	}
	return len(consumers)
}

// adoptFutures walks a delivered value for first-class futures and
// adopts entries for them on behalf of recipient. A Nil recipient adopts
// without recording a local holder — used when a value must become
// forwardable here even though no live local activity received it.
// subscribe is set for payloads this node sent itself, where no remote
// sender has registered this node: a freshly created remote-homed proxy
// then subscribes at its home node (a handle on node A can legitimately
// be given a future homed on node B through plain Go code). Values
// without futures pay one walk, which allocates nothing.
func (n *Node) adoptFutures(v wire.Value, recipient ids.ActivityID, subscribe bool) {
	var scratch [4]wire.FutureRef
	for _, fr := range v.FutureRefs(scratch[:0]) {
		if fr.ID.IsZero() {
			continue
		}
		f, created := n.futures.adopt(n, fr)
		if !recipient.IsNil() {
			f.addLocalHolder(recipient)
		}
		if subscribe && created && f.proxy {
			_ = n.transportSend(fr.ID.Node, transport.ClassFuture, encodeFutureSubscribe(fr.ID, n.id), true)
		}
	}
}

// deliverFutureUpdate resolves a future with an arriving result: the
// original callee's update at the home node, or a propagated one at a
// holder node (WIRE.md §6). local marks an update sent from this node,
// whose payload is then the receiver's own (see deliverEncoded). An
// unknown future means the caller terminated or the update is a
// duplicate; it is dropped.
func (n *Node) deliverFutureUpdate(payload []byte, local bool) {
	u, rawValue, err := decodeFutureUpdateHeader(payload)
	if err != nil {
		return
	}
	fut, ok := n.futures.takeForUpdate(u.Future)
	if !ok {
		return
	}
	if u.Failed {
		fut.fail(newRemoteFailure(u.Err))
		return
	}
	value, err := wire.DecodePayload(rawValue, local)
	if err != nil {
		fut.fail(err)
		return
	}
	n.bindValueToFuture(fut, value, local)
}

// bindValueToFuture installs an arrived result on a future entry: it
// binds the value to the activities that will consume it — the home
// entry's owner and/or every local activity the future was forwarded to
// — and resolves the entry (which fans the value out to downstream holder
// nodes and chained futures).
func (n *Node) bindValueToFuture(f *Future, value wire.Value, local bool) {
	var cscratch [4]*ActiveObject
	consumers := cscratch[:0]
	if !f.proxy && !f.emigrated.Load() {
		owner, ok := n.activity(f.owner)
		if !ok {
			f.fail(ErrOwnerTerminated)
			return
		}
		consumers = append(consumers, owner)
	}
	for _, a := range f.localHolderSnapshot() {
		if ao, ok := n.activity(a); ok && (len(consumers) == 0 || ao != consumers[0]) {
			consumers = append(consumers, ao)
		}
	}
	var pscratch [4]localgc.RootID
	pins := pscratch[:]
	if len(consumers) > len(pins) {
		pins = make([]localgc.RootID, len(consumers))
	}
	var roots []localgc.RootID // the future keeps them: off the stack
	if k := n.bind(value, consumers, pins, local); k > 0 {
		roots = append(roots, pins[:k]...)
	}
	f.resolve(value, roots, nil)
}

// fanOutFutureValue ships a resolution (value or failure) to holder
// nodes: the future-update propagation leg of first-class futures. The
// envelope is encoded once and reused; after each send the value is
// walked so futures nested inside it register dst as *their* holder too
// (the recursive case of a forwarded result carrying further futures).
func (n *Node) fanOutFutureValue(fid FutureID, val wire.Value, failed bool, errStr string, holders []ids.NodeID) {
	if len(holders) == 0 {
		return
	}
	u := futureUpdate{Future: fid, Failed: failed, Err: errStr}
	if !failed {
		u.Value = val
	}
	var payload []byte
	for _, dst := range holders {
		if dst == n.id {
			// Holders are registered by remote senders only; guard anyway.
			n.deliverFutureUpdate(encodeFutureUpdate(u), true)
			continue
		}
		if payload == nil {
			payload = encodeFutureUpdate(u)
		}
		// Errors (unreachable, closed) drop the update: per §4.1, a
		// missing future update cannot wake anything and is acceptable
		// for garbage. Updates are urgent: holders are (or will be)
		// blocked on them.
		_ = n.transportSend(dst, transport.ClassFuture, payload, true)
		n.noteFutureValuesSent(dst, updateValue(payload))
	}
}

// resolveChainedFuture re-resolves a chainWait future with the concrete
// value of the inner future it was flattened onto. The value crosses an
// activity boundary, so it is encoded, as every crossing is, and the
// copy is bound to the outer future's consumers. The chain ends first, so
// the bind's own outcome — a failure for a terminated owner included —
// takes effect.
func (n *Node) resolveChainedFuture(c *Future, val wire.Value, err error) {
	c.endChain()
	if err == nil {
		val, err = wire.DecodePayload(wire.EncodeAfter(0, val), true)
	}
	if err != nil {
		c.fail(err)
		return
	}
	n.bindValueToFuture(c, val, false)
}

// updateValue returns the encoded value of a future-update envelope.
func updateValue(payload []byte) []byte {
	_, raw, _ := decodeFutureUpdateHeader(payload)
	return raw
}

// noteFutureValuesSent registers dst as a holder of every first-class
// future inside an outgoing payload's encoded value enc (ASP-style
// sender-side registration: the resolution will be propagated to dst
// when — or if already — it arrives here). Called after the payload is
// on the wire so a direct-send of an already-resolved value follows the
// payload on the pair's FIFO lane. A future unknown here is failed at
// dst if this is its home node (it was reclaimed; dst's proxy would
// otherwise wait forever).
func (n *Node) noteFutureValuesSent(dst ids.NodeID, enc []byte) {
	var scratch [4]wire.FutureRef
	for _, fr := range wire.FutureRefsIn(enc, scratch[:0]) {
		if fr.ID.IsZero() || fr.ID.Node == dst {
			// The future is going home: its entry there (or its absence)
			// is authoritative; no registration needed.
			continue
		}
		if f, ok := n.futures.lookup(fr.ID); ok {
			f.addHolder(dst)
			continue
		}
		if fr.ID.Node == n.id {
			// Home with no entry: the future was reclaimed; fail the new
			// holder's proxy rather than letting it wait forever.
			u := futureUpdate{Future: fr.ID, Failed: true, Err: ErrFutureUnavailable.Error()}
			_ = n.transportSend(dst, transport.ClassFuture, encodeFutureUpdate(u), true)
			continue
		}
		// Not home and no entry (our proxy was swept, or the reference
		// was hand-crafted): subscribe the destination at the home node
		// on its behalf — the home either serves it or fails it.
		_ = n.transportSend(fr.ID.Node, transport.ClassFuture, encodeFutureSubscribe(fr.ID, dst), true)
	}
}

// sendFutureUpdate ships a future-update envelope, which it consumes, to
// the future's home node: delivered here when that is this node.
func (n *Node) sendFutureUpdate(to FutureID, payload []byte) {
	if to.Node == n.id {
		n.deliverFutureUpdate(payload, true)
		return
	}
	// Errors (unreachable, closed) drop the update: per §4.1, a missing
	// future update cannot wake anything and is acceptable for garbage.
	// Updates are urgent: the caller is (or will be) blocked on them.
	_ = n.transportSend(to.Node, transport.ClassFuture, payload, true)
	n.noteFutureValuesSent(to.Node, updateValue(payload))
}

// sendRequest ships an application request to the target's node, or
// delivers it here when the target is local. enc holds the encoded args
// behind requestRoom(req.Method) bytes of room for the header; the send
// consumes it: it becomes the envelope, or the local delivery's own args.
// Requests that expect a reply are urgent; plain one-way sends may linger
// in the batch window. Targets known to have migrated are rewritten
// through the rebind table first, so a stale reference pays the forwarder
// hop at most once per node.
func (n *Node) sendRequest(req request, enc []byte) error {
	req.Target = n.resolveRebind(req.Target)
	if req.Target.Node == n.id {
		n.deliverEncoded(req, enc[requestRoom(req.Method):], true)
		return nil
	}
	if req.Via != 0 {
		// The request leaves the node, so its reply can no longer pass
		// through the local relay record (Via never serializes): detach,
		// and let the reply travel straight to the root.
		n.relayDetach(req.Via, req.Future)
		req.Via = 0
	}
	if n.env.isDeadNode(req.Target.Node) {
		// The identity's home is confirmed dead, but the activity may have
		// migrated away before the crash: local location knowledge first,
		// then the ID's home shard (WIRE.md §9). Only when the directory
		// cannot help either does the send fail fast with the sentinel.
		if newID, ok := n.resolveLocation(req.Target); ok && newID != req.Target && !n.env.isDeadNode(newID.Node) {
			if moved, ok := rebindArgs(enc[requestRoom(req.Method):], req.Method, req.Target, newID); ok {
				req.Target = newID
				return n.sendRequest(req, moved)
			}
		}
		if n.tryDirectoryRelay(req, ErrNodeDead, enc[requestRoom(req.Method):]) {
			return nil
		}
	}
	err := n.transportSend(req.Target.Node, transport.ClassApp, sealRequest(enc, req), !req.Future.IsZero())
	if err == nil {
		if n.env.cluster != nil && !req.Future.IsZero() {
			// Remember who owes this future its result, so a confirmed
			// death of that node fails it instead of hanging the waiter.
			n.futures.noteAwait(req.Future, req.Target.Node)
		}
		// Register the destination as holder of any futures forwarded in
		// the arguments — after the request, so a direct-send of an
		// already-resolved value cannot overtake it on the FIFO lane.
		n.noteFutureValuesSent(req.Target.Node, enc[requestRoom(req.Method):])
	}
	return err
}

// futureFor lifts a first-class future value into the local waitable
// entry adopted for it (wait-by-necessity at the holder). When the
// local entry is gone — a proxy reclaimed after resolution, or a
// reference lifted on a node that never saw the payload — a fresh proxy
// is adopted and re-subscribed at the home node, which either serves it
// or fails it with ErrFutureUnavailable; a home-node miss fails
// immediately (the home is the authority on its own futures).
func (n *Node) futureFor(v wire.Value) (*Future, error) {
	fr, ok := v.AsFutureRef()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotAFuture, v)
	}
	if fr.ID.IsZero() {
		return failedFuture(n, fr.ID, fr.Owner, ErrFutureUnavailable), nil
	}
	if f, okF := n.futures.lookup(fr.ID); okF {
		return f, nil
	}
	if fr.ID.Node == n.id {
		return failedFuture(n, fr.ID, fr.Owner, ErrFutureUnavailable), nil
	}
	f, _ := n.futures.adopt(n, fr)
	if err := n.transportSend(fr.ID.Node, transport.ClassFuture, encodeFutureSubscribe(fr.ID, n.id), true); err != nil {
		f.fail(err)
	}
	return f, nil
}

// destroy removes an activity: stops its service loop, drains its request
// queue (failing the futures of requests that will never be served),
// releases its heap roots, fails futures it owns, and records the
// collection.
func (n *Node) destroy(ao *ActiveObject, reason core.Reason) {
	n.mu.Lock()
	if _, ok := n.aos[ao.id]; !ok {
		n.mu.Unlock()
		return
	}
	delete(n.aos, ao.id)
	// Counted in the critical section that removes the activity, so
	// whoever sees it gone (WaitCollected, Stats) sees it counted.
	n.env.noteCollected(reason)
	if n.aosPeak >= 256 && len(n.aos) < n.aosPeak/4 {
		// Go maps keep the buckets of their largest size: rebuild, so a
		// population peak is not paid for in memory for good.
		live := make(map[ids.ActivityID]*ActiveObject, len(n.aos))
		for id, a := range n.aos {
			live[id] = a
		}
		n.aos, n.aosPeak = live, len(live)
	}
	n.mu.Unlock()

	ao.terminated.Store(true)
	ao.collector.Terminate(n.env.now())
	for _, it := range ao.queue.close(n.heap) {
		// A queued request whose callee terminates gracefully fails its
		// caller's future now instead of leaving it to time out — the same
		// answer an enqueue after close gets.
		n.reply(it.req, wire.Null(), ErrUnknownActivity)
	}
	ao.releaseAllRoots(n.heap)
	n.futures.failOwned(ao.id, ErrOwnerTerminated)
	// A graceful termination erases the activity's checkpoint: there is
	// nothing left to recover. Crash/shutdown never reach here, so their
	// checkpoints survive — that is the durability contract. Forwarders
	// keep no checkpoint under the old identity (migration deleted it).
	if ao.kind != "" && n.env.cfg.Store != nil && ao.forwardTarget().IsNil() {
		_ = n.env.cfg.Store.Delete(ao.id)
	}
}

// Crash simulates the machine failing: the node vanishes from the
// network without any cleanup protocol. Per §4.2 the DGC cannot
// distinguish this from slowness — peers referencing the crashed
// activities keep heartbeating into the void, while activities that were
// referenced only from the crashed node stop hearing beats and collect
// themselves acyclically after TTA. Pending calls toward the node fail
// or time out.
func (n *Node) Crash() {
	n.env.mu.Lock()
	delete(n.env.nodes, n.id)
	n.env.mu.Unlock()
	n.env.net.Deregister(n.id)
	n.env.refreshRing()
	n.shutdown()
}

// shutdown stops the node: driver, service loops, futures.
func (n *Node) shutdown() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	aos := make([]*ActiveObject, 0, len(n.aos))
	for _, ao := range n.aos {
		aos = append(aos, ao)
	}
	n.aos = make(map[ids.ActivityID]*ActiveObject)
	n.mu.Unlock()

	close(n.stop)
	for _, ao := range aos {
		ao.terminated.Store(true)
		// Shutdown (and crash) stays silent toward remote callers: their
		// queued requests are dropped with their pins released, exactly as
		// a vanished machine would drop them (§4.2); local callers' futures
		// fail below via failAll.
		ao.queue.close(n.heap)
	}
	n.futures.failAll(ErrEnvClosed)
	// Stop the pool after the queues close and the futures fail: workers
	// blocked mid-service in Future.Wait have been unblocked above, finish
	// their drain against a closed queue, and exit.
	n.pool.close()
	n.flushOutbound()
	n.wg.Wait()
}
