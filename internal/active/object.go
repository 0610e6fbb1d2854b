package active

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/localgc"
	"repro/internal/wire"
)

// Behavior is the application code of an activity. Serve is called by the
// activity's own goroutine, one request at a time (the active-object model
// is single-threaded per activity). It may perform asynchronous calls
// through the Context and wait on their futures: waiting happens during a
// service, so a waiting activity is busy, never idle (§4.1).
type Behavior interface {
	Serve(ctx *Context, method string, args wire.Value) (wire.Value, error)
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(ctx *Context, method string, args wire.Value) (wire.Value, error)

// Serve implements Behavior.
func (f BehaviorFunc) Serve(ctx *Context, method string, args wire.Value) (wire.Value, error) {
	return f(ctx, method, args)
}

// wireSentinels are failure sentinels that keep their identity across the
// wire: the failure text travels, and the receiving side re-wraps it so
// errors.Is keeps working — a holder that subscribed through a dead
// forwarder matches ErrFutureUnavailable, a refused migration matches
// ErrMigrationFailed/ErrNotMigratable, wherever the caller runs, and a
// future failed by a confirmed node death matches ErrNodeDead on every
// holder it fans out to.
var wireSentinels = []error{ErrFutureUnavailable, ErrMigrationFailed, ErrNotMigratable, ErrUnknownBehaviorKind, ErrNodeDead, ErrUnknownActivity, ErrRecovered, ErrNotDurable, ErrNoStore}

func newRemoteFailure(msg string) error {
	for _, s := range wireSentinels {
		text := s.Error()
		if msg == text {
			return s
		}
		if strings.HasPrefix(msg, text+":") {
			return fmt.Errorf("%w%s", s, msg[len(text):])
		}
	}
	return fmt.Errorf("%w: %s", ErrRemoteFailure, msg)
}

// queuedRequest is one pending request plus the heap root pinning its
// arguments for the duration of the service.
type queuedRequest struct {
	req      request
	argsRoot localgc.RootID
}

// qreqPool recycles queuedRequest boxes between delivery and the end of
// the service (the only point where the box is provably unreachable:
// serveOne returns it after replying). Boxes that leave the serve path —
// migration envelopes, queue-close disposal — are simply dropped for the
// GC; the pool is an optimization, not an invariant.
var qreqPool = sync.Pool{New: func() any { return new(queuedRequest) }}

func getQueued(req request) *queuedRequest {
	it := qreqPool.Get().(*queuedRequest)
	it.req = req
	it.argsRoot = 0
	return it
}

func putQueued(it *queuedRequest) {
	*it = queuedRequest{}
	qreqPool.Put(it)
}

// requestQueue is the activity's unbounded request queue, drained through
// its ServicePolicy (FIFO unless configured otherwise). It also owns the
// idleness flag: the transitions "queue became non-empty ⇒ busy" and
// "queue drained after service ⇒ idle" are made under the queue lock so
// the DGC never observes an activity idle while work is pending — and
// pending means *queued*, not selected: a policy that holds requests back
// keeps the activity busy (see take's takeHeld outcome).
type requestQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*queuedRequest
	closed bool
	idle   *atomic.Bool
	// running marks a pool worker as assigned to (or draining) this
	// queue's activity. The busy→idle edge is owned by the drainer (take
	// clears it), the idle→busy edge by push (which reports "schedule
	// me"); both under mu, so exactly one worker ever drains an activity —
	// the affinity that keeps the active-object model single-threaded.
	running bool
	// policy is the standing selection discipline; nil means FIFO and
	// takes the allocation-free fast path.
	policy ServicePolicy
	// infoScratch is reused by selectLocked (only ever touched under mu)
	// so a holding policy does not allocate a fresh slice on every
	// wakeup.
	infoScratch []RequestInfo
}

func newRequestQueue(idle *atomic.Bool, policy ServicePolicy) *requestQueue {
	if _, isFIFO := policy.(fifoPolicy); isFIFO {
		policy = nil // the explicit FIFO built-in rides the fast path too
	}
	q := &requestQueue{idle: idle, policy: policy}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a request. schedule reports that the activity just went
// ready with no worker assigned: the caller must hand it to the pool
// (exactly one push per idle→busy transition sees it).
func (q *requestQueue) push(item *queuedRequest) (ok, schedule bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, false
	}
	q.items = append(q.items, item)
	q.idle.Store(false)
	q.cond.Broadcast()
	if q.running {
		return true, false
	}
	q.running = true
	return true, true
}

// takeResult is the outcome of a worker's non-blocking take.
type takeResult uint8

const (
	// takeItem: a request was selected; keep draining.
	takeItem takeResult = iota
	// takeClosed: the queue closed; the worker detaches.
	takeClosed
	// takeIdle: the queue is empty; the worker detaches after reporting
	// idleness to the DGC (the flag itself is already set, under mu).
	takeIdle
	// takeHeld: requests pend but the policy holds them all back; the
	// worker detaches without idling (pending means busy, §4.1) and the
	// next push reschedules the activity for re-evaluation.
	takeHeld
)

// take is the pool worker's non-blocking pop: it either selects a request
// or clears the running flag and reports why the drain ends, atomically
// under mu so a concurrent push cannot slip between "saw empty" and
// "detached" without rescheduling the activity.
func (q *requestQueue) take() (*queuedRequest, takeResult) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.running = false
		return nil, takeClosed
	}
	if len(q.items) == 0 {
		q.running = false
		q.idle.Store(true)
		return nil, takeIdle
	}
	idx := 0
	if q.policy != nil {
		idx = q.selectLocked(q.policy)
	}
	if idx < 0 {
		q.running = false
		return nil, takeHeld
	}
	item := q.items[idx]
	q.items = append(q.items[:idx], q.items[idx+1:]...)
	return item, takeItem
}

// popWith blocks until p selects a pending request (or the queue closes).
// A policy returning a negative (or out-of-range) index with requests
// pending holds them: the call sleeps until the next push.
func (q *requestQueue) popWith(p ServicePolicy) (*queuedRequest, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		if len(q.items) > 0 {
			idx := 0
			if p != nil {
				idx = q.selectLocked(p)
			}
			if idx >= 0 {
				item := q.items[idx]
				q.items = append(q.items[:idx], q.items[idx+1:]...)
				return item, true
			}
		}
		q.cond.Wait()
	}
}

// selectLocked builds the policy's view of the pending queue and asks it
// to choose. Out-of-range answers mean "hold everything".
func (q *requestQueue) selectLocked(p ServicePolicy) int {
	if cap(q.infoScratch) < len(q.items) {
		q.infoScratch = make([]RequestInfo, len(q.items))
	}
	infos := q.infoScratch[:len(q.items)]
	for i, it := range q.items {
		infos[i] = RequestInfo{
			Method:    it.req.Method,
			Sender:    it.req.Sender,
			HasFuture: !it.req.Future.IsZero(),
		}
	}
	idx := p.Select(infos)
	if idx < 0 || idx >= len(q.items) {
		return -1
	}
	return idx
}

// pendingCount returns the number of queued (selected or not) requests.
func (q *requestQueue) pendingCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// idleWhilePending reports the forbidden DGC state: the idleness flag
// raised while requests (selected or policy-held) are still queued. Both
// sides of the conjunction are read under the queue lock, which every
// writer holds, so a true result is a real invariant violation, not a
// sampling race. Tests (the live torture) assert it never happens.
func (q *requestQueue) idleWhilePending() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) > 0 && q.idle.Load()
}

// drainAll removes every pending request without closing the queue: the
// migration snapshot. Requests arriving after the drain queue normally
// and are dealt with when the forwarder is installed (or requeued if the
// migration fails).
func (q *requestQueue) drainAll() []*queuedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := q.items
	q.items = nil
	return items
}

// snapshotItems returns the pending items without removing them: the
// checkpoint capture. Safe to hand to captureEnvelope because the
// caller is the draining worker itself (the queue's running flag keeps
// every other worker out), so no item in the copy can be served or
// recycled while the envelope is built.
func (q *requestQueue) snapshotItems() []*queuedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*queuedRequest(nil), q.items...)
}

// requeue puts drained requests back at the front of the queue, ahead of
// anything that arrived since the drain (a failed migration must not
// reorder the queue). It reports ok=false when the queue closed in the
// meantime — the caller then disposes of the items as a close would.
// schedule mirrors push: true when the activity needs a pool worker (it
// cannot happen on today's call path, where the drainer itself requeues,
// but the flag keeps the idle→busy edge correct regardless of caller).
func (q *requestQueue) requeue(items []*queuedRequest) (ok, schedule bool) {
	if len(items) == 0 {
		return true, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, false
	}
	q.items = append(items, q.items...)
	q.idle.Store(false)
	q.cond.Broadcast()
	if q.running {
		return true, false
	}
	q.running = true
	return true, true
}

// close drains the queue, releasing pinned argument roots, and wakes the
// service loop so it can exit. The drained requests are returned so the
// caller can dispose of their reply obligations: a graceful destroy fails
// their futures, a crash stays silent. (The seed released the heap pins
// here but dropped the requests on the floor, leaving remote callers to
// block until their own node noticed — the close/drain audit of PR 3.)
func (q *requestQueue) close(heap *localgc.Heap) []*queuedRequest {
	q.mu.Lock()
	items := q.items
	q.items = nil
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, it := range items {
		heap.RemoveRoot(it.argsRoot)
	}
	return items
}

// ActiveObject is one activity: identity, behavior, request queue, service
// goroutine, DGC collector, and its heap roots.
type ActiveObject struct {
	node     *Node
	id       ids.ActivityID
	name     string
	behavior Behavior
	// kind is the registered behavior kind the activity was created from;
	// empty means not migratable (the destination could not re-instantiate
	// the behavior).
	kind string

	// fwd, when set, is the new identity this (migrated) activity forwards
	// to: the object is a forwarder now — queue closed, behavior gone —
	// and every arriving request or heartbeat is answered with a relay
	// plus a redirect until the holders rebind and the forwarder collapses.
	fwd atomic.Pointer[ids.ActivityID]
	// migrateDst, when non-zero, asks the serve loop to migrate the
	// activity to that node after the current service (Context.MigrateTo).
	migrateDst atomic.Uint64
	// ckptWanted asks the serve loop to checkpoint the activity after the
	// current service (Context.Checkpoint).
	ckptWanted atomic.Bool
	// ckptDirty is set whenever the activity's durable image may have
	// drifted from its last checkpoint (a served request, a fresh restore,
	// a registration) and cleared by each checkpoint; the driver's
	// checkpoint beat skips clean activities, so an idle activity costs
	// nothing.
	ckptDirty atomic.Bool

	collector *core.Collector
	queue     *requestQueue
	idleFlag  atomic.Bool
	// registered marks a registry root (§4.1): never idle.
	registered atomic.Bool
	terminated atomic.Bool
	// wantStop is set by Context.TerminateSelf: the service loop asks the
	// node to destroy the activity after the current request.
	wantStop atomic.Bool

	// nextBeat is when the driver should tick this activity next; it is
	// only touched by the node's driver goroutine.
	nextBeat time.Time
	// nextCkpt is when the driver's checkpoint beat considers this
	// activity again (Config.CheckpointEvery cadence); driver-owned like
	// nextBeat.
	nextCkpt time.Time

	// rootsMu guards the heap roots owned by this activity.
	rootsMu    sync.Mutex
	stateRoots map[string]stateEntry
	extraRoots map[localgc.RootID]struct{}

	// svcCtx is the reusable Context of top-level services. Exactly one
	// worker drains an activity at a time (the queue's running flag), so
	// the only concurrent serveOne on one activity is the nested
	// ServeNext case, which builds its own Context.
	svcCtx Context
}

// stateEntry is one pinned state value: the heap cell and its root.
type stateEntry struct {
	obj  localgc.ObjRef
	root localgc.RootID
}

// newActivity creates an activity on the node; the worker pool serves it
// once its queue goes non-empty.
func (n *Node) newActivity(name string, b Behavior, opts ...SpawnOption) *ActiveObject {
	var so spawnOptions
	for _, opt := range opts {
		opt(&so)
	}
	ao := &ActiveObject{
		node:       n,
		name:       name,
		behavior:   b,
		kind:       so.kind,
		stateRoots: make(map[string]stateEntry),
		extraRoots: make(map[localgc.RootID]struct{}),
	}
	if !so.id.IsNil() {
		// Restoring under a pre-crash identity (Env.Recover): advance the
		// generator past it so fresh spawns on this node cannot collide.
		ao.id = so.id
		n.gen.SkipTo(so.id.Seq + 1)
	} else {
		ao.id = n.gen.Next()
	}
	if so.kind != "" && n.env.cfg.Store != nil {
		// A durable activity is born dirty: its very existence (and any
		// restored state) is not on disk yet under this identity.
		ao.ckptDirty.Store(true)
	}
	ao.queue = newRequestQueue(&ao.idleFlag, so.policy)
	// A fresh activity is idle until its first request.
	ao.idleFlag.Store(true)
	ao.collector = core.New(ao.id, n.dgc, ao.isIdle, n.env.now())

	n.mu.Lock()
	n.aos[ao.id] = ao
	n.aosPeak = max(n.aosPeak, len(n.aos))
	n.mu.Unlock()
	n.env.noteCreated()
	return ao
}

// newRoot builds the node's root referencer, the §4.1 stand-in for its
// non-active code: every Handle on the node is a stub it owns. It is never
// idle, and its queue is closed from birth, so a request to it fails like
// one to a terminated activity. It lives outside aos: no count sees it,
// the driver ticks it every beat and Node.activity resolves it.
func (n *Node) newRoot() *ActiveObject {
	root := &ActiveObject{node: n, id: ids.ActivityID{Node: n.id}, name: "root"}
	root.queue = newRequestQueue(&root.idleFlag, nil)
	root.queue.closed = true
	root.collector = core.New(root.id, n.dgc, func() bool { return false }, n.env.now())
	return root
}

// ID returns the activity identifier.
func (ao *ActiveObject) ID() ids.ActivityID { return ao.id }

// Name returns the activity's (informational) name.
func (ao *ActiveObject) Name() string { return ao.name }

// Collector exposes the DGC state machine (used by tests and metrics).
func (ao *ActiveObject) Collector() *core.Collector { return ao.collector }

// isIdle is the middleware's idleness notion fed to the collector (§4.1):
// registered activities are permanent roots.
func (ao *ActiveObject) isIdle() bool {
	if ao.registered.Load() {
		return false
	}
	return ao.idleFlag.Load()
}

// enqueue delivers a request to the activity, scheduling it on the node's
// worker pool when the push flips it ready.
func (ao *ActiveObject) enqueue(item *queuedRequest) {
	ok, schedule := ao.queue.push(item)
	if ok {
		if schedule {
			ao.node.pool.schedule(ao)
		}
		return
	}
	// Queue closed: the activity migrated away or died between lookup
	// and delivery. A forwarder relays the request to the new home; a
	// dead activity fails the caller's future.
	ao.node.heap.RemoveRoot(item.argsRoot)
	if !ao.forwardTarget().IsNil() {
		ao.node.forwardQueued(ao, item.req)
		return
	}
	ao.node.reply(item.req, wire.Null(), ErrUnknownActivity)
}

// drain is one pool worker's tenure on the activity: serve requests one at
// a time until the queue runs dry (report idleness to the DGC — clock
// increment occasion #1 — and detach), the policy holds everything back
// (detach busy; the next push re-presents the queue), or the activity
// leaves — migration turns it into a forwarder, TerminateSelf destroys it.
// The queue's running flag guarantees no other worker touches this
// activity until it is rescheduled.
func (ao *ActiveObject) drain() {
	for {
		item, res := ao.queue.take()
		if res != takeItem {
			// Detaching: ship the replies this tenure corked, in one frame.
			ao.node.flushPending()
			if res == takeIdle {
				ao.collector.BecomeIdle(ao.node.env.now())
			}
			return
		}
		if ao.serveOne(item, false) {
			return // migrated; the queue is closed
		}
		if ao.wantStop.Load() {
			ao.node.destroy(ao, core.ReasonNone)
			return
		}
		if dst := ao.migrateDst.Swap(0); dst != 0 {
			if _, err := ao.node.migrateOut(ao, ids.NodeID(dst)); err == nil {
				return
			}
			// A failed MigrateTo leaves the activity serving here.
		}
		if ao.ckptWanted.Swap(false) {
			// Context.Checkpoint: between services, state quiescent.
			_ = ao.node.checkpointNow(ao)
		}
	}
}

// serveOne serves a single request and reports whether it migrated the
// activity (the intercepted migrateMethod; behaviors never see it).
// nested marks a Context.ServeNext selection from inside a running
// service, where a migration is refused.
func (ao *ActiveObject) serveOne(item *queuedRequest, nested bool) bool {
	if item.req.Method == migrateMethod {
		return ao.serveMigrate(item, nested)
	}
	if item.req.Method == checkpointMethod {
		return ao.serveCheckpoint(item, nested)
	}
	ctx := &ao.svcCtx
	if nested {
		ctx = &Context{ao: ao}
	} else {
		ctx.ao = ao
		ctx.transientRoots = ctx.transientRoots[:0]
	}
	wantReply := !item.req.Future.IsZero()
	var (
		reply []byte // the encoded result behind updateRoom
		err   error
	)
	if svc, ok := ao.behavior.(*Service); ok {
		// Every queued request owns its arguments, decoded from its own
		// bytes: the typed methods may decode them in place.
		reply, err = svc.serve(ctx, item.req.Method, item.req.Args, true, wantReply)
	} else {
		// Dynamic code reads the Value tree, decoded here, once.
		var result wire.Value
		result, err = ao.behavior.Serve(ctx, item.req.Method, wire.Expand(item.req.Args))
		if err == nil && wantReply {
			reply = wire.EncodeAfter(updateRoom, result)
		}
	}
	ctx.releaseTransients()
	if ao.kind != "" && ao.node.env.cfg.Store != nil {
		// The service may have mutated state: the next checkpoint beat
		// must not skip this activity. Behind the Store nil-check so the
		// non-durable hot path pays nothing but the kind comparison.
		ao.ckptDirty.Store(true)
	}
	ao.node.heap.RemoveRoot(item.argsRoot)
	switch {
	case !wantReply:
	case err != nil:
		ao.node.reply(item.req, wire.Null(), err)
	default:
		ao.node.replyTo(item.req, sealUpdate(reply, item.req.Future))
	}
	putQueued(item)
	return false
}

// releaseAllRoots drops every heap root owned by the activity; the next
// sweep then reclaims its whole object graph, firing tag deaths.
func (ao *ActiveObject) releaseAllRoots(heap *localgc.Heap) {
	ao.rootsMu.Lock()
	defer ao.rootsMu.Unlock()
	for _, e := range ao.stateRoots {
		heap.RemoveRoot(e.root)
	}
	ao.stateRoots = make(map[string]stateEntry)
	for r := range ao.extraRoots {
		heap.RemoveRoot(r)
	}
	ao.extraRoots = make(map[localgc.RootID]struct{})
}

// Context is the API surface available to a Behavior during one service.
type Context struct {
	ao *ActiveObject
	// transientRoots pin values allocated during this service (e.g.
	// freshly spawned activity stubs) until the service ends.
	transientRoots []localgc.RootID
}

// Self returns a reference value designating this activity, suitable for
// embedding in arguments or results.
func (c *Context) Self() wire.Value { return wire.Ref(c.ao.id) }

// ID returns this activity's identifier.
func (c *Context) ID() ids.ActivityID { return c.ao.id }

// NodeID returns the hosting node's identifier.
func (c *Context) NodeID() ids.NodeID { return c.ao.node.id }

func (c *Context) releaseTransients() {
	for _, r := range c.transientRoots {
		c.ao.node.heap.RemoveRoot(r)
	}
	c.transientRoots = c.transientRoots[:0]
}

// Call performs an asynchronous method call on target (a reference value)
// and returns a future for its result.
func (c *Context) Call(target wire.Value, method string, args wire.Value) (*Future, error) {
	tid, ok := target.AsRef()
	if !ok {
		return nil, fmt.Errorf("%w: Call target %v", ErrNotARef, target)
	}
	return c.ao.call(tid, method, encodeArgs(method, args))
}

// call sends a request to target that expects a reply and returns its
// future; enc is the encoded args behind the room of the header (see
// sendRequest).
func (ao *ActiveObject) call(target ids.ActivityID, method string, enc []byte) (*Future, error) {
	fut := ao.node.futures.create(ao.node, ao.id)
	req := request{Target: target, Sender: ao.id, Future: fut.ID(), Method: method}
	if err := ao.node.sendRequest(req, enc); err != nil {
		ao.node.futures.remove(fut.ID())
		return nil, err
	}
	return fut, nil
}

// send is call for a one-way request.
func (ao *ActiveObject) send(target ids.ActivityID, method string, enc []byte) error {
	return ao.node.sendRequest(request{Target: target, Sender: ao.id, Method: method}, enc)
}

// Future lifts a first-class future value received in arguments (or
// loaded from state) into the local waitable Future adopted for it. This
// is wait-by-necessity at the final holder: only the activity that calls
// Wait ever blocks; every forwarding hop stayed asynchronous. An unknown
// future yields a pre-failed Future (ErrFutureUnavailable).
func (c *Context) Future(v wire.Value) (*Future, error) {
	return c.ao.node.futureFor(v)
}

// Send performs a one-way asynchronous call (no future, no result).
func (c *Context) Send(target wire.Value, method string, args wire.Value) error {
	tid, ok := target.AsRef()
	if !ok {
		return fmt.Errorf("%w: Send target %v", ErrNotARef, target)
	}
	return c.ao.send(tid, method, encodeArgs(method, args))
}

// ServeNext serves exactly one pending request selected by policy — the
// paper's selective serve primitives (e.g. ServeOldest("urgent")) from
// inside a running service. It blocks until a matching request is
// available (waiting counts as busy, §4.1), serves it to completion on
// this activity's goroutine, and returns. When the activity's queue
// closes (termination, shutdown) before a match arrives, ServeNext
// returns ErrEnvClosed without serving.
func (c *Context) ServeNext(policy ServicePolicy) error {
	if policy == nil {
		policy = c.ao.queue.policy
	}
	item, ok := c.ao.queue.popWith(policy)
	if !ok {
		return ErrEnvClosed
	}
	c.ao.serveOne(item, true)
	return nil
}

// Spawn creates a new activity on this node and returns a reference to it.
// The reference is pinned until the end of the current service; Store it
// to keep it alive longer. Options configure the child (e.g. WithPolicy).
func (c *Context) Spawn(name string, b Behavior, opts ...SpawnOption) wire.Value {
	child := c.ao.node.newActivity(name, b, opts...)
	_, root := c.ao.node.heap.NewStubRooted(c.ao.id, child.id)
	c.transientRoots = append(c.transientRoots, root)
	return wire.Ref(child.id)
}

// Store saves a value in the activity's persistent state. References
// inside it keep their targets alive in the reference graph. Storing a
// value under an existing key replaces (and unpins) the previous value.
func (c *Context) Store(key string, v wire.Value) {
	heap := c.ao.node.heap
	obj, root := heap.InternRooted(c.ao.id, v)
	c.ao.rootsMu.Lock()
	old, had := c.ao.stateRoots[key]
	c.ao.stateRoots[key] = stateEntry{obj: obj, root: root}
	c.ao.rootsMu.Unlock()
	if had {
		heap.RemoveRoot(old.root)
	}
}

// Load reads a value from the activity's persistent state (null if
// absent).
func (c *Context) Load(key string) wire.Value {
	c.ao.rootsMu.Lock()
	e, ok := c.ao.stateRoots[key]
	c.ao.rootsMu.Unlock()
	if !ok {
		return wire.Null()
	}
	return c.ao.node.heap.Materialize(e.obj)
}

// Delete removes a state entry; stubs it was pinning become collectable at
// the next local sweep (removing their edges as the paper's weak tag
// mechanism would).
func (c *Context) Delete(key string) {
	c.ao.rootsMu.Lock()
	e, ok := c.ao.stateRoots[key]
	if ok {
		delete(c.ao.stateRoots, key)
	}
	c.ao.rootsMu.Unlock()
	if ok {
		c.ao.node.heap.RemoveRoot(e.root)
	}
}

// Lookup resolves a registered name through the environment registry.
func (c *Context) Lookup(name string) (wire.Value, error) {
	v, err := c.ao.node.env.Lookup(name)
	if err != nil {
		return wire.Null(), err
	}
	// Looking a name up hands this activity a reference: pin its stub,
	// and with it the edge, exactly as a deserialization would.
	target, _ := v.AsRef()
	_, root := c.ao.node.heap.NewStubRooted(c.ao.id, target)
	c.transientRoots = append(c.transientRoots, root)
	return v, nil
}

// TerminateSelf requests explicit termination of this activity after the
// current request completes (the no-DGC baselines' explicit-termination
// path).
func (c *Context) TerminateSelf() {
	c.ao.wantStop.Store(true)
}
