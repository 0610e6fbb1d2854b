package active

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/localgc"
	"repro/internal/wire"
)

// Future errors.
var (
	// ErrRemoteFailure wraps an error string returned by the callee's
	// behavior.
	ErrRemoteFailure = errors.New("active: remote behavior failed")
	// ErrFutureTimeout indicates Wait gave up.
	ErrFutureTimeout = errors.New("active: future wait timed out")
	// ErrOwnerTerminated indicates the calling activity was garbage
	// collected before the result arrived; per the paper's reference
	// orientation (§4.1), a collected caller simply loses the update.
	ErrOwnerTerminated = errors.New("active: future owner terminated")
	// ErrFutureUnavailable indicates a first-class future whose value can
	// no longer be obtained: its home entry was reclaimed after resolution
	// and propagation, so a late forward (or a hand-crafted reference) has
	// nothing left to subscribe to.
	ErrFutureUnavailable = errors.New("active: future no longer available")
	// ErrNotAFuture indicates a value that should have been a future
	// reference was not.
	ErrNotAFuture = errors.New("active: value is not a future")
)

// Future is the placeholder returned by an asynchronous call (§4.1). The
// caller blocks only when it touches the value ("wait-by-necessity"); an
// active object waiting on a future counts as busy, since waiting can only
// happen while serving a request.
//
// Futures are first-class (paper §5–§6): a Future can be passed inside
// call arguments, returned as a result, or scattered over a group before
// it is resolved — it marshals to a wire future value (wire.FutureRef).
// Every node a future is forwarded to becomes a *holder*: the sender
// registers the destination, and when the result (or the remote failure)
// arrives, it is propagated along the forwarding chain to every holder.
// Wait-by-necessity then happens only at the activity that finally
// touches the value; intermediaries never block.
type Future struct {
	id    FutureID
	owner ids.ActivityID
	node  *Node
	// proxy marks an entry adopted for a future whose home is another
	// node: it resolves when an update propagates here from upstream.
	proxy bool
	// shared marks a future that has been forwarded (marshaled into an
	// outgoing payload) or adopted from one: its table entry is retained
	// after resolution for late holder registrations, until the sweep
	// reclaims it.
	shared atomic.Bool
	// awaitNode records the node serving the request this future is the
	// placeholder of (0 when local or unknown), so a confirmed node death
	// can fail the future instead of letting wait-by-necessity hang. Only
	// maintained when the cluster runtime is enabled.
	awaitNode atomic.Uint32
	// emigrated marks a home entry whose owner activity migrated away
	// (WIRE.md §7): the entry stays — its identity names this node, so
	// updates and subscriptions keep landing here — but it behaves like a
	// proxy for consumption (no local owner to bind values to) and the
	// forwarder's eventual destruction must not fail it: the real owner is
	// alive elsewhere and re-subscribed through the destination's state.
	emigrated atomic.Bool

	mu       sync.Mutex
	done     chan struct{}
	resolved bool
	val      wire.Value
	err      error
	// valueRoots pin refs inside the value in the holder's heap — one pin
	// per consuming activity, each carrying that activity's edges — until
	// the value is consumed by Wait (or the owner dies).
	valueRoots  []localgc.RootID
	rootDropped bool
	// discarded marks a Discard that happened before resolution: the pin
	// must then be dropped the moment resolve installs it.
	discarded bool
	// chainWait marks a future that resolved to *another* future (the
	// callee returned a forwarded result): it stays unresolved for local
	// waiters and re-resolves with the inner future's concrete value
	// (automatic first-class flattening).
	chainWait bool
	// tagFreeAt records when the sweep first found this resolved entry
	// without a heap future tag; reclamation waits out a TTA-sized grace
	// from that point (see sweepable).
	tagFreeAt time.Time
	// holders are the downstream nodes this future was forwarded to while
	// unresolved; resolution fans the value out to them.
	holders []ids.NodeID
	// chained are local futures awaiting this future's concrete value
	// (the flattening back-edges).
	chained []*Future
	// localHolders are activities on this node that received the future
	// inside a payload; the arriving value's references are bound to them.
	localHolders []ids.ActivityID
}

func newFuture(node *Node, id FutureID, owner ids.ActivityID) *Future {
	return &Future{id: id, owner: owner, node: node, done: make(chan struct{})}
}

// failedFuture returns an already-failed future outside any table.
func failedFuture(node *Node, id FutureID, owner ids.ActivityID, err error) *Future {
	f := newFuture(node, id, owner)
	f.fail(err)
	return f
}

// ID returns the future's identity (mostly for tests and tracing).
func (f *Future) ID() FutureID { return f.id }

// WireFutureRef implements wire.FutureSource: a Future marshals into call
// arguments and results as a first-class wire future value. Marshaling
// marks the future shared and reinstates its table entry if the fast
// path (or a sweep) already removed it: as long as application code
// holds the live *Future, forwarding it must keep working — the send
// walk will find the entry and ship the already-resolved value.
func (f *Future) WireFutureRef() (wire.FutureRef, bool) {
	if f == nil || f.id.IsZero() {
		return wire.FutureRef{}, false
	}
	f.shared.Store(true)
	f.node.futures.reinstate(f)
	return wire.FutureRef{ID: f.id, Owner: f.owner}, true
}

var _ wire.FutureSource = (*Future)(nil)

// resolve installs the result. A concrete value (or failure) wakes local
// waiters, fans out to every registered holder node and cascades through
// chained futures; a top-level future value chains instead: the future
// stays unresolved for local waiters and re-resolves with the inner
// future's concrete value (first-class flattening), while remote holders
// receive the future value immediately and flatten on their own nodes.
func (f *Future) resolve(val wire.Value, roots []localgc.RootID, err error) {
	f.mu.Lock()
	if f.resolved || f.chainWait {
		// A double resolution must never leak the freshly installed pins.
		for _, root := range roots {
			f.node.heap.RemoveRoot(root)
		}
		f.mu.Unlock()
		return
	}
	if err == nil {
		if fr, ok := val.AsFutureRef(); ok {
			if fr.ID == f.id {
				err = fmt.Errorf("%w: future resolved with itself", ErrRemoteFailure)
				val = wire.Null()
			} else {
				f.chainWait = true
				holders := f.holders
				f.holders = nil
				f.mu.Unlock()
				// The chain keeps the inner future alive through its
				// table entry; the interim pins are not needed (their
				// tags still record the edges until the next sweep).
				for _, root := range roots {
					f.node.heap.RemoveRoot(root)
				}
				// Adopt the inner future BEFORE fanning the future value
				// out: the fan-out's send walk must find the entry to
				// register the downstream holders on it.
				inner, _ := f.node.futures.adopt(f.node, fr)
				// Downstream holders flatten on their own nodes; forward
				// the future value to them right away.
				f.node.fanOutFutureValue(f.id, val, false, "", holders)
				inner.addChained(f)
				return
			}
		}
	}
	f.resolved = true
	f.val = val
	f.err = err
	f.valueRoots = roots
	if f.discarded {
		for _, root := range roots {
			f.node.heap.RemoveRoot(root)
		}
		f.rootDropped = true
	}
	holders := f.holders
	f.holders = nil
	chained := f.chained
	f.chained = nil
	close(f.done)
	f.mu.Unlock()

	failed, errStr := false, ""
	if err != nil {
		failed, errStr = true, err.Error()
	}
	f.node.fanOutFutureValue(f.id, val, failed, errStr, holders)
	for _, c := range chained {
		f.node.resolveChainedFuture(c, val, err)
	}
}

// endChain ends a chainWait: the inner future the entry was flattened
// onto has resolved, so the next resolve — its concrete value, a failure,
// or yet another future to chain onto — takes effect.
func (f *Future) endChain() {
	f.mu.Lock()
	f.chainWait = false
	f.mu.Unlock()
}

// fail resolves the future with an error (owner terminated, shutdown).
func (f *Future) fail(err error) {
	f.resolve(wire.Null(), nil, err)
}

// addHolder registers dst as a holder: a node the future has been
// forwarded to, owed the resolution. A future that already resolved ships
// its value (or failure) to dst immediately.
func (f *Future) addHolder(dst ids.NodeID) {
	f.shared.Store(true)
	f.mu.Lock()
	if f.resolved {
		val, err := f.val, f.err
		f.mu.Unlock()
		failed, errStr := false, ""
		if err != nil {
			failed, errStr = true, err.Error()
		}
		f.node.fanOutFutureValue(f.id, val, failed, errStr, []ids.NodeID{dst})
		return
	}
	for _, h := range f.holders {
		if h == dst {
			f.mu.Unlock()
			return
		}
	}
	f.holders = append(f.holders, dst)
	f.mu.Unlock()
}

// removeHolder forgets a downstream holder (its node died): resolution
// stops trying to ship the value there.
func (f *Future) removeHolder(p ids.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, h := range f.holders {
		if h == p {
			f.holders = append(f.holders[:i], f.holders[i+1:]...)
			break
		}
	}
}

// addChained registers c to re-resolve with this future's concrete value
// (the local leg of first-class flattening).
func (f *Future) addChained(c *Future) {
	f.mu.Lock()
	if f.resolved {
		val, err := f.val, f.err
		f.mu.Unlock()
		f.node.resolveChainedFuture(c, val, err)
		return
	}
	f.chained = append(f.chained, c)
	f.mu.Unlock()
}

// addLocalHolder records a local activity that received this future in a
// payload; the resolution's references are bound to it (§2.2).
func (f *Future) addLocalHolder(a ids.ActivityID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, h := range f.localHolders {
		if h == a {
			return
		}
	}
	f.localHolders = append(f.localHolders, a)
}

// localHolderSnapshot returns the recorded local holders.
func (f *Future) localHolderSnapshot() []ids.ActivityID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ids.ActivityID, len(f.localHolders))
	copy(out, f.localHolders)
	return out
}

// Done returns a channel closed when the future is resolved.
func (f *Future) Done() <-chan struct{} { return f.done }

// TryGet returns the value if the future is already resolved (an
// immediate poll; it never blocks).
func (f *Future) TryGet() (wire.Value, error, bool) { return f.tryGet(true) }

// tryGet is TryGet; expand asks for the value as a Value tree (see
// consume).
func (f *Future) tryGet(expand bool) (wire.Value, error, bool) {
	select {
	case <-f.done:
		v, err := f.consume(expand)
		return v, err, true
	default:
		return wire.Null(), nil, false
	}
}

// Wait blocks until the future resolves or timeout elapses. A zero (or
// negative) timeout means wait forever — this is wait-by-necessity, not a
// poll; use TryGet for a non-blocking probe. A future that resolved to
// another future keeps waiting for the concrete value (first-class
// flattening), so Wait never returns a bare future reference. Consuming
// the value releases the heap pin that was keeping the value's references
// alive on behalf of this future.
func (f *Future) Wait(timeout time.Duration) (wire.Value, error) { return f.await(timeout, true) }

// await is Wait; expand asks for the value as a Value tree (see consume).
func (f *Future) await(timeout time.Duration, expand bool) (wire.Value, error) {
	// Already resolved: skip the timeout machinery entirely.
	select {
	case <-f.done:
		return f.consume(expand)
	default:
	}
	// About to park: the request this waits on may still be corked.
	f.node.flushPending()
	if timeout <= 0 {
		<-f.done
		return f.consume(expand)
	}
	// A pooled timer, so a wait allocates none. Reset/Stop recycling is
	// sound with Go 1.23+ timer channels: no stale tick can linger in t.C
	// after Stop.
	t := waitTimers.Get().(*time.Timer)
	t.Reset(timeout)
	select {
	case <-f.done:
		t.Stop()
		waitTimers.Put(t)
		return f.consume(expand)
	case <-t.C:
		waitTimers.Put(t)
		return wire.Null(), fmt.Errorf("%w after %v", ErrFutureTimeout, timeout)
	}
}

// waitTimers pools the timers of Wait's timeout path.
var waitTimers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// consume hands out the value and drops its heap pin. A value that
// arrived from another node may be in encoded form; expand (the untyped
// API) decodes it into a Value tree and keeps the tree, so it is decoded
// once however often it is read. A typed future decodes the encoded form
// itself.
func (f *Future) consume(expand bool) (wire.Value, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.rootDropped {
		for _, root := range f.valueRoots {
			f.node.heap.RemoveRoot(root)
		}
		f.rootDropped = true
	}
	if expand {
		f.val = wire.Expand(f.val)
	}
	return f.val, f.err
}

// Discard releases the future's heap pin without reading the value. Safe
// to call at any time, any number of times — discarding an unresolved
// future drops the pin as soon as the result arrives, so an abandoned
// call can never pin its value's references for the owner's lifetime.
func (f *Future) Discard() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.discarded = true
	if f.resolved && !f.rootDropped {
		for _, root := range f.valueRoots {
			f.node.heap.RemoveRoot(root)
		}
		f.rootDropped = true
	}
}

// sweepable reports whether the table entry can be reclaimed: the future
// is concretely resolved (holders were fanned out at resolution), no
// heap cell on this node names it anymore, and a TTA-sized grace has
// passed since the last pin died — the same slack the reference-listing
// DGC grants in-flight references, here granting application code that
// just unmarshaled a FutureRef out of a pinned payload time to lift or
// forward it. A Go-side *Future pointer may outlive the entry —
// Wait/TryGet work on the object itself, and a late forward reinstates
// the entry (WireFutureRef); a late lift by reference re-subscribes at
// the home node (futureFor). Unresolved entries are never swept: they
// are owed an update or a chain resolution.
func (f *Future) sweepable(heap *localgc.Heap, now time.Time, grace time.Duration) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.resolved {
		return false
	}
	if heap.HasFutureTag(f.id) {
		f.tagFreeAt = time.Time{}
		return false
	}
	if f.tagFreeAt.IsZero() {
		f.tagFreeAt = now
		return false
	}
	return now.Sub(f.tagFreeAt) >= grace
}

// futureTable tracks the futures known to one node: the pending futures
// of local calls (home entries) and the proxies adopted for futures that
// were forwarded here. Entries are keyed by full FutureID because a
// first-class future travels across nodes under its home identity.
//
// The table is sharded 32 ways (the same shape as simnet's routing
// shards): every per-entry operation — create, adopt, lookup, the
// takeForUpdate on the reply path — locks only the shard its identity
// hashes to, so concurrent calls through one hot node stop serializing
// on a single table mutex. Whole-table operations (sweep, shutdown
// failure fan-outs) walk the shards one at a time.
type futureTable struct {
	nextSeq atomic.Uint32
	shards  [futureShards]futureShard
}

type futureShard struct {
	mu      sync.Mutex
	pending map[ids.FutureID]*Future
}

// futureShards is a power of two so the shard pick is a mask. Locally
// created futures carry consecutive sequence numbers and round-robin
// across all shards.
const futureShards = 32

func newFutureTable() *futureTable {
	t := &futureTable{}
	for i := range t.shards {
		t.shards[i].pending = make(map[ids.FutureID]*Future)
	}
	return t
}

func (t *futureTable) shard(fid ids.FutureID) *futureShard {
	return &t.shards[(fid.Seq+uint32(fid.Node))%futureShards]
}

func (t *futureTable) create(node *Node, owner ids.ActivityID) *Future {
	f := newFuture(node, FutureID{Node: node.id, Seq: t.nextSeq.Add(1)}, owner)
	s := t.shard(f.id)
	s.mu.Lock()
	s.pending[f.id] = f
	s.mu.Unlock()
	return f
}

// adopt returns the entry for a future reference decoded from a payload,
// creating a proxy if the future is not known here (created reports
// that case — a fresh proxy with no upstream registration yet). A
// home-node miss means the entry was already reclaimed (resolved,
// propagated and swept): the returned entry is pre-failed with
// ErrFutureUnavailable rather than left to wait for an update that will
// never come.
func (t *futureTable) adopt(node *Node, fr wire.FutureRef) (f *Future, created bool) {
	s := t.shard(fr.ID)
	s.mu.Lock()
	if f, ok := s.pending[fr.ID]; ok {
		s.mu.Unlock()
		f.shared.Store(true)
		return f, false
	}
	f = newFuture(node, fr.ID, fr.Owner)
	f.proxy = fr.ID.Node != node.id
	f.shared.Store(true)
	s.pending[fr.ID] = f
	s.mu.Unlock()
	if !f.proxy {
		f.fail(ErrFutureUnavailable)
	}
	return f, true
}

// reinstate puts a live entry back into the table (no-op when an entry
// for its identity is already present). WireFutureRef calls it so a
// future whose entry was removed — fast-path take or sweep — becomes
// forwardable again for as long as application code holds the handle.
func (t *futureTable) reinstate(f *Future) {
	s := t.shard(f.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[f.id]; !ok {
		s.pending[f.id] = f
	}
}

// lookup returns the live entry for fid.
func (t *futureTable) lookup(fid ids.FutureID) (*Future, bool) {
	s := t.shard(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.pending[fid]
	return f, ok
}

// takeForUpdate returns the entry an arriving resolution targets. A
// never-shared home entry is removed right away (the pre-first-class
// lifecycle: exactly one update can arrive and nobody else can name the
// future), keeping the table — and the GC's live-object load — at the
// pre-§6 size on future-free workloads. Shared entries stay for the
// sweep, which also owns the marshal-vs-delivery race: marking shared
// happens before the send-side walk looks the entry up, so an entry
// removed here was provably never forwarded.
func (t *futureTable) takeForUpdate(fid ids.FutureID) (*Future, bool) {
	s := t.shard(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.pending[fid]
	if ok && !f.proxy && !f.shared.Load() {
		delete(s.pending, fid)
	}
	return f, ok
}

// remove drops an entry (an unwound call whose request was never sent).
func (t *futureTable) remove(fid ids.FutureID) {
	s := t.shard(fid)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, fid)
}

// sweep reclaims entries whose lifecycle is over (see Future.sweepable).
// The driver runs it right after each local heap collection, so the
// future-tag liveness it consults is fresh. Shards are swept one at a
// time: the hot paths never see more than one shard held.
func (t *futureTable) sweep(heap *localgc.Heap, now time.Time, grace time.Duration) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for fid, f := range s.pending {
			if f.sweepable(heap, now, grace) {
				delete(s.pending, fid)
			}
		}
		s.mu.Unlock()
	}
}

// size returns the number of live entries (tests and metrics).
func (t *futureTable) size() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		total += len(s.pending)
		s.mu.Unlock()
	}
	return total
}

// failOwned resolves with err every pending future owned by owner
// (called when an activity terminates). The failure propagates to every
// holder the future was forwarded to.
func (t *futureTable) failOwned(owner ids.ActivityID, err error) {
	var owned []*Future
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for fid, f := range s.pending {
			if f.owner == owner && !f.proxy && !f.emigrated.Load() {
				owned = append(owned, f)
				delete(s.pending, fid)
			}
		}
		s.mu.Unlock()
	}
	for _, f := range owned {
		f.fail(err)
	}
}

// noteAwait records dst as the node fid's result is awaited from (see
// Future.awaitNode); a no-op for identities without a live entry.
func (t *futureTable) noteAwait(fid ids.FutureID, dst ids.NodeID) {
	s := t.shard(fid)
	s.mu.Lock()
	f, ok := s.pending[fid]
	s.mu.Unlock()
	if ok {
		f.awaitNode.Store(uint32(dst))
	}
}

// failNodeDead runs the future-table leg of a confirmed node death:
// every entry owed its resolution by the dead node — homed there (the
// proxies adopted for its futures) or awaiting a request it was serving —
// fails with err, which fans out to the surviving registered holders;
// and the dead node is purged from the holder lists of everything else,
// so later resolutions stop trying to reach it.
func (t *futureTable) failNodeDead(p ids.NodeID, err error) {
	var doomed, rest []*Future
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for fid, f := range s.pending {
			if fid.Node == p || ids.NodeID(f.awaitNode.Load()) == p {
				doomed = append(doomed, f)
				delete(s.pending, fid)
				continue
			}
			rest = append(rest, f)
		}
		s.mu.Unlock()
	}
	for _, f := range rest {
		f.removeHolder(p)
	}
	for _, f := range doomed {
		f.fail(err)
	}
}

// failAll resolves every pending future with err (node shutdown).
func (t *futureTable) failAll(err error) {
	var all []*Future
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for fid, f := range s.pending {
			all = append(all, f)
			delete(s.pending, fid)
		}
		s.mu.Unlock()
	}
	for _, f := range all {
		f.fail(err)
	}
}
